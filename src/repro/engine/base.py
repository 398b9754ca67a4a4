"""The engine interface and the generic join pipeline.

Engines differ in *how* they select and reconstruct; the join pipeline —
select each side, reconstruct the join attribute, equi-join, reconstruct the
post-join attributes, aggregate — is shared.  Each engine supplies a
:class:`SideHandle` describing its qualifying tuples and how to fetch an
attribute for an arbitrary subset of them (that fetch is where the systems'
access patterns diverge).
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.analysis.sanitizer import checkpoint_query
from repro.engine.database import Database
from repro.engine.join import hash_join
from repro.engine.operators import grouped
from repro.errors import FaultError, InvariantError, PlanError
from repro.faults.guard import RECOVERABLE
from repro.faults.plan import active_plan
from repro.engine.query import (
    JoinQuery,
    JoinSide,
    Query,
    QueryResult,
    compute_aggregates,
)
from repro.stats.counters import StatsRecorder
from repro.stats.timing import PhaseTimer

#: What engine-level recovery catches: everything the atomic guards roll
#: back on, plus the InvariantError a guard raises after undoing detected
#: in-place corruption.
_ENGINE_RECOVERABLE = RECOVERABLE + (InvariantError,)


@dataclass
class SideHandle:
    """One side's qualifying tuples after its local selections.

    ``count`` qualifying tuples; ``fetch(attr, subset)`` returns attribute
    values for the subset (``None`` = all), reported with the engine's
    characteristic access pattern.
    """

    count: int
    fetch: Callable[[str, np.ndarray | None], np.ndarray]


class Engine(abc.ABC):
    """Common engine machinery: framing, timing, aggregates."""

    name: str = "engine"
    #: Seconds spent building presorted copies (only presorted systems do).
    presort_seconds: float = 0.0

    def __init__(self, db: Database) -> None:
        self.db = db
        self.recorder: StatsRecorder = db.recorder

    # -- single-table queries -------------------------------------------------------

    def run(self, query: Query) -> QueryResult:
        """Answer ``query``; under an active fault plan, heal and fall back.

        When an injected (or injected-corruption-detected) fault escapes the
        per-structure atomic guards, every broken structure has already been
        rolled back or quarantined; this wrapper drops the quarantined ones
        and re-answers the query through the scan engine, so callers always
        get a correct result or a structured :class:`FaultError`.
        """
        try:
            return self._run_raw(query)
        except _ENGINE_RECOVERABLE as exc:
            if active_plan() is None:
                raise
            return self._recover(exc, lambda engine: engine._run_raw(query))

    def _run_raw(self, query: Query) -> QueryResult:
        result = QueryResult()
        with self.recorder.frame() as stats:
            with result.timer.phase("total"):
                if query.predicates:
                    columns = self._execute(query, result.timer)
                else:
                    columns = self._read_table(query, result.timer)
                if query.group_by:
                    with result.timer.phase("group_by"):
                        columns = grouped(
                            columns, query.group_by, query.aggregates, self.recorder
                        )
        result.row_count = len(next(iter(columns.values()))) if columns else 0
        if query.group_by:
            result.aggregates = {}
        else:
            result.aggregates = compute_aggregates(query.aggregates, columns)
            # Outside the recorder frame: dropping the columns only the
            # aggregates read moves no counter.
            columns = {attr: columns[attr] for attr in query.projections}
        result.columns = columns
        result.stats = stats
        # Outside the recorder frame, so sanitizer sweeps never skew counters.
        checkpoint_query()
        return result

    @abc.abstractmethod
    def _execute(self, query: Query, timer: PhaseTimer) -> dict[str, np.ndarray]:
        """Evaluate a query with predicates, returning positionally aligned
        projections."""

    def _read_table(self, query: Query, timer: PhaseTimer) -> dict[str, np.ndarray]:
        """A query without predicates: every live row of the needed columns,
        one sequential pass per column, whatever the system's structures."""
        relation = self.db.table(query.table)
        live = ~self.db.tombstones(query.table)
        out: dict[str, np.ndarray] = {}
        with timer.phase("reconstruct"):
            for attr in query.needed_columns:
                values = relation.values(attr)
                self.recorder.sequential(len(values))
                out[attr] = values[live]
        return out

    # -- fault recovery ------------------------------------------------------------------

    def _recover(self, exc: BaseException, rerun) -> QueryResult:
        """Heal quarantined structures, then re-answer via the scan engine.

        A multi-shot plan (``site@N..M``) can fire again during the recovery
        rerun itself, so healing retries up to the plan's total shot budget:
        once every armed shot has been spent the workload must run clean, so
        a query that *still* fails past that bound is a real bug and
        surfaces as a :class:`FaultError` chained to the last failure.
        """
        from repro.engine.scan import PlainEngine

        site = getattr(exc, "site", None)
        plan = active_plan()
        attempts = 1 + (plan.total_shots() if plan is not None else 0)
        fallback = self if isinstance(self, PlainEngine) else PlainEngine(self.db)
        last: BaseException = exc
        for _ in range(attempts):
            self.db.heal_faults()
            try:
                result = rerun(fallback)
            except _ENGINE_RECOVERABLE as retry_exc:
                last = retry_exc
                continue
            result.fault_recovered = True
            return result
        raise FaultError(
            "scan fallback failed after fault recovery", site=site
        ) from last

    # -- join queries -------------------------------------------------------------------

    def run_join(self, query: JoinQuery) -> QueryResult:
        """Join-query counterpart of :meth:`run` (same recovery contract)."""
        try:
            return self._run_join_raw(query)
        except _ENGINE_RECOVERABLE as exc:
            if active_plan() is None:
                raise
            return self._recover(exc, lambda engine: engine._run_join_raw(query))

    def _run_join_raw(self, query: JoinQuery) -> QueryResult:
        for side in (query.left, query.right):
            if not side.predicates:
                raise PlanError(f"join side {side.table} needs a predicate")
        result = QueryResult()
        timer = result.timer
        with self.recorder.frame() as stats:
            with timer.phase("total"):
                left = self._select_side(query.left, timer)
                right = self._select_side(query.right, timer)
                with timer.phase("tr_before"):
                    left_join = left.fetch(query.left.join_attr, None)
                    right_join = right.fetch(query.right.join_attr, None)
                with timer.phase("join"):
                    li, ri = hash_join(left_join, right_join, self.recorder)
                columns: dict[str, np.ndarray] = {}
                with timer.phase("tr_after"):
                    for attr in query.left.post_join_columns:
                        columns[attr] = left.fetch(attr, li)
                    for attr in query.right.post_join_columns:
                        columns[attr] = right.fetch(attr, ri)
        result.columns = columns
        result.aggregates = compute_aggregates(query.aggregates, columns)
        result.row_count = len(li)
        result.stats = stats
        checkpoint_query()
        return result

    @abc.abstractmethod
    def _select_side(self, side: JoinSide, timer: PhaseTimer) -> SideHandle:
        """Run one side's local selections (timed under ``select``)."""

    # -- shared helpers --------------------------------------------------------------------

    def _sample_estimate(self, table: str, attr: str, interval) -> float:
        """Cheap cardinality estimate from a 1%-ish sample of the column.

        Stands in for the statistics every system in the paper's experiments
        is granted when ordering predicates by selectivity.
        """
        values = self.db.table(table).values(attr)
        step = max(1, len(values) // 1024)
        sample = values[::step]
        if len(sample) == 0:
            return 0.0
        return float(interval.mask(sample).mean()) * len(values)

    def order_by_selectivity(self, table: str, predicates) -> list:
        """Most selective predicate first (ties broken by attribute name)."""
        return sorted(
            predicates,
            key=lambda p: (self._sample_estimate(table, p.attr, p.interval), p.attr),
        )

    # -- plan introspection -------------------------------------------------------

    def explain(self, query: Query) -> str:
        """A human-readable sketch of the plan this engine would run.

        Shows predicate evaluation order (with cardinality estimates), the
        physical structure each step uses, and the reconstruction access
        pattern — the dimension the paper's systems differ on.
        """
        lines = [f"{self.name}: {query.table}"]
        ordered = self.order_by_selectivity(query.table, list(query.predicates))
        connective = "AND" if query.conjunctive else "OR"
        for i, pred in enumerate(ordered):
            estimate = self._sample_estimate(query.table, pred.attr, pred.interval)
            if i == 0:
                how = self._selection_structure(query.table, pred.attr)
                prefix = "  select"
            else:
                how = self._refinement_structure(query.table, pred.attr)
                prefix = f"  {connective.lower()}-refine"
            lines.append(
                f"{prefix} {pred.attr} {pred.interval!r} (~{estimate:.0f} rows) "
                f"via {how}"
            )
        needed = ", ".join(query.needed_columns) or "(none)"
        lines.append(f"  reconstruct [{needed}] via {self._reconstruction_pattern()}")
        for func, attr in query.aggregates:
            lines.append(f"  aggregate {func}({attr})")
        policy = getattr(self.db, "crack_policy", None)
        if policy is not None and self.name in {
            "selection_cracking", "sideways", "partial_sideways"
        }:
            lines.append(f"  crack policy: {policy.describe()}")
        return "\n".join(lines)

    def _selection_structure(self, table: str, attr: str) -> str:
        return {
            "monetdb": "full column scan",
            "presorted": f"binary search on sorted copy {table}@{attr}",
            "selection_cracking": f"cracker column {table}.{attr}",
            "sideways": f"cracker maps of set S_{attr}",
            "partial_sideways": f"partial maps / chunk map of set S_{attr}",
            "rowstore": "full row scan",
            "rowstore_presorted": f"binary search on sorted rows {table}@{attr}",
        }.get(self.name, "scan")

    def _refinement_structure(self, table: str, attr: str) -> str:
        return {
            "monetdb": f"in-order positional lookups into {table}.{attr}",
            "presorted": "sequential mask within the sorted slice",
            "selection_cracking": f"scattered lookups into {table}.{attr}",
            "sideways": f"bit vector over the aligned map M_(head,{attr})",
            "partial_sideways": f"bit vector over aligned chunks of {attr}",
            "rowstore": "mask within the row scan",
            "rowstore_presorted": "mask within the sorted row slice",
        }.get(self.name, "filter")

    def _reconstruction_pattern(self) -> str:
        return {
            "monetdb": "in-order positional lookups over base columns",
            "presorted": "sequential slice of the sorted copy",
            "selection_cracking": "scattered lookups over base columns",
            "sideways": "aligned map tails (sequential over the cracked area)",
            "partial_sideways": "aligned chunk tails (sequential, per area)",
            "rowstore": "already materialized in the rows",
            "rowstore_presorted": "already materialized in the rows",
        }.get(self.name, "gather")
