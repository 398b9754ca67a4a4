"""The mode-specific selection / tuple-reconstruction path for TPC-H plans.

Every query plan needs, per involved table, "the listed columns of the rows
qualifying these predicates".  The four systems differ exactly there:

* ``monetdb`` — full scan for the most selective predicate, ordered
  positional refinement and reconstruction;
* ``presorted`` — a table copy sorted on the selection attribute (optionally
  sub-sorted on group-by/order-by columns), binary search, slice reads;
* ``selection_cracking`` — cracker column select, scattered refinement and
  reconstruction;
* ``sideways`` / ``partial_sideways`` — sideways cracking maps.

Joins, group-bys, and aggregations downstream are mode-independent, exactly
as in the paper ("the rest of the operators are performed using the original
column-store operators").
"""

from __future__ import annotations

import bisect
from typing import Callable

import numpy as np

from repro.cracking.bounds import Interval
from repro.engine.database import Database
from repro.engine.operators import ordered_gather, random_gather, scan_select
from repro.engine.query import Predicate
from repro.errors import PlanError
from repro.storage.types import Dictionary

MODES = ("monetdb", "presorted", "selection_cracking", "sideways")
EXTRA_MODES = ("partial_sideways", "rowstore_presorted")

Residual = Callable[[dict[str, np.ndarray]], np.ndarray]


def _code_range(lo: int, hi: int) -> Interval:
    """Dictionary codes ``[lo, hi)``.  An :class:`Interval` is never empty,
    so an empty range becomes ``[lo - 0.5, lo)``, which holds no integer
    code."""
    return Interval.half_open(lo if hi > lo else lo - 0.5, hi)

class ModeExecutor:
    """Executes the mode-specific part of a TPC-H plan."""

    def __init__(self, db: Database, mode: str) -> None:
        if mode not in MODES and mode not in EXTRA_MODES:
            raise PlanError(f"unknown mode {mode!r}")
        self.db = db
        self.mode = mode
        self.recorder = db.recorder
        self.presort_seconds = 0.0

    # -- dictionary helpers ---------------------------------------------------------

    def _dictionary(self, table: str, attr: str) -> Dictionary:
        dictionary = self.db.table(table).column(attr).dictionary
        if dictionary is None:
            raise PlanError(f"{table}.{attr} is not dictionary-encoded")
        return dictionary

    def _code(self, table: str, attr: str, string: str) -> tuple[int, bool]:
        """``string``'s sorted insertion point among the dictionary codes,
        and whether the dictionary holds it there."""
        values = self._dictionary(table, attr).values
        code = bisect.bisect_left(values, string)
        return code, code < len(values) and values[code] == string

    def eq(self, table: str, attr: str, string: str) -> Interval:
        """String equality as a point interval over dictionary codes.  A
        string absent from the dictionary selects nothing, as SQL ``=``
        would: the empty code range at its insertion point."""
        code, present = self._code(table, attr, string)
        return Interval.point(code) if present else _code_range(code, code)

    def prefix(self, table: str, attr: str, prefix: str) -> Interval:
        """``LIKE 'prefix%'`` as a half-open code range."""
        return _code_range(*self._dictionary(table, attr).prefix_range(prefix))

    def codes(self, table: str, attr: str, strings: list[str]) -> np.ndarray:
        """The codes of ``strings``; absent strings match nothing and are
        skipped."""
        found = [self._code(table, attr, s) for s in strings]
        return np.array([code for code, present in found if present], dtype=np.int64)

    def decode(self, table: str, attr: str, values: np.ndarray) -> list[str]:
        return self._dictionary(table, attr).decode(values)

    # -- the core: mode-specific select -------------------------------------------------

    def select(
        self,
        table: str,
        predicates: list[Predicate],
        columns: list[str],
        residual: Residual | None = None,
        then_by: tuple[str, ...] = (),
    ) -> dict[str, np.ndarray]:
        """Columns of the rows qualifying ``predicates`` (and ``residual``).

        ``residual`` is a row-wise filter over the *fetched* columns (e.g.
        ``l_commitdate < l_receiptdate``) that no single-attribute structure
        can index; it runs after the mode-specific selection, on all modes
        alike.  ``then_by`` requests minor sort keys for the presorted copy.
        """
        if not predicates:
            out = self._scan_all(table, columns)
        elif self.mode == "monetdb":
            out = self._select_scan(table, predicates, columns)
        elif self.mode == "presorted":
            out = self._select_presorted(table, predicates, columns, then_by)
        elif self.mode == "rowstore_presorted":
            # A presorted row store reads whole tuples: same slice, but the
            # traffic covers the full row width regardless of the columns
            # the query needs.
            out = self._select_presorted(table, predicates, columns, then_by)
            width = len(self.db.table(table).attributes)
            count = len(next(iter(out.values()))) if out else 0
            self.recorder.sequential(count * max(0, width - len(columns)))
        elif self.mode == "selection_cracking":
            out = self._select_cracking(table, predicates, columns)
        else:
            out = self._select_sideways(table, predicates, columns)
        if residual is not None:
            mask = residual(out)
            self.recorder.sequential(len(mask))
            out = {attr: values[mask] for attr, values in out.items()}
        return out

    # -- per-mode implementations ----------------------------------------------------------

    def _scan_all(self, table: str, columns: list[str]) -> dict[str, np.ndarray]:
        relation = self.db.table(table)
        out = {}
        for attr in columns:
            values = relation.values(attr)
            self.recorder.sequential(len(values))
            out[attr] = values
        return out

    def _ordered_predicates(self, table: str, predicates: list[Predicate]) -> list[Predicate]:
        values = self.db.table(table)

        def estimate(pred: Predicate) -> float:
            column = values.values(pred.attr)
            step = max(1, len(column) // 1024)
            sample = column[::step]
            return float(pred.interval.mask(sample).mean()) if len(sample) else 0.0

        return sorted(predicates, key=lambda p: (estimate(p), p.attr))

    def _select_scan(
        self, table: str, predicates: list[Predicate], columns: list[str]
    ) -> dict[str, np.ndarray]:
        relation = self.db.table(table)
        ordered = self._ordered_predicates(table, predicates)
        first = ordered[0]
        values = relation.values(first.attr)
        positions = scan_select(values, first.interval.mask(values), self.recorder)
        for pred in ordered[1:]:
            looked_up = ordered_gather(
                relation.values(pred.attr), positions, self.recorder
            )
            positions = positions[pred.interval.mask(looked_up)]
        return {
            attr: ordered_gather(relation.values(attr), positions, self.recorder)
            for attr in columns
        }

    def _select_presorted(
        self,
        table: str,
        predicates: list[Predicate],
        columns: list[str],
        then_by: tuple[str, ...],
    ) -> dict[str, np.ndarray]:
        from repro.engine.presorted import sorted_range

        ordered = self._ordered_predicates(table, predicates)
        first = ordered[0]
        copy, seconds = self.db.sorted_copy(table, first.attr, then_by)
        self.presort_seconds += seconds
        self.recorder.event("index_lookups", 2)
        lo, hi = sorted_range(copy.values(first.attr), first.interval)
        mask: np.ndarray | None = None
        for pred in ordered[1:]:
            segment = copy.values(pred.attr)[lo:hi]
            self.recorder.sequential(hi - lo)
            pred_mask = pred.interval.mask(segment)
            mask = pred_mask if mask is None else mask & pred_mask
        out = {}
        for attr in columns:
            segment = copy.values(attr)[lo:hi]
            self.recorder.sequential(hi - lo)
            out[attr] = segment[mask] if mask is not None else segment.copy()
        return out

    def _select_cracking(
        self, table: str, predicates: list[Predicate], columns: list[str]
    ) -> dict[str, np.ndarray]:
        relation = self.db.table(table)
        ordered = self._ordered_predicates(table, predicates)
        first = ordered[0]
        keys = self.db.cracker_column(table, first.attr).select(first.interval)
        for pred in ordered[1:]:
            looked_up = random_gather(
                relation.values(pred.attr), keys, self.recorder
            )
            keys = keys[pred.interval.mask(looked_up)]
        return {
            attr: random_gather(relation.values(attr), keys, self.recorder)
            for attr in columns
        }

    def _select_sideways(
        self, table: str, predicates: list[Predicate], columns: list[str]
    ) -> dict[str, np.ndarray]:
        if self.mode == "partial_sideways":
            facade = self.db.partial_sideways(table)
        else:
            facade = self.db.sideways(table)
        if len(predicates) == 1:
            pred = predicates[0]
            return facade.select_project(pred.attr, pred.interval, columns)
        intervals = {p.attr: p.interval for p in predicates}
        return facade.query(intervals, columns, conjunctive=True)
