"""Query descriptions and results shared by every engine."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.cracking.bounds import Interval
from repro.errors import PlanError
from repro.stats.counters import AccessStats
from repro.stats.timing import PhaseTimer

AGGREGATE_FUNCS = ("max", "min", "sum", "count", "avg")


@dataclass(frozen=True)
class Predicate:
    """A range predicate on one attribute."""

    attr: str
    interval: Interval


@dataclass(frozen=True)
class Query:
    """A single-table selection / projection / aggregation query.

    ``select <projections>, <aggregates> from <table>
    where <predicates combined conjunctively or disjunctively>
    [group by <group_by>]``

    With ``group_by``, plain projections must be group keys, and aggregate
    results become per-group arrays in ``QueryResult.columns`` (keyed
    ``func(attr)``) alongside the key columns.
    """

    table: str
    predicates: tuple[Predicate, ...] = ()
    projections: tuple[str, ...] = ()
    aggregates: tuple[tuple[str, str], ...] = ()
    conjunctive: bool = True
    group_by: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        for func, _attr in self.aggregates:
            if func not in AGGREGATE_FUNCS:
                raise PlanError(f"unknown aggregate {func!r}")
        seen = set()
        for pred in self.predicates:
            if pred.attr in seen:
                raise PlanError(f"duplicate predicate on {pred.attr!r}")
            seen.add(pred.attr)
        if self.group_by:
            loose = set(self.projections) - set(self.group_by)
            if loose:
                raise PlanError(
                    f"projections {sorted(loose)} are not group-by keys"
                )

    @property
    def predicate_map(self) -> dict[str, Interval]:
        return {p.attr: p.interval for p in self.predicates}

    @property
    def needed_columns(self) -> tuple[str, ...]:
        """Projections, group keys, and aggregate inputs, deduplicated."""
        out: list[str] = []
        for attr in (
            list(self.projections)
            + list(self.group_by)
            + [a for _, a in self.aggregates]
        ):
            if attr not in out:
                out.append(attr)
        return tuple(out)


@dataclass(frozen=True)
class JoinSide:
    """One side of an equi-join: local predicates, the join attribute, and
    the attributes reconstructed *after* the join."""

    table: str
    join_attr: str
    predicates: tuple[Predicate, ...] = ()
    post_join_columns: tuple[str, ...] = ()

    @property
    def predicate_map(self) -> dict[str, Interval]:
        return {p.attr: p.interval for p in self.predicates}


@dataclass(frozen=True)
class JoinQuery:
    """A two-table equi-join with per-side conjunctive selections.

    ``select <aggregates> from L, R where <L.predicates> and <R.predicates>
    and L.join_attr = R.join_attr``

    Post-join column names must be unique across the two sides (the result
    dictionary is keyed by attribute name).
    """

    left: JoinSide
    right: JoinSide
    aggregates: tuple[tuple[str, str], ...] = ()

    def __post_init__(self) -> None:
        clash = set(self.left.post_join_columns) & set(self.right.post_join_columns)
        if clash:
            raise PlanError(
                f"post-join columns appear on both sides: {sorted(clash)}"
            )


@dataclass
class QueryResult:
    """What an engine hands back: values, aggregates, and cost breakdowns.

    ``columns`` holds the projections only (a group-by query: its keys and
    per-group aggregates); a column only an aggregate reads is not kept.
    ``timer`` holds wall-clock seconds per phase (``select``, ``tr_before``,
    ``join``, ``tr_after``); ``stats`` holds the classified element touches
    of the whole query.
    """

    columns: dict[str, np.ndarray] = field(default_factory=dict)
    aggregates: dict[str, float] = field(default_factory=dict)
    row_count: int = 0
    timer: PhaseTimer = field(default_factory=PhaseTimer)
    stats: AccessStats = field(default_factory=AccessStats)
    #: True when a fault interrupted the original engine and the answer was
    #: re-computed through the scan fallback after healing.
    fault_recovered: bool = False

    @property
    def total_seconds(self) -> float:
        return self.timer.total

    def phase_seconds(self, name: str) -> float:
        return self.timer.get(name)


def compute_aggregates(
    aggregates: tuple[tuple[str, str], ...], columns: dict[str, np.ndarray]
) -> dict[str, float]:
    """Evaluate ``(func, attr)`` aggregates over projected columns."""
    out: dict[str, float] = {}
    for func, attr in aggregates:
        values = columns[attr]
        name = f"{func}({attr})"
        if func == "count":
            out[name] = float(len(values))
        elif len(values) == 0:
            out[name] = float("nan")
        elif func == "max":
            out[name] = float(values.max())
        elif func == "min":
            out[name] = float(values.min())
        elif func == "sum":
            out[name] = float(values.sum())
        elif func == "avg":
            out[name] = float(values.mean())
    return out
