"""The presorted baseline ("presorted MonetDB").

For every selection attribute the engine keeps a whole-table copy sorted on
that attribute (built on demand; build time is reported separately, exactly
like the paper excludes presorting cost from its figures).  Selections are
binary searches yielding a contiguous slice; every reconstruction is a
sequential read of that small slice.
"""

from __future__ import annotations

import numpy as np

from repro.cracking.bounds import Interval
from repro.engine.base import Engine, SideHandle
from repro.engine.query import JoinSide, Query
from repro.stats.timing import PhaseTimer
from repro.storage.relation import Relation


def sorted_range(values: np.ndarray, interval: Interval) -> tuple[int, int]:
    """The slice ``[lo, hi)`` of a sorted array qualifying ``interval``."""
    lo = 0
    hi = len(values)
    if interval.lo is not None:
        side = "left" if interval.lo_inclusive else "right"
        lo = int(np.searchsorted(values, interval.lo, side=side))
    if interval.hi is not None:
        side = "right" if interval.hi_inclusive else "left"
        hi = int(np.searchsorted(values, interval.hi, side=side))
    return lo, max(lo, hi)


class PresortedEngine(Engine):
    """Multiple presorted copies, one per selection attribute."""

    name = "presorted"

    def __init__(self, db, then_by: dict[str, tuple[str, ...]] | None = None) -> None:
        super().__init__(db)
        self.presort_seconds = 0.0
        # Optional minor sort keys per (table, attr), mirroring the paper's
        # TPC-H copies sub-sorted on group-by / order-by columns.
        self._then_by = then_by or {}

    def _copy_for(self, table: str, attr: str) -> Relation:
        then_by = self._then_by.get(f"{table}.{attr}", ())
        copy, seconds = self.db.sorted_copy(table, attr, then_by)
        self.presort_seconds += seconds
        return copy

    def prepare(self, table: str, attrs: list[str]) -> float:
        """Pre-build copies for the given selection attributes; returns the
        build time in seconds (the paper's up-front presorting cost)."""
        before = self.presort_seconds
        for attr in attrs:
            self._copy_for(table, attr)
        return self.presort_seconds - before

    # -- selection over a sorted copy ------------------------------------------------

    def _select_slice(
        self, table: str, predicates, timer: PhaseTimer
    ) -> tuple[Relation, int, int, np.ndarray | None]:
        """Binary-search the best copy; refine the slice with the rest.

        Returns ``(copy, lo, hi, mask)`` — positions ``[lo, hi)`` of the
        copy, with ``mask`` narrowing them when more predicates exist.
        """
        with timer.phase("select"):
            ordered = self.order_by_selectivity(table, list(predicates))
            first = ordered[0]
            copy = self._copy_for(table, first.attr)
            self.recorder.event("index_lookups", 2)
            lo, hi = sorted_range(copy.values(first.attr), first.interval)
            mask: np.ndarray | None = None
            for pred in ordered[1:]:
                segment = copy.values(pred.attr)[lo:hi]
                self.recorder.sequential(len(segment))
                pred_mask = pred.interval.mask(segment)
                mask = pred_mask if mask is None else (mask & pred_mask)
        return copy, lo, hi, mask

    def _execute(self, query: Query, timer: PhaseTimer) -> dict[str, np.ndarray]:
        if not query.conjunctive:
            return self._execute_disjunctive(query, timer)
        copy, lo, hi, mask = self._select_slice(query.table, query.predicates, timer)
        out: dict[str, np.ndarray] = {}
        with timer.phase("reconstruct"):
            for attr in query.needed_columns:
                segment = copy.values(attr)[lo:hi]
                self.recorder.sequential(hi - lo)
                out[attr] = segment[mask] if mask is not None else segment.copy()
        return out

    def _execute_disjunctive(self, query: Query, timer: PhaseTimer) -> dict[str, np.ndarray]:
        """Disjunctions: slice from the least selective copy, scan the rest."""
        ordered = self.order_by_selectivity(query.table, list(query.predicates))
        anchor = ordered[-1]
        copy = self._copy_for(query.table, anchor.attr)
        with timer.phase("select"):
            lo, hi = sorted_range(copy.values(anchor.attr), anchor.interval)
            bits = np.zeros(len(copy), dtype=bool)
            bits[lo:hi] = True
            for pred in ordered[:-1]:
                values = copy.values(pred.attr)
                self.recorder.sequential(len(values) - (hi - lo))
                bits[:lo] |= pred.interval.mask(values[:lo])
                bits[hi:] |= pred.interval.mask(values[hi:])
        out: dict[str, np.ndarray] = {}
        with timer.phase("reconstruct"):
            for attr in query.needed_columns:
                self.recorder.sequential(len(copy))
                out[attr] = copy.values(attr)[bits]
        return out

    def _select_side(self, side: JoinSide, timer: PhaseTimer) -> SideHandle:
        copy, lo, hi, mask = self._select_slice(side.table, side.predicates, timer)
        base = np.arange(lo, hi, dtype=np.int64)
        positions = base[mask] if mask is not None else base

        def fetch(attr: str, subset: np.ndarray | None) -> np.ndarray:
            column = copy.values(attr)
            if subset is None:
                self.recorder.ordered(len(positions), hi - lo)
                return column[positions]
            picked = positions[subset]
            # Random, but confined to the qualifying slice of the copy.
            self.recorder.random(len(picked), hi - lo)
            return column[picked]

        return SideHandle(count=len(positions), fetch=fetch)
