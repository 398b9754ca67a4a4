"""A minimal N-ary row-store reference ("MySQL" in Fig. 14).

Rows live in a NumPy structured array; every scan pays for full tuple width
regardless of how many attributes a query touches — the cost profile the
column-store architecture exists to avoid.  A presorted variant keeps one
row array per selection attribute, sorted, and answers range selections with
a binary search plus a contiguous row-range scan.
"""

from __future__ import annotations

import numpy as np

from repro.engine.base import Engine, SideHandle
from repro.engine.presorted import sorted_range
from repro.engine.query import JoinSide, Query
from repro.stats.timing import PhaseTimer
from repro.storage.relation import Relation


def _as_struct(relation: Relation) -> np.ndarray:
    dtype = [(attr, relation.column(attr).values.dtype) for attr in relation.attributes]
    out = np.empty(len(relation), dtype=dtype)
    for attr in relation.attributes:
        out[attr] = relation.values(attr)
    return out


class RowStoreEngine(Engine):
    """Tuple-at-a-time row store, optionally with presorted row copies.

    Rows follow updates: the unsorted rows are built from the live relation
    on every call, and each presorted row array is built from the
    database's sorted copy, which updates mark stale.
    """

    def __init__(self, db, presorted: bool = False) -> None:
        super().__init__(db)
        self.presorted = presorted
        self.name = "rowstore_presorted" if presorted else "rowstore"
        self._sorted_rows: dict[tuple[str, str], tuple[Relation, np.ndarray]] = {}

    def _sorted_row_array(self, table: str, attr: str) -> np.ndarray:
        copy, seconds = self.db.sorted_copy(table, attr)
        self.presort_seconds += seconds
        cached = self._sorted_rows.get((table, attr))
        if cached is None or cached[0] is not copy:
            cached = (copy, _as_struct(copy))
            self._sorted_rows[(table, attr)] = cached
        return cached[1]

    def _width(self, table: str) -> int:
        return len(self.db.table(table).attributes)

    def _select_rows(
        self, table: str, predicates, conjunctive: bool, timer: PhaseTimer
    ) -> np.ndarray:
        width = self._width(table)
        live = ~self.db.tombstones(table)
        with timer.phase("select"):
            if self.presorted and predicates and conjunctive:
                ordered = self.order_by_selectivity(table, list(predicates))
                first = ordered[0]
                rows = self._sorted_row_array(table, first.attr)
                self.recorder.event("index_lookups", 2)
                lo, hi = sorted_range(rows[first.attr], first.interval)
                segment = rows[lo:hi]
                self.recorder.sequential((hi - lo) * width)
                mask = np.ones(hi - lo, dtype=bool)
                for pred in ordered[1:]:
                    mask &= pred.interval.mask(segment[pred.attr])
                return segment[mask]
            rows = _as_struct(self.db.table(table))
            self.recorder.sequential(len(rows) * width)
            if not predicates:
                return rows[live]
            masks = [p.interval.mask(rows[p.attr]) for p in predicates]
            mask = np.logical_and.reduce(masks) if conjunctive else np.logical_or.reduce(masks)
            mask &= live
            return rows[mask]

    def _read_table(self, query: Query, timer: PhaseTimer) -> dict[str, np.ndarray]:
        # A row store reads whole rows even without a predicate.
        return self._execute(query, timer)

    def _execute(self, query: Query, timer: PhaseTimer) -> dict[str, np.ndarray]:
        rows = self._select_rows(
            query.table, query.predicates, query.conjunctive, timer
        )
        with timer.phase("reconstruct"):
            # Rows already carry every attribute; projection is free.
            return {attr: rows[attr].copy() for attr in query.needed_columns}

    def _select_side(self, side: JoinSide, timer: PhaseTimer) -> SideHandle:
        rows = self._select_rows(side.table, side.predicates, True, timer)
        width = self._width(side.table)
        recorder = self.recorder

        def fetch(attr: str, subset: np.ndarray | None) -> np.ndarray:
            if subset is None:
                recorder.sequential(len(rows))
                return rows[attr].copy()
            recorder.random(len(subset) * width, max(1, len(rows) * width))
            return rows[subset][attr]

        return SideHandle(count=len(rows), fetch=fetch)
