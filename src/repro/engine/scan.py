"""The plain column-store baseline ("MonetDB" in the figures).

Selections scan whole base columns; because base columns keep insertion
order, the qualifying positions come out ordered and every tuple
reconstruction is an in-order positional lookup — cache friendly, but always
over the *whole* column.
"""

from __future__ import annotations

import numpy as np

from repro.engine.base import Engine, SideHandle
from repro.engine.operators import ordered_gather, scan_select
from repro.engine.query import JoinSide, Query
from repro.stats.timing import PhaseTimer


class PlainEngine(Engine):
    """Non-cracking column-store: full scans + ordered positional lookups."""

    name = "monetdb"

    def _live_mask(self, table: str) -> np.ndarray | None:
        tombstones = self.db.tombstones(table)
        return None if not tombstones.any() else ~tombstones

    def _select_positions(
        self, table: str, predicates, conjunctive: bool, timer: PhaseTimer
    ) -> np.ndarray:
        relation = self.db.table(table)
        live = self._live_mask(table)
        with timer.phase("select"):
            ordered = self.order_by_selectivity(table, list(predicates))
            if conjunctive:
                first = ordered[0]
                values = relation.values(first.attr)
                mask = first.interval.mask(values)
                if live is not None:
                    mask &= live
                positions = scan_select(values, mask, self.recorder)
                # rel_select-style refinement: ordered positional lookups.
                for pred in ordered[1:]:
                    column = relation.values(pred.attr)
                    looked_up = ordered_gather(column, positions, self.recorder)
                    positions = positions[pred.interval.mask(looked_up)]
                return positions
            mask = np.zeros(len(relation), dtype=bool)
            for pred in ordered:
                values = relation.values(pred.attr)
                self.recorder.sequential(len(values))
                mask |= pred.interval.mask(values)
            if live is not None:
                mask &= live
            return np.flatnonzero(mask)

    def _execute(self, query: Query, timer: PhaseTimer) -> dict[str, np.ndarray]:
        relation = self.db.table(query.table)
        positions = self._select_positions(
            query.table, query.predicates, query.conjunctive, timer
        )
        out: dict[str, np.ndarray] = {}
        with timer.phase("reconstruct"):
            for attr in query.needed_columns:
                out[attr] = ordered_gather(
                    relation.values(attr), positions, self.recorder
                )
        return out

    def _select_side(self, side: JoinSide, timer: PhaseTimer) -> SideHandle:
        relation = self.db.table(side.table)
        positions = self._select_positions(side.table, side.predicates, True, timer)

        def fetch(attr: str, subset: np.ndarray | None) -> np.ndarray:
            column = relation.values(attr)
            if subset is None:
                return ordered_gather(column, positions, self.recorder)
            # Join output order is arbitrary: scattered lookups over the
            # whole base column.
            picked = positions[subset]
            self.recorder.random(len(picked), len(column))
            return column[picked]

        return SideHandle(count=len(positions), fetch=fetch)
