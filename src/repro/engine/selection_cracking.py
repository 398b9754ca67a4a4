"""Selection cracking as a full engine (the CIDR'07 baseline).

Selections are fast (cracker columns), but their results are keys in cracked
order — no longer aligned with the base columns — so every tuple
reconstruction degenerates into scattered random lookups over whole base
columns.  This is precisely the cost profile sideways cracking removes.
"""

from __future__ import annotations

import numpy as np

from repro.core.histogram import estimate_result_size
from repro.engine.base import Engine, SideHandle
from repro.engine.operators import random_gather
from repro.engine.query import JoinSide, Query
from repro.stats.timing import PhaseTimer


class SelectionCrackingEngine(Engine):
    """Cracker columns + rel_select refinement + random reconstruction."""

    name = "selection_cracking"

    def _estimate(self, table: str, pred) -> float:
        """Prefer the cracker index histogram, else a sample estimate."""
        cracker = self.db._crackers.get((table, pred.attr))
        if cracker is not None and len(cracker.index):
            values = self.db.table(table).values(pred.attr)
            lo = float(values.min())
            hi = float(values.max())
            return estimate_result_size(
                cracker.index, len(cracker), pred.interval, lo, hi
            ).value
        return self._sample_estimate(table, pred.attr, pred.interval)

    def _select_keys(
        self, table: str, predicates, conjunctive: bool, timer: PhaseTimer
    ) -> np.ndarray:
        relation = self.db.table(table)
        with timer.phase("select"):
            ordered = sorted(
                predicates, key=lambda p: (self._estimate(table, p), p.attr)
            )
            if conjunctive:
                first = ordered[0]
                keys = self.db.cracker_column(table, first.attr).select(first.interval)
                # crackers.rel_select: look the remaining attributes up at
                # the (unordered) keys — scattered access over base columns.
                for pred in ordered[1:]:
                    column = relation.values(pred.attr)
                    values = random_gather(column, keys, self.recorder)
                    keys = keys[pred.interval.mask(values)]
                return keys
            parts = [
                self.db.cracker_column(table, pred.attr).select(pred.interval)
                for pred in ordered
            ]
            self.recorder.sequential(sum(len(p) for p in parts))
            return np.unique(np.concatenate(parts)) if parts else np.empty(0, np.int64)

    def _execute(self, query: Query, timer: PhaseTimer) -> dict[str, np.ndarray]:
        relation = self.db.table(query.table)
        keys = self._select_keys(
            query.table, query.predicates, query.conjunctive, timer
        )
        out: dict[str, np.ndarray] = {}
        with timer.phase("reconstruct"):
            for attr in query.needed_columns:
                out[attr] = random_gather(relation.values(attr), keys, self.recorder)
        return out

    def _select_side(self, side: JoinSide, timer: PhaseTimer) -> SideHandle:
        relation = self.db.table(side.table)
        keys = self._select_keys(side.table, side.predicates, True, timer)

        def fetch(attr: str, subset: np.ndarray | None) -> np.ndarray:
            column = relation.values(attr)
            picked = keys if subset is None else keys[subset]
            return random_gather(column, picked, self.recorder)

        return SideHandle(count=len(keys), fetch=fetch)
