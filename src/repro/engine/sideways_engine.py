"""Sideways cracking as an engine (full maps or partial maps).

Wraps :class:`~repro.core.sideways.SidewaysCracker` /
:class:`~repro.core.partial.engine.PartialSidewaysCracker` behind the common
engine interface so benchmarks can swap systems freely.
"""

from __future__ import annotations

import numpy as np

from repro.core.bitvector import BitVector
from repro.engine.base import Engine, SideHandle
from repro.engine.query import JoinSide, Query
from repro.stats.timing import PhaseTimer


class SidewaysEngine(Engine):
    """Sideways cracking engine; ``partial=True`` uses partial maps."""

    def __init__(self, db, partial: bool = False) -> None:
        super().__init__(db)
        self.partial = partial
        self.name = "partial_sideways" if partial else "sideways"

    def _facade(self, table: str):
        if self.partial:
            return self.db.partial_sideways(table)
        return self.db.sideways(table)

    def _execute(self, query: Query, timer: PhaseTimer) -> dict[str, np.ndarray]:
        facade = self._facade(query.table)
        predicates = query.predicate_map
        needed = list(query.needed_columns)
        if len(predicates) == 1 and not self.partial:
            # The first map access carries the selection work; the remaining
            # maps are pure tuple reconstruction (they reuse the aligned
            # cracks), mirroring the paper's Sel/TR cost split.  Full maps
            # align to the tape's end, so the two calls agree on the row
            # order; partial alignment only reaches the highest cursor among
            # one call's chunks, so partial maps answer in one call.
            (attr, interval), = predicates.items()
            out: dict[str, np.ndarray] = {}
            with timer.phase("select"):
                out.update(facade.select_project(attr, interval, needed[:1]))
            if len(needed) > 1:
                with timer.phase("reconstruct"):
                    out.update(facade.select_project(attr, interval, needed[1:]))
            return out
        with timer.phase("select"):
            return facade.query(predicates, needed, conjunctive=query.conjunctive)

    # -- join sides -------------------------------------------------------------------

    def _select_side(self, side: JoinSide, timer: PhaseTimer) -> SideHandle:
        if self.partial:
            return self._select_side_partial(side, timer)
        return self._select_side_full(side, timer)

    def _select_side_full(self, side: JoinSide, timer: PhaseTimer) -> SideHandle:
        """Full maps: keep candidates as positions inside the aligned area
        ``w`` so post-join reconstruction stays clustered."""
        facade = self._facade(side.table)
        predicates = side.predicate_map
        with timer.phase("select"):
            head = facade.choose_head(predicates, conjunctive=True)
            mapset = facade.set_for(head)
            head_interval = predicates[head]
            others = [(a, iv) for a, iv in predicates.items() if a != head]
            bv: BitVector | None = None
            area: tuple[int, int] | None = None
            for attr, iv in others:
                cmap, lo, hi = mapset.select(attr, head_interval)
                area = (lo, hi)
                self.recorder.sequential(hi - lo)
                mask = iv.mask(cmap.tail[lo:hi])
                if bv is None:
                    bv = BitVector.from_mask(mask)
                else:
                    bv.refine_and(mask)
            if area is None:
                # Single predicate: crack via any needed map (join attr).
                cmap, lo, hi = mapset.select(side.join_attr, head_interval)
                area = (lo, hi)
            w_lo, w_hi = area
            if bv is not None:
                candidates = w_lo + bv.positions()
            else:
                candidates = np.arange(w_lo, w_hi, dtype=np.int64)

        recorder = self.recorder

        def fetch(attr: str, subset: np.ndarray | None) -> np.ndarray:
            cmap, lo, hi = mapset.select(attr, head_interval)
            picked = candidates if subset is None else candidates[subset]
            if subset is None:
                recorder.ordered(len(picked), hi - lo)
            else:
                # Random, but confined to the clustered area w.
                recorder.random(len(picked), hi - lo)
            return cmap.tail[picked]

        return SideHandle(count=len(candidates), fetch=fetch)

    def _select_side_partial(self, side: JoinSide, timer: PhaseTimer) -> SideHandle:
        """Partial maps: chunk-wise evaluation materializes the candidate
        columns; post-join fetches then index those small arrays."""
        facade = self._facade(side.table)
        predicates = side.predicate_map
        needed = [side.join_attr] + [
            a for a in side.post_join_columns if a != side.join_attr
        ]
        with timer.phase("select"):
            if len(predicates) == 1:
                (attr, interval), = predicates.items()
                columns = facade.select_project(attr, interval, needed)
            else:
                columns = facade.query(predicates, needed, conjunctive=True)
        count = len(columns[side.join_attr])
        recorder = self.recorder

        def fetch(attr: str, subset: np.ndarray | None) -> np.ndarray:
            values = columns[attr]
            if subset is None:
                recorder.sequential(len(values))
                return values
            recorder.random(len(subset), max(1, len(values)))
            return values[subset]

        return SideHandle(count=count, fetch=fetch)
