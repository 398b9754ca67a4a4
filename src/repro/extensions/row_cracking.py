"""Row-store cracking (paper §7: "a fully unexplored and promising area").

The straightforward transplant of database cracking to an N-ary store:
keep one array of whole tuples per cracked attribute and physically
reorganize *entire rows* on each range selection.  Selections then return a
contiguous row slice with every attribute already in place — tuple
reconstruction disappears entirely.

The trade-off this makes measurable: every crack moves ``width×`` more
bytes than a column crack, but multi-attribute queries read nothing beyond
the qualifying slice.  The extension benchmark compares it against
column-wise sideways cracking as the number of projected attributes grows —
the same early/late materialization tension the paper's introduction opens
with, now inside the cracking world.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.sanitizer import checkpoint_crack, register_structure
from repro.cracking.bounds import Interval
from repro.cracking.index import CrackerIndex
from repro.errors import CrackError
from repro.stats.counters import StatsRecorder, global_recorder
from repro.storage.relation import Relation


class RowCracker:
    """A cracked N-ary copy of a relation, organized on one attribute."""

    def __init__(
        self,
        relation: Relation,
        crack_attr: str,
        recorder: StatsRecorder | None = None,
    ) -> None:
        self.crack_attr = crack_attr
        self.attributes = list(relation.attributes)
        self.width = len(self.attributes)
        self._recorder = recorder or global_recorder()
        dtype = [("@key", np.int64)] + [
            (attr, relation.column(attr).values.dtype) for attr in self.attributes
        ]
        self.rows = np.empty(len(relation), dtype=dtype)
        self.rows["@key"] = np.arange(len(relation), dtype=np.int64)
        for attr in self.attributes:
            self.rows[attr] = relation.values(attr)
        self.index = CrackerIndex()
        # Creating the row copy touches every cell once (read + write).
        cells = len(relation) * (self.width + 1)
        self._recorder.sequential(cells)
        self._recorder.write(cells)
        register_structure(self, "rowstore", f"rowstore[{crack_attr}]")

    def __len__(self) -> int:
        return len(self.rows)

    # -- cracking ------------------------------------------------------------------

    def _head(self) -> np.ndarray:
        return self.rows[self.crack_attr]

    def crack(self, interval: Interval) -> tuple[int, int]:
        """Crack whole rows on the organizing attribute; returns ``[lo, hi)``.

        Row movement is ``width×`` a column crack — that is the point this
        extension makes measurable.
        """
        n = len(self.rows)
        lower = interval.lower_bound()
        upper = interval.upper_bound()
        w_lo, w_hi = 0, n
        if lower is not None and upper is not None:
            lo_pos = self.index.position_of(lower)
            hi_pos = self.index.position_of(upper)
            if lo_pos is None and hi_pos is None:
                piece_l = self.index.enclosing(lower, n)
                piece_u = self.index.enclosing(upper, n)
                if piece_l == piece_u:
                    p1, p2 = self._partition3(piece_l, lower, upper)
                    self.index.insert(lower, p1)
                    self.index.insert(upper, p2)
                    return p1, p2
        if lower is not None:
            w_lo = self._ensure_bound(lower)
        if upper is not None:
            w_hi = self._ensure_bound(upper)
        return w_lo, w_hi

    def _ensure_bound(self, bound) -> int:
        pos = self.index.position_of(bound)
        if pos is not None:
            return pos
        lo, hi = self.index.enclosing(bound, len(self.rows))
        segment = self.rows[lo:hi]
        below = bound.below_mask(segment[self.crack_attr])
        split = lo + int(below.sum())
        order = np.concatenate([np.flatnonzero(below), np.flatnonzero(~below)])
        self.rows[lo:hi] = segment[order]
        self._account(hi - lo)
        self.index.insert(bound, split)
        return split

    def _partition3(self, piece, lower, upper) -> tuple[int, int]:
        lo, hi = piece
        segment = self.rows[lo:hi]
        values = segment[self.crack_attr]
        below_low = lower.below_mask(values)
        below_high = upper.below_mask(values)
        mid = below_high & ~below_low
        high = ~below_high
        order = np.concatenate(
            [np.flatnonzero(below_low), np.flatnonzero(mid), np.flatnonzero(high)]
        )
        self.rows[lo:hi] = segment[order]
        self._account(hi - lo)
        p1 = lo + int(below_low.sum())
        p2 = p1 + int(mid.sum())
        return p1, p2

    def _account(self, rows_moved: int) -> None:
        cells = rows_moved * (self.width + 1)
        self._recorder.sequential(cells)
        self._recorder.write(cells)
        self._recorder.event("cracks")
        checkpoint_crack(self, "rowstore")

    # -- querying ------------------------------------------------------------------------

    def select(
        self, interval: Interval, projections: list[str]
    ) -> dict[str, np.ndarray]:
        """Qualifying rows' attributes — a contiguous slice, zero TR."""
        if any(attr not in self.attributes for attr in projections):
            raise CrackError(f"unknown projection among {projections}")
        lo, hi = self.crack(interval)
        # Row stores read full tuple width regardless of projections.
        self._recorder.sequential((hi - lo) * (self.width + 1))
        segment = self.rows[lo:hi]
        return {attr: segment[attr].copy() for attr in projections}

    def select_keys(self, interval: Interval) -> np.ndarray:
        lo, hi = self.crack(interval)
        self._recorder.sequential((hi - lo) * (self.width + 1))
        return self.rows["@key"][lo:hi].copy()

    # -- invariants -------------------------------------------------------------------------

    def check_invariants(self, deep: bool = False) -> None:
        """Run the shared invariant catalog; raises ``InvariantError``."""
        from repro.analysis.invariants import check_or_raise

        check_or_raise(self, "rowstore", deep=deep)
