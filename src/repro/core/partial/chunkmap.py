"""Chunk maps ``H_A`` and their areas.

The chunk map stores ``(A, key)`` pairs for the whole snapshot and serves as
the source partial maps fetch chunks from.  Its cracker index partitions it
into *areas*:

* an **unfetched** area may still be cracked inside ``H_A`` (to isolate
  exactly the value range a query needs before fetching it);
* a **fetched** area is frozen in ``H_A`` — cracking it further would break
  the alignment of chunks already created from it — and carries its own
  cracker tape plus the set of partial maps referencing it.  Frozen means
  its rows keep their order too: a Ripple merge into an unfetched area may
  permute the boundary rows of every later piece, so updates routed into
  ``H_A`` name the fetched areas' pieces (:meth:`ChunkMap.fetched_pieces`)
  as frozen, and those only shift whole.  A chunk created later from the
  area's slice then starts from the same rows, in the same order, as the
  chunks created before it.

Area edges are crack boundaries of ``H_A``'s index, so area positions are
always read from the index (they shift automatically when updates grow or
shrink ``H_A``).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from repro.analysis.sanitizer import checkpoint_crack, register_structure
from repro.core.tape import CrackerTape
from repro.cracking.bounds import Bound, Interval, Side
from repro.cracking.crack import crack_bound
from repro.cracking.index import CrackerIndex
from repro.cracking.stochastic import CrackPolicy, policy_rng
from repro.errors import CrackError
from repro.faults.plan import fault_hook
from repro.stats.counters import StatsRecorder, global_recorder
from repro.storage.relation import Relation

_area_ids = itertools.count()


@dataclass
class Area:
    """One value-range area of a chunk map.

    ``lo_bound``/``hi_bound`` are ``H_A`` index boundaries (``None`` at the
    extremes).  ``tape`` and ``refs`` exist only while the area is fetched.
    """

    lo_bound: Bound | None
    hi_bound: Bound | None
    fetched: bool = False
    tape: CrackerTape | None = None
    refs: set[str] = field(default_factory=set)
    area_id: int = field(default_factory=lambda: next(_area_ids))
    pin_count: int = 0
    #: Bounds with a progressive (budgeted) chunk-level crack still in
    #: flight at the area tape's end.
    open_pendings: set[Bound] = field(default_factory=set)

    def overlaps(self, lower: Bound | None, upper: Bound | None) -> bool:
        """Does this area overlap the boundary range ``[lower, upper)``?"""
        if upper is not None and self.lo_bound is not None and upper <= self.lo_bound:
            return False
        if lower is not None and self.hi_bound is not None and self.hi_bound <= lower:
            return False
        return True

    def contains_strictly(self, bound: Bound) -> bool:
        """Is ``bound`` strictly inside this area (not at an edge)?"""
        lo_ok = self.lo_bound is None or self.lo_bound < bound
        hi_ok = self.hi_bound is None or bound < self.hi_bound
        return lo_ok and hi_ok

    def clip(self, interval: Interval) -> tuple[Bound | None, Bound | None]:
        """The interval's bounds that fall strictly inside this area.

        Returns ``(lower, upper)`` where a ``None`` entry means the area edge
        already isolates that side (no chunk-level crack needed).
        """
        lower = interval.lower_bound()
        upper = interval.upper_bound()
        lo = lower if lower is not None and self.contains_strictly(lower) else None
        hi = upper if upper is not None and self.contains_strictly(upper) else None
        return lo, hi


class ChunkMap:
    """The ``(A, key)`` chunk map of one map set."""

    def __init__(
        self,
        relation: Relation,
        head_attr: str,
        snapshot_rows: int,
        recorder: StatsRecorder | None = None,
        excluded_keys: np.ndarray | None = None,
        policy: CrackPolicy | None = None,
        rng: np.random.Generator | None = None,
    ) -> None:
        self.relation = relation
        self.head_attr = head_attr
        self._recorder = recorder or global_recorder()
        self.policy = policy
        self._rng = rng if rng is not None else policy_rng(0, "chunkmap", head_attr)
        self.stochastic_cuts = 0
        self.head: np.ndarray = relation.values(head_attr)[:snapshot_rows].copy()
        self.keys: np.ndarray = np.arange(snapshot_rows, dtype=np.int64)
        if excluded_keys is not None and len(excluded_keys):
            keep = ~np.isin(self.keys, np.asarray(excluded_keys, dtype=np.int64))
            self.head = self.head[keep]
            self.keys = self.keys[keep]
        self.index = CrackerIndex()
        self.areas: list[Area] = [Area(lo_bound=None, hi_bound=None)]
        self._recorder.sequential(2 * snapshot_rows)
        self._recorder.write(2 * snapshot_rows)
        self._recorder.event("map_creations")
        register_structure(self, "chunkmap", f"H_{head_attr}")

    def __len__(self) -> int:
        return len(self.head)

    @property
    def storage_cells(self) -> int:
        return 2 * len(self.head)

    # -- positions -------------------------------------------------------------

    def position_of(self, bound: Bound | None, default: int) -> int:
        if bound is None:
            return default
        pos = self.index.position_of(bound)
        if pos is None:
            raise CrackError(f"area edge {bound} is not an H_A boundary")
        return pos

    def area_positions(self, area: Area) -> tuple[int, int]:
        lo = self.position_of(area.lo_bound, 0)
        hi = self.position_of(area.hi_bound, len(self.head))
        return lo, hi

    def area_size(self, area: Area) -> int:
        lo, hi = self.area_positions(area)
        return hi - lo

    def area_slice(self, area: Area) -> tuple[np.ndarray, np.ndarray]:
        """The frozen ``(A values, keys)`` content of an area."""
        lo, hi = self.area_positions(area)
        fault_hook("chunkmap.fetch", self.head[lo:hi])
        self._recorder.sequential(2 * (hi - lo))
        return self.head[lo:hi], self.keys[lo:hi]

    def fetched_pieces(self) -> list[int]:
        """The ``H_A`` piece of each fetched area (a fetched area holds no
        interior boundary, so it is exactly one piece)."""
        return [
            0 if area.lo_bound is None else self.index.rank_of(area.lo_bound) + 1
            for area in self.areas if area.fetched
        ]

    def area_of_id(self, area_id: int) -> Area:
        for area in self.areas:
            if area.area_id == area_id:
                return area
        raise CrackError(f"no area with id {area_id}")

    # -- covering a predicate ------------------------------------------------------

    def cover(self, interval: Interval, max_area_tuples: int | None = None) -> list[Area]:
        """Fetched areas covering ``interval``, fetching/cracking as needed.

        Boundary predicates falling inside *unfetched* areas crack ``H_A``
        first so only the relevant sub-range is fetched; bounds inside
        *fetched* areas are left to chunk-level cracking.

        ``max_area_tuples`` enables cache-conscious chunk-size enforcement
        (paper §7 future work): an unfetched area about to be fetched is
        first median-split until every resulting area fits the budget, so no
        chunk ever exceeds it.
        """
        lower = interval.lower_bound()
        upper = interval.upper_bound()
        for bound in (lower, upper):
            if bound is None:
                continue
            area = self._unfetched_area_containing(bound)
            if area is not None:
                self._split_unfetched(area, bound)

        out: list[Area] = []
        index = 0
        while index < len(self.areas):
            area = self.areas[index]
            if not area.overlaps(lower, upper):
                index += 1
                continue
            if not area.fetched:
                if self._promote_interior(area):
                    continue  # re-examine the split pieces at this index
                if max_area_tuples is not None and self._median_split(
                    area, max_area_tuples
                ):
                    continue  # re-examine the two halves at this index
                self._fetch(area)
            out.append(area)
            index += 1
        return out

    def _promote_interior(self, area: Area) -> bool:
        """Promote interior index boundaries of an unfetched area to edges.

        Auxiliary (stochastic) cuts are left as plain ``H_A`` boundaries when
        an unfetched area is split (:meth:`_split_unfetched`); only when the
        area is actually about to be *fetched* do they become area edges, so
        a never-queried value range costs no area bookkeeping.  Returns True
        when a promotion split happened (the caller re-examines the pieces).
        """
        interior = [
            bound for bound, _ in self.index.inorder()
            if area.contains_strictly(bound)
        ]
        if not interior:
            return False
        self._replace_area(area, interior)
        return True

    def _median_split(self, area: Area, max_tuples: int) -> bool:
        """Split an oversized unfetched area at its median value.

        Returns True when a split happened (the caller re-examines the
        halves).  Degenerate value distributions (median equal to an edge)
        stop the recursion rather than looping.
        """
        lo, hi = self.area_positions(area)
        if hi - lo <= max_tuples:
            return False
        segment = self.head[lo:hi]
        median = Bound(float(np.median(segment)), Side.LE)
        if not area.contains_strictly(median):
            alt = Bound(float(np.median(segment)), Side.LT)
            if not area.contains_strictly(alt):
                return False
            median = alt
        self._split_unfetched(area, median)
        return True

    def _unfetched_area_containing(self, bound: Bound) -> Area | None:
        for area in self.areas:
            if not area.fetched and area.contains_strictly(bound):
                return area
        return None

    def _split_unfetched(self, area: Area, bound: Bound) -> None:
        """Crack ``H_A`` at ``bound``, splitting an unfetched area.

        A stochastic policy may cut the area in extra places; those auxiliary
        cuts stay *interior* ``H_A`` boundaries of the resulting unfetched
        pieces — they are promoted to area edges lazily, only when a piece is
        about to be fetched (:meth:`_promote_interior`).  Fetched areas
        therefore never contain interior boundaries (the invariant tape
        folding relies on), while never-fetched ranges avoid the area
        bookkeeping entirely.
        """
        cuts: list[Bound] = []
        crack_bound(
            self.index, self.head, [self.keys], bound, self._recorder,
            policy=self.policy, rng=self._rng, cut_sink=cuts,
        )
        self.stochastic_cuts += len(cuts)
        self._replace_area(area, [bound])

    def _replace_area(self, area: Area, edges: list[Bound]) -> None:
        """Split ``area`` at ``edges`` (existing ``H_A`` boundaries)."""
        idx = self.areas.index(area)
        pieces: list[Area] = []
        lo = area.lo_bound
        for edge in sorted(set(edges)):
            pieces.append(Area(lo_bound=lo, hi_bound=edge))
            lo = edge
        pieces.append(Area(lo_bound=lo, hi_bound=area.hi_bound))
        self.areas[idx:idx + 1] = pieces
        checkpoint_crack(self, "chunkmap")

    def _fetch(self, area: Area) -> None:
        area.fetched = True
        area.tape = CrackerTape()
        area.refs = set()
        area.open_pendings = set()

    # -- reference bookkeeping ----------------------------------------------------------

    def add_ref(self, area: Area, map_name: str) -> None:
        area.refs.add(map_name)

    def drop_ref(self, area: Area, map_name: str) -> None:
        """Drop a partial map's reference; unfetch the area when none remain.

        An unfetched area's tape is discarded, but any net updates it carried
        (insert/delete entries) are folded back into ``H_A`` first so no
        primary information is lost.
        """
        area.refs.discard(map_name)
        if area.refs or area.pin_count > 0:
            # Keep the fetched state (and tape) while a query is using the
            # area, even if no chunk currently materializes it.
            return
        self._fold_tape_into_region(area)
        area.fetched = False
        area.tape = None

    def _fold_tape_into_region(self, area: Area) -> None:
        """Materialize an area tape's insert/delete effects into ``H_A``."""
        assert area.tape is not None
        from repro.core.tape import DeleteEntry, InsertEntry

        has_updates = any(
            isinstance(e, (InsertEntry, DeleteEntry)) for e in area.tape.entries
        )
        if not has_updates:
            return
        lo, hi = self.area_positions(area)
        # Accumulate into buffers sized for the worst case (all inserts land,
        # no deletes match) instead of reconcatenating per entry — the old
        # growth loop copied the whole region once per insert entry.
        base = hi - lo
        capacity = base + sum(
            len(e.values) for e in area.tape.entries if isinstance(e, InsertEntry)
        )
        head_acc = np.empty(capacity, dtype=self.head.dtype)
        keys_acc = np.empty(capacity, dtype=self.keys.dtype)
        head_acc[:base] = self.head[lo:hi]
        keys_acc[:base] = self.keys[lo:hi]
        n = base
        for entry in area.tape.entries:
            if isinstance(entry, InsertEntry):
                end = n + len(entry.values)
                head_acc[n:end] = entry.values
                keys_acc[n:end] = entry.keys
                n = end
            elif isinstance(entry, DeleteEntry):
                keep = ~np.isin(keys_acc[:n], entry.keys)
                kept = int(np.count_nonzero(keep))
                head_acc[:kept] = head_acc[:n][keep]
                keys_acc[:kept] = keys_acc[:n][keep]
                n = kept
        delta = n - base
        self.head = np.concatenate([self.head[:lo], head_acc[:n], self.head[hi:]])
        self.keys = np.concatenate([self.keys[:lo], keys_acc[:n], self.keys[hi:]])
        if delta and area.hi_bound is not None:
            # Keyed by the upper edge's rank, not by position ``hi``: the
            # lower edge of an *empty* area sits at ``hi`` too and must stay.
            # (Above the last area there is no boundary to move.)
            self.index.apply_order_shifts(
                [(self.index.rank_of(area.hi_bound), delta)]
            )
        self._recorder.sequential(2 * n)
        self._recorder.write(2 * n)
        checkpoint_crack(self, "chunkmap")

    # -- invariants -------------------------------------------------------------------------

    def check_invariants(self, deep: bool = False) -> None:
        """Run the shared invariant catalog; raises ``InvariantError``."""
        from repro.analysis.invariants import check_or_raise

        check_or_raise(self, "chunkmap", deep=deep)
