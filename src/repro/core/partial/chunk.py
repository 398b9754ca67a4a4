"""One materialized chunk of a partial map.

A chunk is a self-contained two-column table over one fetched chunk-map
area: head values of the set's attribute, tail values of the map's
attribute, a *local* cracker index (positions relative to the chunk), and a
cursor into the area's tape.

Head dropping (Section 4.1): the head column may be discarded to halve the
chunk's footprint, at the cost of losing the ability to crack.  When a later
query does need to crack, the head is *recovered* — preferably from a
sibling chunk of the same area that still holds one and is not aligned past
this chunk, else from the chunk map — by replaying the tape on the head
alone.  Every tape event's permutation is a function of head values only
(stable kernels), so head-only replay reproduces the exact permutation this
chunk's tail went through.
"""

from __future__ import annotations

import numpy as np

from repro.core.tape import (
    CrackEntry,
    CrackerTape,
    DeleteEntry,
    InsertEntry,
    ProgressiveCrackEntry,
    SortEntry,
    TapeEntry,
)
from repro.analysis.sanitizer import checkpoint_crack, register_structure
from repro.cracking.bounds import Bound, Interval, interval_from_bounds
from repro.cracking.crack import crack_into
from repro.cracking.index import CrackerIndex
from repro.cracking.kernels import sort_piece
from repro.cracking.progressive import (
    CrackProgress,
    PendingMap,
    replay_progressive,
    resolve_area,
)
from repro.cracking.ripple import delete_positions, merge_insertions
from repro.cracking.stochastic import CrackPolicy
from repro.errors import AlignmentError
from repro.stats.counters import StatsRecorder, global_recorder


class Chunk:
    """A chunk of one partial map over one area."""

    def __init__(
        self,
        area_id: int,
        head: np.ndarray,
        tail: np.ndarray,
        fetch_tail,
        recorder: StatsRecorder | None = None,
    ) -> None:
        self.area_id = area_id
        self.head: np.ndarray | None = head
        self.tail = tail
        self.index = CrackerIndex()
        self.cursor = 0
        self.accesses = 0
        self.cracks_seen = 0
        self.last_crack_access = 0
        self.pending_cracks: PendingMap = {}
        self._fetch_tail = fetch_tail
        self._recorder = recorder or global_recorder()
        self._recorder.event("chunk_creations")
        register_structure(self, "chunk", f"chunk[area {area_id}]")

    def __len__(self) -> int:
        return len(self.tail)

    @property
    def head_dropped(self) -> bool:
        return self.head is None

    @property
    def storage_cells(self) -> int:
        return len(self.tail) * (1 if self.head_dropped else 2)

    def touch(self) -> None:
        self.accesses += 1

    # -- cracking ---------------------------------------------------------------

    def crack(
        self,
        interval: Interval,
        policy: CrackPolicy | None = None,
        rng: np.random.Generator | None = None,
        cut_sink: list[Bound] | None = None,
        progress: CrackProgress | None = None,
    ) -> tuple[int, int]:
        """Crack on the (clipped) head predicate; needs the head column.

        A stochastic ``policy`` may add auxiliary cuts (reported through
        ``cut_sink``); a ``progress`` context makes the crack budget-aware.
        Replay and head recovery never pass either.
        """
        if self.head is None:
            raise AlignmentError("chunk head was dropped; recover it before cracking")
        self.cracks_seen += 1
        self.last_crack_access = self.accesses
        area = crack_into(
            self.index, self.head, [self.tail], interval, self._recorder,
            policy=policy, rng=rng, cut_sink=cut_sink, progress=progress,
        )
        checkpoint_crack(self, "chunk")
        return area

    def bounds_present(self, bounds: list[Bound]) -> bool:
        return all(self.index.position_of(b) is not None for b in bounds)

    def area_between(self, lower: Bound | None, upper: Bound | None) -> tuple[int, int]:
        """Positions of the qualifying slice between two existing boundaries."""
        lo = 0 if lower is None else self.index.position_of(lower)
        hi = len(self.tail) if upper is None else self.index.position_of(upper)
        if lo is None or hi is None:
            raise AlignmentError("requested slice bounds are not chunk boundaries")
        return lo, hi

    def window_between(
        self, lower: Bound | None, upper: Bound | None
    ) -> tuple[int, int, list[tuple[int, int]]]:
        """The certain qualifying window between two bounds, plus holes.

        The budget-tolerant twin of :meth:`area_between`: a bound still in
        flight (or skipped entirely) contributes the largest certain window
        and an uncertainty hole instead of raising.
        """
        clipped = interval_from_bounds(lower, upper)
        return resolve_area(self.index, len(self.tail), clipped, self.pending_cracks)

    # -- tape replay -------------------------------------------------------------------

    def replay_entry(self, entry: TapeEntry) -> None:
        """Apply one area-tape entry; delete entries must carry positions."""
        if self.head is None:
            raise AlignmentError("cannot replay tape entries on a head-dropped chunk")
        self._recorder.event("alignment_replays")
        if isinstance(entry, CrackEntry):
            crack_into(
                self.index, self.head, [self.tail], entry.interval, self._recorder,
                progress=(
                    CrackProgress(self.pending_cracks) if self.pending_cracks else None
                ),
            )
        elif isinstance(entry, ProgressiveCrackEntry):
            replay_progressive(
                self.index, self.head, [self.tail], self.pending_cracks,
                entry.bound, entry.step, self._recorder,
            )
        elif isinstance(entry, InsertEntry):
            if self.pending_cracks:
                raise AlignmentError(
                    "insert entry replayed with in-flight progressive cracks"
                )
            tail_values = self._fetch_tail(entry.keys)
            self.head, tails = merge_insertions(
                self.index, self.head, [self.tail], entry.values, [tail_values],
                self._recorder,
            )
            self.tail = tails[0]
        elif isinstance(entry, DeleteEntry):
            if entry.positions is None:
                raise AlignmentError("delete entry has no located positions")
            self.head, tails = delete_positions(
                self.index, self.head, [self.tail], entry.positions, self._recorder
            )
            self.tail = tails[0]
        elif isinstance(entry, SortEntry):
            lo = 0 if entry.lo_bound is None else self.index.position_of(entry.lo_bound)
            hi = (
                len(self.tail)
                if entry.hi_bound is None
                else self.index.position_of(entry.hi_bound)
            )
            if lo is None or hi is None:
                raise AlignmentError("sort entry references unknown piece bounds")
            sort_piece(self.head, [self.tail], lo, hi)
            self._recorder.sequential(2 * (hi - lo))
            self._recorder.write(2 * (hi - lo))
        else:  # pragma: no cover
            raise AlignmentError(f"unknown tape entry {entry!r}")
        self.cursor += 1

    # -- head dropping & recovery -----------------------------------------------------------

    def drop_head(self) -> None:
        self.head = None

    def sort_all_pieces(self, tape: CrackerTape) -> None:
        """Stable-sort every piece, logging :class:`SortEntry` events.

        Called before a cache-fitting head drop so future cracks of the
        (recovered) head are binary-search cheap; logging keeps siblings
        aligned.  The chunk must be aligned to the tape end.
        """
        if self.head is None:
            raise AlignmentError("cannot sort pieces without a head")
        if self.cursor != len(tape):
            raise AlignmentError("sort_all_pieces requires full alignment first")
        if self.pending_cracks:
            raise AlignmentError(
                "cannot sort pieces with progressive cracks in flight"
            )
        for piece in list(self.index.pieces(len(self.tail))):
            if piece.size <= 1:
                continue
            tape.append(SortEntry(piece.lo_bound, piece.hi_bound))
            sort_piece(self.head, [self.tail], piece.lo_pos, piece.hi_pos)
            self._recorder.sequential(2 * piece.size)
            self._recorder.write(2 * piece.size)
            self.cursor += 1

    def recover_head(
        self,
        tape: CrackerTape,
        source_head: np.ndarray,
        source_index: CrackerIndex,
        source_cursor: int,
        source_pending: PendingMap | None = None,
    ) -> None:
        """Rebuild the dropped head from a source state at ``source_cursor``.

        The source is either a sibling chunk's head (``source_cursor`` =
        sibling's cursor, must be ``<= self.cursor``; ``source_pending`` its
        in-flight crack state) or the chunk map's frozen area slice
        (``source_cursor == 0``, no pendings).  Entries between the two
        cursors are replayed on the head alone; every kernel's permutation
        depends only on head values, so the rebuilt head lands exactly
        aligned with this chunk's tail — and the evolved pending map is
        exactly this chunk's in-flight state.
        """
        if source_cursor > self.cursor:
            raise AlignmentError(
                "head recovery source is aligned past this chunk"
            )
        head = source_head.copy()
        index = source_index.clone()
        pending: PendingMap = {
            b: p.clone() for b, p in (source_pending or {}).items()
        }
        self._recorder.sequential(len(head))
        self._recorder.write(len(head))
        for i in range(source_cursor, self.cursor):
            entry = tape[i]
            if isinstance(entry, CrackEntry):
                crack_into(
                    index, head, [], entry.interval, self._recorder,
                    progress=CrackProgress(pending) if pending else None,
                )
            elif isinstance(entry, ProgressiveCrackEntry):
                replay_progressive(
                    index, head, [], pending, entry.bound, entry.step,
                    self._recorder,
                )
            elif isinstance(entry, InsertEntry):
                head, _ = merge_insertions(
                    index, head, [], entry.values, [], self._recorder
                )
            elif isinstance(entry, DeleteEntry):
                if entry.positions is None:
                    raise AlignmentError("delete entry has no located positions")
                head, _ = delete_positions(index, head, [], entry.positions, self._recorder)
            elif isinstance(entry, SortEntry):
                lo = 0 if entry.lo_bound is None else index.position_of(entry.lo_bound)
                hi = len(head) if entry.hi_bound is None else index.position_of(entry.hi_bound)
                if lo is None or hi is None:
                    raise AlignmentError("sort entry references unknown piece bounds")
                sort_piece(head, [], lo, hi)
        if len(head) != len(self.tail):
            raise AlignmentError("recovered head does not match tail length")
        self.head = head
        self.index = index
        self.pending_cracks = pending

    # -- invariants ------------------------------------------------------------------------------

    def check_invariants(self, deep: bool = False) -> None:
        """Run the shared invariant catalog; raises ``InvariantError``."""
        from repro.analysis.invariants import check_or_raise

        check_or_raise(self, "chunk", deep=deep)
