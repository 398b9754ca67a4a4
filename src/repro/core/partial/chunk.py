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

from typing import TYPE_CHECKING, Callable

import numpy as np

from repro.analysis.sanitizer import register_structure
from repro.core.map import CrackedPair
from repro.core.replay import apply_entry
from repro.core.tape import CrackerTape, SortEntry, TapeEntry
from repro.cracking.bounds import Bound, Interval, interval_from_bounds
from repro.cracking.index import CrackerIndex
from repro.cracking.kernels import sort_piece
from repro.cracking.progressive import PendingMap, resolve_area
from repro.errors import AlignmentError
from repro.stats.counters import StatsRecorder

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.partial.storage import ChunkStorage


def no_storage() -> None:
    """The ``storage_ref`` of a map or chunk no storage manager counts."""
    return None


class Chunk(CrackedPair):
    """A chunk of one partial map over one area."""

    kind = "chunk"

    def __init__(
        self,
        area_id: int,
        head: np.ndarray,
        tail: np.ndarray,
        fetch_tail,
        recorder: StatsRecorder | None = None,
    ) -> None:
        super().__init__(head, tail, fetch_tail, recorder)
        self.area_id = area_id
        self.cracks_seen = 0
        self.last_crack_access = 0
        #: Set by :meth:`ChunkStorage.admit`: a weak reference to the manager
        #: counting this chunk, its place in the manager's admission order,
        #: and the footprint the manager currently counts for it.
        self.storage_ref: Callable[[], ChunkStorage | None] = no_storage
        self.storage_seq = -1
        self.counted_cells = 0
        self._recorder.event("chunk_creations")
        register_structure(self, "chunk", f"chunk[area {area_id}]")

    @property
    def head_dropped(self) -> bool:
        return self.head is None

    @property
    def storage_cells(self) -> int:
        return len(self.tail) * (1 if self.head_dropped else 2)

    def touch(self) -> None:
        self.accesses += 1

    def _resized(self) -> None:
        """Report a footprint change to the storage manager counting us."""
        storage = self.storage_ref()
        if storage is not None:
            storage.recount(self)

    def replay_entry(self, entry: TapeEntry) -> None:
        """:meth:`CrackedPair.replay_entry`; insert and delete entries
        resize the chunk, which the storage manager must hear about."""
        before = len(self.tail)
        super().replay_entry(entry)
        if len(self.tail) != before:
            self._resized()

    # -- cracking ---------------------------------------------------------------

    def crack(self, interval: Interval, *args, **kwargs) -> tuple[int, int]:
        """:meth:`CrackedPair.crack` on the (clipped) head predicate; needs
        the head column and feeds the head-drop statistics."""
        if self.head is None:
            raise AlignmentError("chunk head was dropped; recover it before cracking")
        self.cracks_seen += 1
        self.last_crack_access = self.accesses
        return super().crack(interval, *args, **kwargs)

    def bounds_present(self, bounds: list[Bound]) -> bool:
        return all(self.index.position_of(b) is not None for b in bounds)

    def window_between(
        self, lower: Bound | None, upper: Bound | None
    ) -> tuple[int, int, list[tuple[int, int]]]:
        """The certain qualifying window between two bounds, plus holes.

        Budget-tolerant: a bound still in flight (or skipped entirely)
        contributes the largest certain window and an uncertainty hole
        instead of raising.
        """
        clipped = interval_from_bounds(lower, upper)
        return resolve_area(self.index, len(self.tail), clipped, self.pending_cracks)

    # -- head dropping & recovery -----------------------------------------------------------

    def drop_head(self) -> None:
        self.head = None
        self._resized()

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
            head, _ = apply_entry(
                index, head, (), pending, tape[i], (), self._recorder
            )
        if len(head) != len(self.tail):
            raise AlignmentError("recovered head does not match tail length")
        self.head = head
        self.index = index
        self.pending_cracks = pending
        self._resized()
