"""The chunk storage manager.

Chunks are auxiliary: any one can be dropped at any time without losing
primary information.  The manager enforces a tuple budget across all partial
maps of a database, evicting the least-frequently-accessed unpinned chunk
when room is needed (the paper drops "based on how often queries access
them"); ties go to the map registered first, then to the chunk created
first.  When everything is pinned it overshoots rather than fails.  Chunk
maps never count against the budget — the paper's thresholds are expressed
in map tuples (T=2M = "two full maps"), with the chunk map treated as
backbone.

That policy is the paper's; its bookkeeping is incremental.  The manager
keeps an exact running cell count, moved at every point a chunk's footprint
changes (creation, drop, head drop and recovery, replayed insert/delete
entries), and a min-heap of victim candidates keyed ``(accesses, map
registration sequence, chunk admission sequence)``, so an eviction costs
O(log n) and a fitting request costs nothing.  The heap is lazy: touching a
chunk does not reorder it, an entry whose access count has fallen behind is
re-queued when it surfaces, and entries of dropped chunks are discarded
there.  Entries hold ids, never the chunk, so an evicted chunk's arrays are
freed at once.
"""

from __future__ import annotations

import itertools
import weakref
from heapq import heappop, heappush

from repro.core.partial.chunk import Chunk, no_storage
from repro.core.partial.partial_map import PartialMap
from repro.stats.counters import StatsRecorder, global_recorder

#: A victim candidate: ``(accesses, map sequence, chunk sequence, area id)``.
_Entry = tuple[int, int, int, int]


class ChunkStorage:
    """Budgeted chunk bookkeeping with LFU eviction."""

    def __init__(
        self,
        budget_tuples: int | None,
        recorder: StatsRecorder | None = None,
    ) -> None:
        self.budget_tuples = budget_tuples
        self._recorder = recorder or global_recorder()
        #: Registration sequence -> map; dict order is registration order.
        self._maps: dict[int, PartialMap] = {}
        self._seq = itertools.count()
        self._cells = 0
        self._queue: list[_Entry] = []
        self._pinned: set[tuple[PartialMap, int]] = set()
        # Maps and chunks point back weakly: a strong reference would close
        # a storage -> map -> chunk -> storage cycle and leave a discarded
        # database's chunk arrays to the cyclic collector.
        self._ref = weakref.ref(self)

    # -- registration -----------------------------------------------------------

    @property
    def maps(self) -> list[PartialMap]:
        """The registered maps, in registration order."""
        return list(self._maps.values())

    def register_map(self, pmap: PartialMap) -> None:
        if self._maps.get(pmap.storage_seq) is pmap:
            return
        pmap.storage_ref = self._ref
        pmap.storage_seq = next(self._seq)
        self._maps[pmap.storage_seq] = pmap
        for chunk in pmap.chunks.values():
            self.admit(pmap, chunk)

    def unregister_map(self, pmap: PartialMap) -> None:
        """Forget a partial map (fault rollback or quarantine healing)."""
        if self._maps.get(pmap.storage_seq) is pmap:
            del self._maps[pmap.storage_seq]
            pmap.storage_ref = no_storage
            for chunk in pmap.chunks.values():
                self.release(chunk)
        self._pinned = {(m, aid) for m, aid in self._pinned if m is not pmap}

    # -- accounting -------------------------------------------------------------------

    @property
    def used_cells(self) -> int:
        return self._cells

    @property
    def used_tuples(self) -> float:
        """Budget usage in map tuples (one tuple = a head/tail cell pair)."""
        return self._cells / 2

    def admit(self, pmap: PartialMap, chunk: Chunk) -> None:
        """Start counting a chunk that just entered ``pmap.chunks``."""
        chunk.storage_ref = self._ref
        chunk.storage_seq = next(self._seq)
        self.recount(chunk)
        heappush(
            self._queue,
            (chunk.accesses, pmap.storage_seq, chunk.storage_seq, chunk.area_id),
        )

    def release(self, chunk: Chunk) -> None:
        """Stop counting a chunk that just left its map."""
        self._cells -= chunk.counted_cells
        chunk.counted_cells = 0
        chunk.storage_ref = no_storage

    def recount(self, chunk: Chunk) -> None:
        """Follow a change of one counted chunk's footprint."""
        cells = chunk.storage_cells
        self._cells += cells - chunk.counted_cells
        chunk.counted_cells = cells

    def resync(self) -> None:
        """Rebuild count and queue from the registered maps' chunk dicts.

        For code that rewrites ``pmap.chunks`` and the chunks' arrays and
        access counts wholesale (the journal's rollback); the chunks are
        re-admitted in dict iteration order, which is the order ties break
        in from then on.
        """
        self._cells = 0
        self._queue = []
        for pmap in self._maps.values():
            for chunk in pmap.chunks.values():
                chunk.counted_cells = 0
                self.admit(pmap, chunk)

    # -- pinning ------------------------------------------------------------------------

    def pin(self, pmap: PartialMap, area_id: int) -> None:
        self._pinned.add((pmap, area_id))

    def is_pinned(self, pmap: PartialMap, area_id: int) -> bool:
        return (pmap, area_id) in self._pinned

    def unpin_all(self) -> None:
        self._pinned.clear()

    # -- eviction -----------------------------------------------------------------------

    def ensure_room(self, new_tuples: int) -> None:
        """Evict least-frequently-accessed unpinned chunks until it fits."""
        if self.budget_tuples is None:
            return
        skipped: list[_Entry] = []
        try:
            while self.used_tuples + new_tuples > self.budget_tuples:
                victim = self._pop_victim(self._queue, skipped)
                if victim is None:
                    return  # nothing evictable; allow overshoot rather than fail
                pmap, area_id = victim
                pmap.drop_chunk(area_id)
        finally:
            for entry in skipped:
                heappush(self._queue, entry)

    def peek_victim(self) -> tuple[PartialMap, int] | None:
        """The ``(map, area id)`` the next eviction would drop, if any."""
        return self._pop_victim(list(self._queue), [])

    def _pop_victim(
        self, queue: list[_Entry], skipped: list[_Entry]
    ) -> tuple[PartialMap, int] | None:
        """Pop ``queue`` down to its first live, current, unpinned entry.

        Access counts only grow between resyncs, so a queued key never
        exceeds its chunk's true key and the first entry that surfaces with
        a current key is the true minimum.  Entries of pinned chunks are
        moved to ``skipped`` — the caller pushes them back, so a pinned
        chunk keeps its place.
        """
        while queue:
            entry = heappop(queue)
            accesses, map_seq, chunk_seq, area_id = entry
            pmap = self._maps.get(map_seq)
            chunk = None if pmap is None else pmap.chunks.get(area_id)
            if chunk is None or chunk.storage_seq != chunk_seq:
                continue  # dropped since it was queued
            if chunk.accesses != accesses:
                heappush(queue, (chunk.accesses, map_seq, chunk_seq, area_id))
            elif (pmap, area_id) in self._pinned:
                skipped.append(entry)
            else:
                return pmap, area_id
        return None
