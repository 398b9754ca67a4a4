"""Partial maps: the chunk collections of one ``(head, tail)`` pair."""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

from repro.core.map import KEY_TAIL, tail_fetcher  # noqa: F401 - KEY_TAIL re-exported
from repro.core.partial.chunk import Chunk, no_storage
from repro.core.partial.chunkmap import Area, ChunkMap
from repro.errors import AlignmentError
from repro.stats.counters import StatsRecorder, global_recorder

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.partial.storage import ChunkStorage


class PartialMap:
    """A partial cracker map ``M_{A,tail}``: chunks materialized on demand."""

    def __init__(
        self,
        chunkmap: ChunkMap,
        tail_attr: str,
        recorder: StatsRecorder | None = None,
    ) -> None:
        self.chunkmap = chunkmap
        self.head_attr = chunkmap.head_attr
        self.tail_attr = tail_attr
        self.chunks: dict[int, Chunk] = {}
        self._recorder = recorder or global_recorder()
        #: Set by :meth:`ChunkStorage.register_map`: a weak reference to the
        #: manager counting this map's chunks, and its place in the
        #: manager's registration order.
        self.storage_ref: Callable[[], ChunkStorage | None] = no_storage
        self.storage_seq = -1

    @property
    def name(self) -> str:
        return f"{self.head_attr}->{self.tail_attr}"

    def __len__(self) -> int:
        """Materialized tuples across all chunks."""
        return sum(len(c) for c in self.chunks.values())

    @property
    def storage_cells(self) -> int:
        return sum(c.storage_cells for c in self.chunks.values())

    # -- chunk lifecycle -------------------------------------------------------------

    def get_chunk(self, area: Area) -> Chunk | None:
        return self.chunks.get(area.area_id)

    def create_chunk(self, area: Area) -> Chunk:
        """Materialize the chunk for ``area`` from the chunk map.

        The head is the area's frozen ``H_A`` slice; the tail is fetched
        from the base column through the area's keys (the expensive,
        random-access step partial materialization amortizes).  The chunk
        starts at tape cursor 0; callers align it as far as they need.
        """
        if area.area_id in self.chunks:
            raise AlignmentError(f"{self.name} already has a chunk for area {area.area_id}")
        if not area.fetched:
            raise AlignmentError("cannot create a chunk for an unfetched area")
        head_slice, key_slice = self.chunkmap.area_slice(area)
        fetch = tail_fetcher(self.chunkmap.relation, self.tail_attr, self._recorder)
        tail = fetch(key_slice)
        chunk = Chunk(
            area.area_id, head_slice.copy(), tail, fetch, self._recorder
        )
        self._recorder.write(2 * len(chunk))
        self.chunks[area.area_id] = chunk
        storage = self.storage_ref()
        if storage is not None:
            storage.admit(self, chunk)
        self.chunkmap.add_ref(area, self.name)
        return chunk

    def drop_chunk(self, area_id: int) -> None:
        """Drop a chunk (storage pressure); learning persists in the tape."""
        chunk = self.chunks.pop(area_id, None)
        if chunk is None:
            return
        storage = self.storage_ref()
        if storage is not None:
            storage.release(chunk)
        area = self.chunkmap.area_of_id(area_id)
        self.chunkmap.drop_ref(area, self.name)
        self._recorder.event("chunk_drops")

    # -- alignment --------------------------------------------------------------------

    def align_chunk(self, chunk: Chunk, area: Area, upto: int | None = None) -> None:
        """Replay the area tape from the chunk's cursor to ``upto``."""
        assert area.tape is not None
        end = len(area.tape) if upto is None else upto
        if chunk.cursor > end:
            raise AlignmentError(
                f"chunk cursor {chunk.cursor} already past requested position {end}"
            )
        while chunk.cursor < end:
            chunk.replay_entry(area.tape[chunk.cursor])
