"""Partial sideways cracking (Section 4 of the paper).

Maps are materialized only *chunk-wise*, driven by the workload:

* :mod:`~repro.core.partial.chunkmap` — the chunk map ``H_A`` holding
  ``(A, key)`` pairs, partitioned into *areas*; fetched areas are frozen in
  ``H_A`` and get their own cracker tape.
* :mod:`~repro.core.partial.chunk` — one materialized chunk of one partial
  map: a two-column table over one fetched area, with its own local cracker
  index and a cursor into the area's tape.
* :mod:`~repro.core.partial.partial_map` — a partial map: the collection of
  chunks one ``(head, tail)`` attribute pair currently materializes.
* :mod:`~repro.core.partial.storage` — the chunk storage manager: budget,
  least-frequently-accessed eviction, pinning, head dropping.
* :mod:`~repro.core.partial.engine` — per-area preparation (chunk-wise
  processing, partial and monitored alignment) and
  :class:`PartialSidewaysCracker`, the facade whose plans yield one prepared
  area per chunk-map area to the shared operator suite
  (:class:`~repro.core.sideways.SidewaysFacade`).
"""

from repro.core.partial.chunkmap import Area, ChunkMap
from repro.core.partial.chunk import Chunk
from repro.core.partial.engine import PartialConfig, PartialSidewaysCracker
from repro.core.partial.partial_map import PartialMap
from repro.core.partial.storage import ChunkStorage

__all__ = [
    "Area",
    "ChunkMap",
    "Chunk",
    "PartialMap",
    "ChunkStorage",
    "PartialConfig",
    "PartialSidewaysCracker",
]
