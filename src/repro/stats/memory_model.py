"""An analytic memory/CPU model that prices access tallies.

Four price classes:

* ``sequential`` touches (scans, partition passes, slice reads) at a
  per-element CPU-bound rate — column-store kernels at the paper's scale are
  bound by per-tuple work plus streaming bandwidth, a few ns per element;
* ``clustered_random`` — random lookups confined to a cache-resident
  region (cheap: the region stays in cache across probes);
* ``scattered_random`` — random lookups over a region larger than the
  cache, each paying an (MLP-discounted) memory miss;
* ``writes`` — produced elements (cracking moves, materialized results).

The constants are calibrated so the paper's observed *ratios* hold (e.g.
selection cracking's scattered reconstruction vs. MonetDB's in-order
reconstruction in Exp1, the reordering crossovers in Exp3); absolute
numbers are not meaningful — the shape is.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.stats.counters import AccessStats


@dataclass(frozen=True)
class MemoryModel:
    """Prices an :class:`AccessStats` tally in model nanoseconds."""

    element_bytes: int = 8
    line_bytes: int = 64
    cache_bytes: int = 512 * 1024
    ns_sequential_element: float = 2.0
    ns_cached_hit: float = 3.0
    ns_dram_miss: float = 25.0
    ns_write: float = 1.0
    ns_index_lookup: float = 120.0

    @property
    def cache_elements(self) -> int:
        """Cache capacity in column cells; feeds access classification."""
        return self.cache_bytes // self.element_bytes

    def cost_ns(self, stats: AccessStats) -> float:
        """Model time (ns) to execute the accesses in ``stats``."""
        return (
            stats.sequential * self.ns_sequential_element
            + stats.clustered_random * self.ns_cached_hit
            + stats.scattered_random * self.ns_dram_miss
            + stats.writes * self.ns_write
            + stats.index_lookups * self.ns_index_lookup
        )

    def cost_ms(self, stats: AccessStats) -> float:
        return self.cost_ns(stats) / 1e6

    def cost_seconds(self, stats: AccessStats) -> float:
        return self.cost_ns(stats) / 1e9


DEFAULT_MODEL = MemoryModel()
