"""Which program entry points get a span, and how spans become per-layer metrics.

A layer is a module of the program.  ``TARGETS`` lists the callables that
are wrapped (from here, not from inside ``src/``); ``SELF_MS`` says which
span names add up to which ``*_ms`` metric.  Every ``*_ms`` metric is traced
*self* time per query (per update op where noted), so the metrics of one
workload add up to at most the traced latency.
"""

from __future__ import annotations


def _kernel_cells(args) -> int:
    """Elements a crack kernel moves: ``[lo, hi)`` of the head and every tail."""
    _head, tails, lo, hi = args[:4]
    return (hi - lo) * (1 + len(tails))


def _step_cells(args) -> int:
    _head, tails, _bound, left, right, k = args[:6]
    return min(k, right - left) * (1 + len(tails))


_KERNELS = "repro.cracking.kernels"
_INDEX = "repro.cracking.avl"
_MAPSET = "repro.core.mapset"
_PARTIAL = "repro.core.partial.engine"
_EXECUTOR = "repro.server.executor"

#: (span name, module, qualified name, measure)
TARGETS = [
    # engine
    ("engine.run", "repro.engine.base", "Engine.run", None),
    ("engine.aggregate", "repro.engine.query", "compute_aggregates", None),
    ("engine.update_route", "repro.engine.database", "Database.insert", None),
    ("engine.update_route", "repro.engine.database", "Database.delete", None),
    # core (full maps)
    ("core.select", _MAPSET, "MapSet.select", None),
    ("core.select", _MAPSET, "MapSet.select_window", None),
    ("core.select", _MAPSET, "MapSet.window_of", None),
    ("core.align", _MAPSET, "MapSet.align", None),
    ("core.map_create", _MAPSET, "MapSet.get_map", None),
    ("core.merge_pending", _MAPSET, "MapSet.merge_pending", None),
    ("core.reconstruct", "repro.core.sideways", "SidewaysCracker.select_project", None),
    ("core.reconstruct", "repro.core.sideways", "SidewaysCracker.query", None),
    ("core.bitvector", "repro.core.bitvector", "BitVector.from_mask", None),
    ("core.bitvector", "repro.core.bitvector", "BitVector.refine_and", None),
    ("core.bitvector", "repro.core.bitvector", "BitVector.refine_or", None),
    ("core.bitvector", "repro.core.bitvector", "BitVector.positions", None),
    # core.partial
    ("core.reconstruct", _PARTIAL, "PartialSidewaysCracker.select_project", None),
    ("core.reconstruct", _PARTIAL, "PartialSidewaysCracker.query", None),
    ("core.merge_pending", _PARTIAL, "PartialMapSet.merge_pending", None),
    ("core.partial.prepare_area", _PARTIAL, "PartialMapSet.prepare_area", None),
    ("core.partial.acquire_chunk", _PARTIAL, "PartialMapSet.acquire_chunk", None),
    ("core.partial.head_drop", _PARTIAL, "PartialMapSet.apply_head_drop_policy", None),
    ("core.partial.evict", "repro.core.partial.storage", "ChunkStorage.ensure_room", None),
    # cracking
    ("cracking.kernel", _KERNELS, "crack_two", _kernel_cells),
    ("cracking.kernel", _KERNELS, "crack_three", _kernel_cells),
    ("cracking.kernel", _KERNELS, "sort_piece", _kernel_cells),
    ("cracking.kernel", _KERNELS, "progressive_step_kernel", _step_cells),
    ("cracking.crack", "repro.cracking.crack", "crack_into", None),
    ("cracking.index.lookup", _INDEX, "CrackerIndex.position_of", None),
    ("cracking.index.lookup", _INDEX, "CrackerIndex.predecessor", None),
    ("cracking.index.lookup", _INDEX, "CrackerIndex.successor", None),
    ("cracking.index.lookup", _INDEX, "CrackerIndex.enclosing", None),
    ("cracking.index.update", _INDEX, "CrackerIndex.insert", None),
    ("cracking.index.update", _INDEX, "CrackerIndex.apply_shifts", None),
    ("cracking.index.update", _INDEX, "CrackerIndex.apply_order_shifts", None),
    ("cracking.ripple", "repro.cracking.ripple", "merge_insertions", None),
    ("cracking.ripple", "repro.cracking.ripple", "delete_positions", None),
    ("cracking.ripple", "repro.cracking.ripple", "locate_deletions", None),
    ("cracking.pending", "repro.cracking.pending", "PendingUpdates.add_insertions", None),
    ("cracking.pending", "repro.cracking.pending", "PendingUpdates.add_deletions", None),
    ("cracking.pending", "repro.cracking.pending", "PendingUpdates.take_insertions", None),
    ("cracking.pending", "repro.cracking.pending", "PendingUpdates.take_deletions", None),
    ("cracking.pending", "repro.cracking.pending", "PendingUpdates.has_pending", None),
    ("cracking.column_select", "repro.cracking.column", "CrackerColumn.select", None),
    ("cracking.column_select", "repro.cracking.column", "CrackerColumn.probe", None),
    ("cracking.mask", "repro.cracking.bounds", "Interval.mask", None),
]

#: Added in the traced server child only (the in-process workloads never
#: import the serving stack).
SERVER_TARGETS = [
    ("sql.parse", "repro.sql", "parse", None),
    ("storage.snapshot_load", "repro.storage.persist", "load_database", None),
    ("server.serve.dispatch", "repro.server.serve", "CrackServer._dispatch", None),
    ("server.serve.encode", _EXECUTOR, "ServedResult.as_payload", None),
    ("server.executor.admit", _EXECUTOR, "ServerExecutor.admit", None),
    ("server.executor.serve", _EXECUTOR, "ServerExecutor._serve", None),
    ("server.executor.execute", _EXECUTOR, "ServerExecutor._execute", None),
    ("server.executor.cache_get", _EXECUTOR, "ResultCacheLRU.get", None),
    ("server.executor.gather", "repro.engine.operators", "random_gather", None),
    ("server.executor.canonicalize", _EXECUTOR, "canonicalize", None),
    ("server.executor.digest", _EXECUTOR, "digest_columns", None),
    ("server.partition.select", "repro.server.partition", "PartitionedColumn.select_one", None),
    ("server.procpool.select", "repro.server.procpool", "ProcessShardPool.select", None),
]

#: Thread-pool name prefix -> span name of the wait in that pool's queue.
SERVER_QUEUES = {
    "repro-serve": "server.executor.queue",
    "repro-shard": "server.partition.queue",
}

#: metric -> (span names whose self time it sums, "query" or "update")
SELF_MS = {
    "engine.run_self_ms": (("engine.run",), "query"),
    "engine.aggregate_ms": (("engine.aggregate",), "query"),
    "engine.update_route_ms": (("engine.update_route",), "update"),
    "core.select_ms": (("core.select",), "query"),
    "core.align_ms": (("core.align",), "query"),
    "core.map_create_ms": (("core.map_create",), "query"),
    "core.reconstruct_ms": (("core.reconstruct",), "query"),
    "core.bitvector_ms": (("core.bitvector",), "query"),
    "core.merge_pending_ms": (("core.merge_pending",), "query"),
    "core.partial.prepare_area_ms": (("core.partial.prepare_area",), "query"),
    "core.partial.acquire_chunk_ms": (("core.partial.acquire_chunk",), "query"),
    "core.partial.evict_ms": (("core.partial.evict",), "query"),
    "core.partial.head_drop_ms": (("core.partial.head_drop",), "query"),
    "cracking.kernel_ms": (("cracking.kernel",), "query"),
    "cracking.crack_ms": (("cracking.crack",), "query"),
    "cracking.index_ms": (("cracking.index.lookup", "cracking.index.update"), "query"),
    "cracking.ripple_ms": (("cracking.ripple",), "query"),
    "cracking.pending_ms": (("cracking.pending",), "query"),
    "cracking.column_select_ms": (("cracking.column_select",), "query"),
    "cracking.mask_ms": (("cracking.mask",), "query"),
    "sql.parse_ms": (("sql.parse",), "query"),
    "server.serve.encode_ms": (("server.serve.encode",), "query"),
    "server.serve.decode_ms": (("server.serve.decode",), "query"),
    "server.serve.dispatch_self_ms": (("server.serve.dispatch",), "query"),
    "server.executor.queue_ms": (("server.executor.queue",), "query"),
    "server.executor.admit_ms": (("server.executor.admit",), "query"),
    "server.executor.serve_self_ms": (("server.executor.serve",), "query"),
    "server.executor.execute_self_ms": (("server.executor.execute",), "query"),
    "server.executor.cache_get_ms": (("server.executor.cache_get",), "query"),
    "server.executor.gather_ms": (("server.executor.gather",), "query"),
    "server.executor.canonicalize_ms": (("server.executor.canonicalize",), "query"),
    "server.executor.digest_ms": (("server.executor.digest",), "query"),
    "server.partition.select_ms": (("server.partition.select",), "query"),
    "server.partition.queue_ms": (("server.partition.queue",), "query"),
    "server.procpool.select_self_ms": (("server.procpool.select",), "query"),
}


def span_metrics(summary: dict, queries: int, updates: int) -> dict[str, float]:
    """Every metric that is read off the span summary alone."""
    per = {"query": max(queries, 1), "update": max(updates, 1)}

    def of(name: str, field: str) -> float:
        return summary.get(name, {}).get(field, 0)

    out = {
        metric: sum(of(name, "self_s") for name in names) / per[unit] * 1e3
        for metric, (names, unit) in SELF_MS.items()
    }
    kernel_s = of("cracking.kernel", "total_s")
    out["cracking.kernel_calls_per_q"] = of("cracking.kernel", "calls") / per["query"]
    out["cracking.kernel_elems_per_q"] = of("cracking.kernel", "value") / per["query"]
    # int64 payloads: 8 bytes per element moved.
    out["cracking.kernel_gbps"] = (
        of("cracking.kernel", "value") * 8 / kernel_s / 1e9 if kernel_s else 0.0
    )
    out["cracking.index_lookups_per_q"] = of("cracking.index.lookup", "calls") / per["query"]
    return out
