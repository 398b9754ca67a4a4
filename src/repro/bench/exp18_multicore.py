"""Exp18: process-parallel shard workers vs threads vs serial.

PR 6's serving layer parallelizes with a GIL-bound thread pool: shard
cracks on one column interleave on one core.  The process backend
(:mod:`repro.server.procpool`) gives every shard its own worker process
over shared-memory payloads, so shard cracks genuinely overlap on
multi-core hardware.  This experiment measures what that buys end to end
and proves it costs nothing in correctness:

* **serial** — one :class:`SelectionCrackingEngine`, one query at a time:
  the baseline both backends must match row for row;
* **threads** — the PR 6 configuration: 4 workers, thread shards, result
  cache;
* **processes** — the same serving stack at 1, 2, and 4 shard worker
  processes, payloads in shared memory, keys gathered through shared
  result buffers.

Every configuration serves the identical Zipf-template workload
(:func:`repro.bench.exp17_concurrency.build_workload`) and every answer's
value-multiset digest (rows and aggregates) is compared against serial —
the acceptance bar is *the same answers everywhere* plus ``>= 2.5x`` served throughput at 4
process workers vs serial.

The per-phase decomposition separates where process-mode time goes —
**dispatch** (parent-side pipe writes + scatter bookkeeping), **worker**
(in-worker probe/crack compute, summed across shards), **gather**
(concatenating shared result buffers) — and reports the cache and
work-avoidance contributions alongside.  On a single-CPU host the speedup
is honest work avoidance (cache, pruning, batch dedup — same story as
exp17); on real multi-core hardware the worker phase additionally
overlaps across cores, which is the point of the backend.  The
decomposition makes it possible to tell the two apart from the numbers
alone: compare summed worker seconds against elapsed wall time.
"""

from __future__ import annotations

import time

import numpy as np

from repro.bench.exp17_concurrency import (
    BATCH,
    build_templates,
    build_workload,
    run_serial,
)
from repro.bench.harness import default_scale
from repro.bench.registry.components import uniform_table
from repro.bench.report import format_table
from repro.engine.database import Database
from repro.engine.query import Query
from repro.server.executor import DEFAULT_CACHE_BYTES, ServerExecutor, value_digest

#: The acceptance floor: served throughput at 4 process workers vs serial.
TARGET_SPEEDUP = 2.5


def _fresh_database(arrays: dict[str, np.ndarray]) -> Database:
    db = Database()
    db.create_table("R", {k: v.copy() for k, v in arrays.items()})
    return db


def run_served(
    arrays: dict[str, np.ndarray],
    workload: list[Query],
    workers: int,
    partitions: int = 0,
    processes: int = 0,
    cache_bytes: int = DEFAULT_CACHE_BYTES,
) -> tuple[list[str], float, dict]:
    """One server configuration: batched admission over the whole workload."""
    db = _fresh_database(arrays)
    try:
        with ServerExecutor(
            db, workers=workers, partitions=partitions,
            processes=processes, cache_bytes=cache_bytes,
        ) as executor:
            if partitions or processes:
                executor.partition("R", "A")
            digests: list[str] = []
            elapsed = 0.0
            for at in range(0, len(workload), BATCH):
                start = time.perf_counter()
                results = executor.run_batch(workload[at:at + BATCH])
                elapsed += time.perf_counter() - start
                digests.extend(value_digest(r) for r in results)
            stats = executor.stats()
    finally:
        db.close()
    return digests, elapsed, stats


def _phase_decomposition(stats: dict) -> dict:
    """Sum the process pools' dispatch/worker/gather phase timings."""
    phases = {"dispatch_seconds": 0.0, "worker_seconds": 0.0,
              "gather_seconds": 0.0, "selects": 0, "probe_hits": 0}
    for column in stats.get("partitioned", {}).values():
        if column.get("engine") != "process":
            continue
        for key in phases:
            phases[key] += column.get(key, 0)
    return phases


def run(
    scale: float | None = None,
    rows: int = 1_000_000,
    queries: int = 600,
    templates: int = 120,
    seed: int = 42,
    partitions: int = 8,
) -> dict:
    scale = default_scale() if scale is None else scale
    rows = max(10_000, int(rows * scale))
    queries = max(60, int(queries * scale))
    templates = max(12, int(templates * scale))
    domain = 10 * rows

    arrays = uniform_table(rows, domain, seed, attrs=("A", "B", "C", "D"),
                           low=0, high=domain)
    template_list = build_templates(templates, domain, seed)
    workload = build_workload(template_list, queries, seed)

    serial_digests, serial_seconds = run_serial(arrays, workload)
    serial_throughput = queries / serial_seconds

    runs: dict[str, dict] = {}
    mismatches: dict[str, int] = {}
    configs = (
        ("threads=4", dict(workers=4, partitions=partitions)),
        ("processes=1", dict(workers=4, processes=1)),
        ("processes=2", dict(workers=4, processes=2)),
        ("processes=4", dict(workers=4, processes=4)),
        ("processes=4,nocache", dict(workers=4, processes=4, cache_bytes=0)),
    )
    for name, kwargs in configs:
        digests, seconds, stats = run_served(arrays, workload, **kwargs)
        wrong = sum(1 for a, b in zip(digests, serial_digests) if a != b)
        mismatches[name] = wrong
        runs[name] = {
            **{k: v for k, v in kwargs.items()},
            "seconds": seconds,
            "throughput_qps": queries / seconds,
            "speedup_vs_serial": serial_seconds / seconds,
            "digests_match_serial": wrong == 0,
            "cache_hit_rate": stats["cache_hit_rate"],
            "cache": stats["cache"],
            "paths": stats["paths"],
            "latency_p50": stats["latency_p50"],
            "latency_p99": stats["latency_p99"],
            "phases": _phase_decomposition(stats),
        }

    best = runs["processes=4"]
    nocache = runs["processes=4,nocache"]
    threads = runs["threads=4"]
    phases = best["phases"]
    decomposition = {
        # Where the process path's time goes when it does run.
        "dispatch_seconds": phases["dispatch_seconds"],
        "worker_seconds": phases["worker_seconds"],
        "gather_seconds": phases["gather_seconds"],
        "shard_probe_hit_rate": (
            phases["probe_hits"] / phases["selects"]
            if phases["selects"] else 0.0
        ),
        # Cache contribution at 4 process workers: same config minus cache.
        "cache_speedup_at_4_processes": nocache["seconds"] / best["seconds"],
        "cache_hit_rate": best["cache_hit_rate"],
        # Structure-only (scatter + pruning + dedup, no cache) vs serial.
        "structural_speedup_no_cache": serial_seconds / nocache["seconds"],
        "note": (
            "single-CPU-honest decomposition: on this host the end-to-end "
            "speedup is work avoidance (cache, pruning, batch dedup); on "
            "multi-core hardware the worker phase additionally overlaps "
            "across cores — compare worker_seconds to wall time"
        ),
    }

    summary = {
        "serial_seconds": serial_seconds,
        "serial_throughput_qps": serial_throughput,
        "target_speedup": TARGET_SPEEDUP,
        "speedup_at_4_processes": best["speedup_vs_serial"],
        "speedup_ok": bool(best["speedup_vs_serial"] >= TARGET_SPEEDUP),
        "threads_vs_processes": threads["seconds"] / best["seconds"],
        "all_digests_match_serial": all(v == 0 for v in mismatches.values()),
        "decomposition": decomposition,
    }

    result = {
        "rows": rows,
        "queries": queries,
        "templates": templates,
        "partitions": partitions,
        "batch": BATCH,
        "runs": runs,
        "mismatches": mismatches,
        "summary": summary,
    }
    return result


def describe(result: dict) -> str:
    headers = ["configuration", "qps", "speedup", "p99 (ms)",
               "cache hits", "rows match"]
    rows = [[
        "serial (baseline)",
        f"{result['summary']['serial_throughput_qps']:,.0f}",
        "1.00x", "-", "-", "yes",
    ]]
    for name, cell in result["runs"].items():
        rows.append([
            name,
            f"{cell['throughput_qps']:,.0f}",
            f"{cell['speedup_vs_serial']:.2f}x",
            f"{cell['latency_p99'] * 1e3:.2f}",
            f"{cell['cache_hit_rate']:.0%}",
            "yes" if cell["digests_match_serial"] else "NO",
        ])
    table = format_table(
        headers, rows,
        f"Exp18: shard worker processes vs threads vs serial "
        f"({result['rows']:,} rows x 4 attrs, {result['queries']} queries, "
        f"{result['templates']} Zipf templates)",
    )
    s = result["summary"]
    d = s["decomposition"]
    lines = [
        table,
        f"speedup at 4 process workers: {s['speedup_at_4_processes']:.2f}x "
        f"(target >= {s['target_speedup']}x: "
        + ("ok)" if s["speedup_ok"] else "MISSED)"),
        f"threads=4 vs processes=4: {s['threads_vs_processes']:.2f}x",
        "all served results match serial (value multisets): "
        + ("yes" if s["all_digests_match_serial"] else "NO"),
        "process phases: "
        f"dispatch {d['dispatch_seconds']:.2f}s, "
        f"worker {d['worker_seconds']:.2f}s, "
        f"gather {d['gather_seconds']:.2f}s "
        f"(shard probe hit rate {d['shard_probe_hit_rate']:.0%})",
        "decomposition: "
        f"cache {d['cache_speedup_at_4_processes']:.2f}x "
        f"(hit rate {d['cache_hit_rate']:.0%}), "
        f"structure-only (no cache) {d['structural_speedup_no_cache']:.2f}x "
        "vs serial",
        f"note: {d['note']}",
    ]
    return "\n".join(lines)
