"""Exp17: concurrent serving throughput and bit-identity vs a serial run.

The serving subsystem (:mod:`repro.server`) claims two things:

1. **Correctness** — any interleaving of concurrent clients produces, for
   every query, a result bit-identical to a serial single-client run over
   the same data (after the executor's canonicalization).  Cracking makes
   this non-trivial: every query may physically reorganize shared arrays,
   and the reorganization order differs per schedule.
2. **Throughput** — a multi-worker server beats the single-client serial
   loop on a realistic serving workload.

The workload models a serving scenario: ``queries`` requests drawn from
``templates`` distinct query templates with Zipf-distributed popularity
(real query traffic repeats itself heavily), over a multi-column table.
Templates that name the partitioned attribute ``A`` run the
partition-parallel scatter-gather path (a conjunction refines the shard
keys by its other predicate); conjunctions over the other attributes run
the shared-read probe path once a cracker column can answer them, and the
classic engine path under the table write lock until then.

The serial baseline is a plain :class:`SelectionCrackingEngine` loop — no
locks, no cache, no partitions — paying the same canonicalization the
server pays.  The server is then measured at 1, 2, and 4 workers with the
result cache and 8-way partitioning enabled, and once more at 4 workers
with the cache disabled, so the summary can *decompose* where the speedup
comes from (this box may have a single CPU — honest speedups come from
serving-layer work avoidance, not from pretending Python threads scale
compute):

* **result cache** — repeated templates at an unchanged data version skip
  all structure access;
* **partition pruning** — sharded columns answer narrow predicates by
  touching only the shards whose value range intersects;
* **batched admission** — identical in-flight requests are deduplicated.

Acceptance (checked in ``summary``): every served digest equals the serial
digest for the same request, and 4-worker throughput is at least ``2.5x``
the serial baseline.
"""

from __future__ import annotations

import time

import numpy as np

from repro.bench.harness import default_scale
from repro.bench.registry.components import uniform_table
from repro.bench.report import format_table
from repro.cracking.bounds import Interval
from repro.engine.database import Database
from repro.engine.query import Predicate, Query
from repro.engine.selection_cracking import SelectionCrackingEngine
from repro.server.executor import (
    DEFAULT_CACHE_BYTES,
    ServerExecutor,
    canonicalize,
    digest_columns,
)

#: The acceptance floor: served throughput at 4 workers vs serial.
TARGET_SPEEDUP = 2.5

#: Admission batch width: requests are admitted in groups, letting the
#: executor deduplicate identical in-flight queries within a group.
BATCH = 48


def build_templates(
    templates: int, domain: int, seed: int
) -> list[Query]:
    """Deterministic query templates over the four-attribute table.

    Half are single-predicate selections on ``A`` (the partitioned
    attribute), the rest conjunctive two-predicate selections across the
    other attributes; all project two columns and aggregate a third, so
    reconstruction and aggregation are part of every request.
    """
    rng = np.random.default_rng((seed, 1))
    attrs = ("A", "B", "C", "D")
    out: list[Query] = []
    for i in range(templates):
        width = int(rng.integers(domain // 200, domain // 20))
        lo = int(rng.integers(0, domain - width))
        first = Interval.open(lo, lo + width)
        if i % 2 == 0:
            preds = (Predicate("A", first),)
        else:
            a1, a2 = rng.choice(len(attrs), size=2, replace=False)
            w2 = int(rng.integers(domain // 4, domain // 2))
            lo2 = int(rng.integers(0, domain - w2))
            preds = (
                Predicate(attrs[a1], first),
                Predicate(attrs[a2], Interval.open(lo2, lo2 + w2)),
            )
        proj = tuple(sorted(rng.choice(attrs, size=2, replace=False)))
        agg_attr = attrs[int(rng.integers(0, len(attrs)))]
        out.append(Query(
            "R", preds, projections=proj,
            aggregates=(("sum", agg_attr), ("count", agg_attr)),
        ))
    return out


def build_workload(
    templates: list[Query], queries: int, seed: int
) -> list[Query]:
    """Zipf-popular template draws: serving traffic repeats itself."""
    rng = np.random.default_rng((seed, 2))
    ranks = rng.zipf(1.3, size=queries)
    return [templates[int(r - 1) % len(templates)] for r in ranks]


def _fresh_database(arrays: dict[str, np.ndarray]) -> Database:
    db = Database()
    db.create_table("R", {k: v.copy() for k, v in arrays.items()})
    return db


def run_serial(
    arrays: dict[str, np.ndarray], workload: list[Query]
) -> tuple[list[str], float]:
    """The single-client baseline: one engine, one query at a time."""
    db = _fresh_database(arrays)
    engine = SelectionCrackingEngine(db)
    digests: list[str] = []
    start = time.perf_counter()
    for query in workload:
        result = engine.run(query)
        digests.append(digest_columns(canonicalize(result.columns)))
    return digests, time.perf_counter() - start


def run_served(
    arrays: dict[str, np.ndarray],
    workload: list[Query],
    workers: int,
    partitions: int,
    cache: bool,
) -> tuple[list[str], float, dict]:
    """One server configuration: batched admission over the whole workload."""
    db = _fresh_database(arrays)
    with ServerExecutor(
        db, workers=workers, partitions=partitions,
        cache_bytes=DEFAULT_CACHE_BYTES if cache else 0,
    ) as executor:
        if partitions:
            executor.partition("R", "A")
        digests: list[str] = []
        start = time.perf_counter()
        for at in range(0, len(workload), BATCH):
            results = executor.run_batch(workload[at:at + BATCH])
            digests.extend(r.digest() for r in results)
        elapsed = time.perf_counter() - start
        stats = executor.stats()
    return digests, elapsed, stats


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
    for name, workers, cache in (
        ("workers=1", 1, True),
        ("workers=2", 2, True),
        ("workers=4", 4, True),
        ("workers=4,nocache", 4, False),
    ):
        digests, seconds, stats = run_served(
            arrays, workload, workers, partitions, cache
        )
        wrong = sum(1 for a, b in zip(digests, serial_digests) if a != b)
        mismatches[name] = wrong
        runs[name] = {
            "workers": workers,
            "cache": cache,
            "seconds": seconds,
            "throughput_qps": queries / seconds,
            "speedup_vs_serial": serial_seconds / seconds,
            "digests_match_serial": wrong == 0,
            "cache_hit_rate": stats["cache_hit_rate"],
            "paths": stats["paths"],
            "latency_p50": stats["latency_p50"],
            "latency_p99": stats["latency_p99"],
        }

    best = runs["workers=4"]
    nocache = runs["workers=4,nocache"]
    decomposition = {
        # What the cache contributes at 4 workers: same config minus cache.
        "cache_speedup_at_4_workers": nocache["seconds"] / best["seconds"],
        "cache_hit_rate": best["cache_hit_rate"],
        # What partitioning + shared reads contribute without any cache.
        "structural_speedup_no_cache": serial_seconds / nocache["seconds"],
        "note": (
            "single-CPU-honest decomposition: the speedup is work avoidance "
            "(cache, pruning, dedup), not parallel compute"
        ),
    }

    summary = {
        "serial_seconds": serial_seconds,
        "serial_throughput_qps": serial_throughput,
        "target_speedup": TARGET_SPEEDUP,
        "speedup_at_4_workers": best["speedup_vs_serial"],
        "speedup_ok": bool(best["speedup_vs_serial"] >= TARGET_SPEEDUP),
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
               "cache hits", "bit-identical"]
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
        f"Exp17: served throughput vs serial "
        f"({result['rows']:,} rows x 4 attrs, {result['queries']} queries, "
        f"{result['templates']} Zipf templates, {result['partitions']} "
        "partitions)",
    )
    s = result["summary"]
    d = s["decomposition"]
    lines = [
        table,
        f"speedup at 4 workers: {s['speedup_at_4_workers']:.2f}x "
        f"(target >= {s['target_speedup']}x: "
        + ("ok)" if s["speedup_ok"] else "MISSED)"),
        "all served results bit-identical to serial: "
        + ("yes" if s["all_digests_match_serial"] else "NO"),
        "decomposition: "
        f"cache {d['cache_speedup_at_4_workers']:.2f}x "
        f"(hit rate {d['cache_hit_rate']:.0%}), "
        f"structure-only (no cache) {d['structural_speedup_no_cache']:.2f}x "
        "vs serial",
        f"note: {d['note']}",
    ]
    return "\n".join(lines)
