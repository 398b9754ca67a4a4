"""Ablation studies for the design choices DESIGN.md calls out.

* **partial alignment** — replay only as far as the query needs vs. always
  replaying to the tape end;
* **head dropping** — off vs. cold-chunk dropping under a tight budget;
* **map-set choice** — histogram-driven most-selective head vs. naively
  taking the first predicate;
* **crack-in-three** — one three-way partition per fresh range vs. two
  successive two-way partitions (measures touched elements).
"""

from __future__ import annotations

import numpy as np

from repro.bench.harness import SequenceRunner, SystemSetup, default_scale
from repro.bench.report import format_table
from repro.core.partial.engine import PartialConfig
from repro.cracking.bounds import Interval
from repro.cracking.crack import crack_bound, crack_into
from repro.cracking.index import CrackerIndex
from repro.stats.counters import StatsRecorder
from repro.stats.memory_model import DEFAULT_MODEL
from repro.workloads.synthetic import BatchWorkload, make_table_arrays, random_range


def partial_alignment(scale: float | None = None, queries: int = 300,
                      seed: int = 73) -> dict:
    """Partial alignment on vs off, two query types changing every 10."""
    scale = scale if scale is not None else default_scale()
    rows = max(20_000, int(100_000 * scale))
    workload = BatchWorkload(rows=rows, domain=rows * 100, seed=seed, n_types=2)
    sequence = workload.sequence(queries, batch_size=10,
                                 result_rows=max(50, rows // 100))
    totals = {}
    for label, flag in (("partial_alignment", True), ("full_alignment", False)):
        setup = SystemSetup(
            "partial_sideways", {workload.table: workload.arrays()},
            partial_config=PartialConfig(partial_alignment=flag),
        )
        runner = SequenceRunner(setup)
        runner.run_all(sequence)
        totals[label] = {
            "seconds": runner.cumulative_seconds(),
            "model_ms": runner.cumulative_model_ms(),
            "replays": setup.db.recorder.root.alignment_replays,
        }
    return {"rows": rows, "queries": queries, "totals": totals}


def head_dropping(scale: float | None = None, queries: int = 300,
                  seed: int = 79) -> dict:
    """Head dropping off vs cold mode under a tight chunk budget."""
    scale = scale if scale is not None else default_scale()
    rows = max(20_000, int(100_000 * scale))
    workload = BatchWorkload(rows=rows, domain=rows * 100, seed=seed)
    sequence = workload.sequence(queries, batch_size=50,
                                 result_rows=max(50, rows // 100))
    budget = int(1.5 * rows)
    out = {}
    for label, mode in (("off", "off"), ("cold", "cold")):
        setup = SystemSetup(
            "partial_sideways", {workload.table: workload.arrays()},
            chunk_budget=budget,
            partial_config=PartialConfig(head_drop_mode=mode, cold_threshold=4),
        )
        runner = SequenceRunner(setup)
        runner.run_all(sequence)
        out[label] = {
            "seconds": runner.cumulative_seconds(),
            "model_ms": runner.cumulative_model_ms(),
            "chunk_drops": setup.db.recorder.root.chunk_drops,
            "peak_storage": max(runner.storage_samples),
        }
    return {"rows": rows, "budget": budget, "totals": out}


def mapset_choice(scale: float | None = None, queries: int = 150,
                  seed: int = 83) -> dict:
    """Histogram-driven head choice vs always using the first predicate.

    Queries pair a nearly unselective predicate on A with a selective one on
    B; the histogram should route plans through S_B, shrinking bit vectors.
    """
    scale = scale if scale is not None else default_scale()
    rows = max(20_000, int(100_000 * scale))
    domain = rows * 100
    arrays = make_table_arrays(rows, ["A", "B", "C"], domain, seed)
    rng = np.random.default_rng(seed)
    plans = []
    for _ in range(queries):
        plans.append({
            "A": random_range(rng, domain, 0.6),
            "B": random_range(rng, domain, 0.02),
        })
    out = {}
    for label, forced_head in (("histogram", None), ("first_predicate", "A")):
        setup = SystemSetup("sideways", {"R": dict(arrays)})
        facade = setup.db.sideways("R")
        model = DEFAULT_MODEL
        total_ms = 0.0
        for predicates in plans:
            with setup.db.recorder.frame() as stats:
                facade.query(dict(predicates), ["C"], head_attr=forced_head)
            total_ms += model.cost_ms(stats)
        out[label] = {"model_ms": total_ms}
    return {"rows": rows, "queries": queries, "totals": out}


def crack_kernels(scale: float | None = None, cracks: int = 200,
                  seed: int = 89) -> dict:
    """Crack-in-three vs two successive crack-in-two on fresh ranges."""
    scale = scale if scale is not None else default_scale()
    rows = max(50_000, int(200_000 * scale))
    rng = np.random.default_rng(seed)
    values = rng.integers(0, rows * 10, size=rows).astype(np.int64)
    out = {}
    for label in ("crack_in_three", "two_crack_in_two"):
        head = values.copy()
        index = CrackerIndex()
        recorder = StatsRecorder()
        rng_local = np.random.default_rng(seed + 1)
        for _ in range(cracks):
            lo = int(rng_local.integers(0, rows * 9))
            iv = Interval.open(lo, lo + rows // 10)
            if label == "crack_in_three":
                crack_into(index, head, [], iv, recorder)
            else:
                lower, upper = iv.lower_bound(), iv.upper_bound()
                crack_bound(index, head, [], lower, recorder)
                crack_bound(index, head, [], upper, recorder)
        out[label] = {
            "model_ms": DEFAULT_MODEL.cost_ms(recorder.root),
            "touches": recorder.root.total_touches,
            "pieces": index.piece_count,
        }
    return {"rows": rows, "cracks": cracks, "totals": out}


def chunk_size_enforcement(scale: float | None = None, queries: int = 200,
                           seed: int = 91) -> dict:
    """Cache-conscious chunk-size enforcement (paper §7) on vs off.

    Bounded chunks trade a few more chunk creations for never paying a
    giant-chunk creation inside a single query: the per-query *peak* drops.
    """
    scale = scale if scale is not None else default_scale()
    rows = max(20_000, int(100_000 * scale))
    workload = BatchWorkload(rows=rows, domain=rows * 100, seed=seed, n_types=3)
    # Broad selections: without enforcement each fetch materializes a giant
    # chunk in one query.
    sequence = workload.sequence(queries, batch_size=20,
                                 result_rows=rows // 3)
    out = {}
    for label, cap in (("enforced", rows // 20), ("unbounded", None)):
        setup = SystemSetup(
            "partial_sideways", {workload.table: workload.arrays()},
            partial_config=PartialConfig(max_chunk_tuples=cap),
        )
        runner = SequenceRunner(setup)
        runner.run_all(sequence)
        out[label] = {
            "model_ms": runner.cumulative_model_ms(),
            "peak_query_ms": max(runner.model_ms),
            "chunks": setup.db.recorder.root.chunk_creations,
        }
    return {"rows": rows, "queries": queries, "totals": out}


def describe(name: str, result: dict) -> str:
    rows = []
    for label, metrics in result["totals"].items():
        rows.append([label] + [metrics[k] for k in sorted(metrics)])
    headers = ["variant"] + sorted(next(iter(result["totals"].values())))
    return format_table(headers, rows, f"Ablation: {name}")
