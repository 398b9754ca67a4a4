"""Exp15: FaultSan overhead — journal cost, recovery cost, rebuild cost.

Three questions the fault subsystem's design hinges on:

1. **Fault-free path** — with no plan armed, every failpoint is one
   module-level ``None`` check and the atomic guards take no snapshot; the
   per-query overhead versus a hypothetical build without FaultSan should be
   noise.  Measured as disarmed wall time per query (the registered
   ``kernels`` perf gate independently bounds regressions on the crack
   kernels the hooks are threaded through).
2. **Journal cost when armed** — ``FORCE_JOURNAL`` snapshots every guarded
   reorganization without injecting anything, isolating the pure journal
   (pre-op copy) overhead a chaos run pays.
3. **Recovery cost** — with a single-fault plan armed, the first query eats
   the full pipeline: injected fault, rollback, quarantine + heal, scan
   fallback; the next query pays the lazy rebuild.  Both are compared to an
   undisturbed cold first query.
"""

from __future__ import annotations

import time

import numpy as np

from repro.analysis.checks import Checks
from repro.bench.harness import default_scale
from repro.bench.registry.components import make_engine, uniform_table
from repro.bench.report import format_table
from repro.cracking.bounds import Interval
from repro.engine.database import Database
from repro.engine.query import Predicate, Query
from repro.engine.scan import PlainEngine
from repro.faults import guard

#: (site to fault, engine that exercises it) for the recovery measurements.
RECOVERY_CELLS = (
    ("kernels.crack_three", "selection_cracking"),
    ("mapset.align", "sideways"),
    ("chunkmap.fetch", "partial_sideways"),
)


def _make_db(arrays: dict[str, np.ndarray], seed: int):
    db = Database(crack_seed=seed)
    db.create_table("R", {k: v.copy() for k, v in arrays.items()})
    return db


def _workload(domain: int, queries: int, selectivity: float, seed: int):
    rng = np.random.default_rng(seed)
    width = max(1, int(domain * selectivity))
    los = rng.integers(1, domain - width, size=queries)
    # Alternating projections leave one map lagging behind each crack, so
    # the alignment/replay sites are actually exercised.
    return [
        Query(
            table="R",
            predicates=(Predicate("A", Interval.open(int(lo), int(lo) + width)),),
            projections=("B",) if i % 2 == 0 else ("C",),
        )
        for i, lo in enumerate(los)
    ]


def _timed_run(engine, queries) -> list[float]:
    per_query_ms = []
    for query in queries:
        start = time.perf_counter()
        engine.run(query)
        per_query_ms.append((time.perf_counter() - start) * 1e3)
    return per_query_ms


def run(
    scale: float | None = None,
    rows: int = 200_000,
    queries: int = 64,
    selectivity: float = 0.01,
    seed: int = 42,
) -> dict:
    scale = default_scale() if scale is None else scale
    rows = max(2_000, int(rows * scale))
    queries = max(8, int(queries * scale))
    domain = 10 * rows

    arrays = uniform_table(rows, domain, seed, attrs=("A", "B", "C"))
    workload = _workload(domain, queries, selectivity, seed)

    # 1+2: the same workload disarmed vs journal-forced.
    disarmed = _timed_run(
        make_engine("selection_cracking", _make_db(arrays, seed)), workload
    )
    guard.FORCE_JOURNAL = True
    try:
        journaled = _timed_run(
            make_engine("selection_cracking", _make_db(arrays, seed)), workload
        )
    finally:
        guard.FORCE_JOURNAL = False
    disarmed_ms = float(np.median(disarmed))
    journaled_ms = float(np.median(journaled))

    # 3: full recovery pipeline per fault site, against an undisturbed run.
    # Some sites are first visited on a later query (e.g. alignment only
    # replays once a sibling map lags), so run until the plan reports the
    # injection and time *that* query against the clean run's same query.
    recovery = {}
    for site, engine_name in RECOVERY_CELLS:
        clean_db = _make_db(arrays, seed)
        clean_ms = _timed_run(make_engine(engine_name, clean_db), workload)

        engine = make_engine(engine_name, _make_db(arrays, seed))
        result, recovered_ms, hit_index = None, None, None
        # The site's plan is armed only around its faulted run.
        with Checks(faults=f"{site}=error").armed(seed=seed) as armed:
            for i, query in enumerate(workload):
                start = time.perf_counter()
                answer = engine.run(query)
                elapsed_ms = (time.perf_counter() - start) * 1e3
                if armed.plan.injected:
                    result, recovered_ms, hit_index = answer, elapsed_ms, i
                    break
        if result is None:  # the engine never visits this site
            recovery[site] = {"engine": engine_name, "injected": []}
            continue
        rebuild_ms = _timed_run(engine, workload[hit_index + 1:hit_index + 2])[0]

        baseline = PlainEngine(clean_db).run(workload[hit_index])
        attr = workload[hit_index].projections[0]
        clean_cold = clean_ms[hit_index]
        recovery[site] = {
            "engine": engine_name,
            "fault_query_index": hit_index,
            "fault_recovered": bool(result.fault_recovered),
            "answer_matches_scan": bool(
                np.array_equal(
                    np.sort(result.columns[attr]),
                    np.sort(baseline.columns[attr]),
                )
            ),
            "clean_cold_query_ms": clean_cold,
            "recovered_query_ms": recovered_ms,
            "recovery_overhead_x": recovered_ms / clean_cold if clean_cold else 0.0,
            "clean_second_query_ms": clean_ms[hit_index + 1]
            if hit_index + 1 < len(clean_ms) else None,
            "rebuild_query_ms": rebuild_ms,
            "injected": list(armed.plan.injected),
        }

    result = {
        "rows": rows,
        "queries": queries,
        "selectivity": selectivity,
        "disarmed_ms_per_query": disarmed_ms,
        "journal_forced_ms_per_query": journaled_ms,
        "journal_overhead_x": journaled_ms / disarmed_ms if disarmed_ms else 0.0,
        "disarmed_total_ms": float(np.sum(disarmed)),
        "journal_forced_total_ms": float(np.sum(journaled)),
        "recovery": recovery,
    }
    return result


def describe(result: dict) -> str:
    lines = [
        f"fault-free (disarmed) median: {result['disarmed_ms_per_query']:.3f} "
        f"ms/query over {result['queries']} queries, {result['rows']:,} rows",
        f"journal forced on:           {result['journal_forced_ms_per_query']:.3f} "
        f"ms/query ({result['journal_overhead_x']:.2f}x)",
    ]
    headers = ["fault site", "engine", "cold ms", "recovered ms", "overhead",
               "rebuild ms", "sound"]
    rows = []
    for site, cell in result["recovery"].items():
        if not cell["injected"]:
            rows.append([site, cell["engine"], "-", "-", "-", "-", "not visited"])
            continue
        sound = cell["fault_recovered"] and cell["answer_matches_scan"]
        rows.append([
            site, cell["engine"],
            f"{cell['clean_cold_query_ms']:.2f}",
            f"{cell['recovered_query_ms']:.2f}",
            f"{cell['recovery_overhead_x']:.2f}x",
            f"{cell['rebuild_query_ms']:.2f}",
            "yes" if sound else "NO",
        ])
    lines.append(format_table(
        headers, rows,
        "Exp15: single-fault recovery cost (first query eats inject + "
        "rollback + heal + scan fallback)",
    ))
    return "\n".join(lines)
