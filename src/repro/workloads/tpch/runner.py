"""Drivers for the TPC-H experiments (Fig. 14 and the mixed workload)."""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.engine.database import Database
from repro.stats.memory_model import DEFAULT_MODEL, MemoryModel
from repro.workloads.tpch.datagen import TPCHData
from repro.workloads.tpch.executor import ModeExecutor
from repro.workloads.tpch.queries import QUERIES, ParamGen, results_equal


@dataclass
class TPCHRun:
    """Per-variation costs of one (query, system) sequence."""

    seconds: list[float] = field(default_factory=list)
    model_ms: list[float] = field(default_factory=list)
    presort_seconds: float = 0.0
    results: list = field(default_factory=list)


def fresh_executor(data: TPCHData, mode: str) -> ModeExecutor:
    db = Database()
    data.load_into(db)
    return ModeExecutor(db, mode)


def run_query_sequence(
    data: TPCHData,
    mode: str,
    query_id: int,
    variations: int = 30,
    seed: int = 101,
    model: MemoryModel = DEFAULT_MODEL,
    keep_results: bool = False,
) -> TPCHRun:
    """Run ``variations`` parameter variations of one query on a fresh db."""
    executor = fresh_executor(data, mode)
    params_gen = ParamGen(seed=seed + query_id)
    fn = QUERIES[query_id]
    run = TPCHRun()
    for _ in range(variations):
        params = getattr(params_gen, f"q{query_id}")()
        with executor.recorder.frame() as stats:
            start = time.perf_counter()
            result = fn(executor, params)
            run.seconds.append(time.perf_counter() - start)
        run.model_ms.append(model.cost_ms(stats))
        if keep_results:
            run.results.append(result)
    run.presort_seconds = executor.engine.presort_seconds
    return run


def run_mixed_workload(
    data: TPCHData,
    mode: str,
    batches: int = 5,
    seed: int = 211,
    model: MemoryModel = DEFAULT_MODEL,
    include_extra: bool = False,
) -> TPCHRun:
    """Section 5's mixed workload: batches cycling through the queries.

    One shared database per system — the point is cross-query reuse of maps
    and partitioning information.  ``include_extra`` widens the cycle from
    the paper's twelve queries to all twenty-two.
    """
    from repro.workloads.tpch.queries_extra import EXTRA_QUERIES, ExtraParamGen

    executor = fresh_executor(data, mode)
    params_gen = ParamGen(seed=seed)
    extra_gen = ExtraParamGen(seed=seed + 1)
    suite = dict(QUERIES)
    if include_extra:
        suite.update(EXTRA_QUERIES)
    run = TPCHRun()
    for _ in range(batches):
        for query_id in sorted(suite):
            gen = params_gen if query_id in QUERIES else extra_gen
            params = getattr(gen, f"q{query_id}")()
            with executor.recorder.frame() as stats:
                start = time.perf_counter()
                suite[query_id](executor, params)
                run.seconds.append(time.perf_counter() - start)
            run.model_ms.append(model.cost_ms(stats))
    run.presort_seconds = executor.engine.presort_seconds
    return run


def verify_modes_agree(
    data: TPCHData, modes: list[str], variations: int = 2, seed: int = 307,
    include_extra: bool = True,
) -> None:
    """Assert every mode returns the same canonical result per query.

    Covers the paper's twelve queries and, with ``include_extra``, the ten
    remaining TPC-H queries as well (all 22).
    """
    from repro.workloads.tpch.queries_extra import EXTRA_QUERIES, ExtraParamGen

    executors = {mode: fresh_executor(data, mode) for mode in modes}
    params_gen = ParamGen(seed=seed)
    extra_gen = ExtraParamGen(seed=seed + 1)
    suites = [(QUERIES, params_gen)]
    if include_extra:
        suites.append((EXTRA_QUERIES, extra_gen))
    for _ in range(variations):
        for queries, gen in suites:
            for query_id, fn in queries.items():
                params = getattr(gen, f"q{query_id}")()
                results = {mode: fn(ex, params) for mode, ex in executors.items()}
                reference = results[modes[0]]
                for mode in modes[1:]:
                    if not results_equal(results[mode], reference):
                        raise AssertionError(
                            f"Q{query_id}: {mode} disagrees with {modes[0]}"
                        )
