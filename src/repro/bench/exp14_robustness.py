"""Exp14: stochastic cracking robustness under adversarial workloads.

Plain query-driven cracking converges only when queries land at random
locations.  Under sequential (or otherwise local) access patterns every
query cracks one huge still-unindexed piece, so per-query cost never drops
— the workload-robustness problem stochastic cracking solves by investing
in auxiliary data-driven cuts (Halim et al., PVLDB 2012).

This experiment runs every crack policy against every adversarial pattern
on the selection-cracking engine, verifies each run returns results
identical to a scan baseline, cross-checks the sideways and partial engines
on a reduced grid, and reports cumulative counter-model cost.  The headline
number is the sequential-workload cost ratio of query-driven over the best
stochastic policy.
"""

from __future__ import annotations

import hashlib

import numpy as np

from repro.bench.harness import default_scale
from repro.bench.registry.components import make_engine, uniform_table
from repro.bench.report import format_table
from repro.cracking import stochastic
from repro.cracking.stochastic import POLICY_NAMES, resolve_policy
from repro.engine.database import Database
from repro.engine.query import Predicate, Query
from repro.stats.counters import StatsRecorder
from repro.stats.memory_model import DEFAULT_MODEL
from repro.workloads.synthetic import ADVERSARIAL_PATTERNS, adversarial_intervals

HEADLINE_PATTERN = "sequential"
ENGINE_GRID = ("selection_cracking", "sideways", "partial_sideways")


def _digest(values: np.ndarray) -> str:
    return hashlib.sha1(np.sort(np.asarray(values, np.int64)).tobytes()).hexdigest()


def _run_sequence(
    engine_name: str,
    arrays: dict[str, np.ndarray],
    intervals,
    policy_name: str | None,
    seed: int,
) -> tuple[list[str], StatsRecorder]:
    recorder = StatsRecorder(cache_elements=DEFAULT_MODEL.cache_elements)
    policy = resolve_policy(policy_name)
    db = Database(recorder=recorder, crack_policy=policy, crack_seed=seed)
    db.create_table("R", {k: v.copy() for k, v in arrays.items()})
    engine = make_engine(engine_name, db)
    digests = []
    for interval in intervals:
        result = engine.run(
            Query(table="R", predicates=(Predicate("A", interval),),
                  projections=("B",))
        )
        digests.append(_digest(result.columns["B"]))
    return digests, recorder


def run(
    scale: float | None = None,
    rows: int = 1_000_000,
    queries: int = 1_000,
    selectivity: float = 0.001,
    seed: int = 42,
    crack_policy: str | None = None,
) -> dict:
    scale = default_scale() if scale is None else scale
    rows = max(2_000, int(rows * scale))
    queries = max(40, int(queries * scale))
    domain = 10 * rows
    policies = [crack_policy] if crack_policy else list(POLICY_NAMES)

    arrays = uniform_table(rows, domain, seed)

    grid: dict[str, dict[str, dict]] = {}
    checks_flag = stochastic.REPLAY_BOUNDARY_CHECKS
    stochastic.REPLAY_BOUNDARY_CHECKS = False  # O(pieces) per align; grid is big
    try:
        for pattern in ADVERSARIAL_PATTERNS:
            intervals = adversarial_intervals(
                pattern, domain, queries, selectivity, seed=seed
            )
            baseline, _ = _run_sequence("monetdb", arrays, intervals, None, seed)
            grid[pattern] = {}
            for policy_name in policies:
                digests, recorder = _run_sequence(
                    "selection_cracking", arrays, intervals, policy_name, seed
                )
                stats = recorder.root
                grid[pattern][policy_name] = {
                    "touched_elements": stats.total_touches,
                    "touched_bytes": stats.total_touches * DEFAULT_MODEL.element_bytes,
                    "model_seconds": DEFAULT_MODEL.cost_seconds(stats),
                    "cracks": stats.cracks,
                    "dd_cuts": stats.dd_cuts,
                    "random_cracks": stats.random_cracks,
                    "matches_scan": digests == baseline,
                }

        # Cross-engine correctness on a reduced grid: every engine must
        # return scan-identical results under every policy and pattern.
        small_rows = min(rows, 20_000)
        small_queries = min(queries, 60)
        small_domain = 10 * small_rows
        small_arrays = uniform_table(small_rows, small_domain, seed + 1)
        engines_ok = True
        engine_failures: list[str] = []
        for pattern in ADVERSARIAL_PATTERNS:
            intervals = adversarial_intervals(
                pattern, small_domain, small_queries, selectivity, seed=seed
            )
            baseline, _ = _run_sequence("monetdb", small_arrays, intervals, None, seed)
            for engine_name in ENGINE_GRID:
                for policy_name in policies:
                    digests, _ = _run_sequence(
                        engine_name, small_arrays, intervals, policy_name, seed
                    )
                    if digests != baseline:
                        engines_ok = False
                        engine_failures.append(
                            f"{engine_name}/{policy_name}/{pattern}"
                        )
    finally:
        stochastic.REPLAY_BOUNDARY_CHECKS = checks_flag

    headline = None
    seq = grid.get(HEADLINE_PATTERN, {})
    if "query_driven" in seq and len(seq) > 1:
        qd = seq["query_driven"]["touched_bytes"]
        best_name = min(
            (name for name in seq if name != "query_driven"),
            key=lambda name: seq[name]["touched_bytes"],
        )
        best = seq[best_name]["touched_bytes"]
        headline = {
            "pattern": HEADLINE_PATTERN,
            "best_policy": best_name,
            "query_driven_bytes": qd,
            "best_policy_bytes": best,
            "cost_ratio": qd / best if best else float("inf"),
        }

    result = {
        "rows": rows,
        "queries": queries,
        "selectivity": selectivity,
        "domain": domain,
        "policies": policies,
        "patterns": list(ADVERSARIAL_PATTERNS),
        "grid": grid,
        "engines_match_scan": engines_ok,
        "engine_failures": engine_failures,
        "headline": headline,
    }
    return result


def describe(result: dict) -> str:
    headers = ["pattern"] + list(result["policies"])
    rows = []
    for pattern in result["patterns"]:
        row = [pattern]
        for policy_name in result["policies"]:
            cell = result["grid"][pattern][policy_name]
            mark = "" if cell["matches_scan"] else " (MISMATCH)"
            row.append(f"{cell['touched_bytes'] / 1e6:,.0f} MB{mark}")
        rows.append(row)
    table = format_table(
        headers, rows,
        "Exp14: cumulative counter-model bytes touched "
        f"({result['rows']:,} rows, {result['queries']} queries, "
        "selection-cracking engine)",
    )
    lines = [table]
    headline = result.get("headline")
    if headline:
        lines.append(
            f"headline: {headline['best_policy']} is "
            f"{headline['cost_ratio']:.1f}x cheaper than query_driven on the "
            f"{headline['pattern']} workload"
        )
    lines.append(
        "all engines match scan: " + ("yes" if result["engines_match_scan"]
                                      else f"NO {result['engine_failures']}")
    )
    return "\n".join(lines)
