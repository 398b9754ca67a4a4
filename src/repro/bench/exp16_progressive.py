"""Exp16: progressive cracking under per-query budgets + the adaptive selector.

Eager cracking concentrates reorganization cost in whichever query first
touches a large piece: the workload converges, but with wild per-query
latency spikes.  Progressive cracking caps the physical work any single
query may perform (a :class:`~repro.cracking.progressive.ProgressiveBudget`,
as a fraction of the column or an element count) and leaves a piece
*partially* cracked — the completed prefix rides the tape, later queries
resume it, and unresolved regions are answered through qualification holes.

This experiment quantifies the trade on the selection-cracking engine:

* **latency smoothing** — worst-query reorganization (write) cost must stay
  within the construction-time guarantee of ``2 x budget`` elements per
  cracked array (a progressive step over a window of ``k`` touches at most
  ``2k`` elements per array);
* **convergence** — by workload end the budgeted runs must have reached
  eager MDD1R's steady state: the median per-query cost over the final 10%
  of queries within ``1.2x`` of eager's.  The cumulative transient (deferred
  classification re-scanned as qualification holes along the way) is
  reported per pattern but does not gate;
* **adaptive selection** — ``--crack-policy auto``
  (:class:`~repro.cracking.adaptive.AdaptivePolicy`) must never end up
  worse than the *worst* static policy on any exp14 adversarial pattern,
  while tracking the better one where the monitor's signal is clear.

Every run is verified against a scan baseline, exactly like exp14.
"""

from __future__ import annotations

import hashlib

import numpy as np

from repro.bench.harness import default_scale
from repro.bench.registry.components import uniform_table
from repro.bench.report import format_table
from repro.cracking import stochastic
from repro.cracking.progressive import parse_budget
from repro.cracking.stochastic import resolve_policy
from repro.engine.database import Database
from repro.engine.query import Predicate, Query
from repro.engine.scan import PlainEngine
from repro.engine.selection_cracking import SelectionCrackingEngine
from repro.stats.counters import StatsRecorder
from repro.stats.memory_model import DEFAULT_MODEL
from repro.workloads.synthetic import ADVERSARIAL_PATTERNS, adversarial_intervals

#: The per-query reorganization allowance, as a fraction of the column
#: (the typical progressive-cracking increment in Halim et al.'s study).
DEFAULT_BUDGET = 0.1

#: Arrays physically reorganized per crack on the selection-cracking engine
#: (the cracker column's head plus its key tail).
CRACKED_ARRAYS = 2

#: (config name, crack policy, budgeted?) — the benchmark grid.
CONFIGS = (
    ("query_driven", None, False),
    ("mdd1r", "mdd1r", False),
    ("auto", "auto", False),
    ("pmdd1r", "mdd1r", True),
    ("pauto", "auto", True),
)

STATIC_POLICIES = ("query_driven", "mdd1r")

#: exp14's adversarial patterns plus the uniform-random control.
PATTERNS = ADVERSARIAL_PATTERNS + ("random",)


def _intervals(pattern, domain, n_queries, selectivity, seed):
    if pattern == "random":
        from repro.cracking.bounds import Interval

        rng = np.random.default_rng(seed)
        width = max(1, int(domain * selectivity))
        out = []
        for _ in range(n_queries):
            lo = int(rng.integers(1, max(2, domain - width)))
            out.append(Interval(lo, lo + width))
        return out
    return adversarial_intervals(pattern, domain, n_queries, selectivity, seed=seed)


def _digest(values: np.ndarray) -> str:
    return hashlib.sha1(np.sort(np.asarray(values, np.int64)).tobytes()).hexdigest()


def _run_sequence(arrays, intervals, policy_name, budget, seed, engine_cls):
    recorder = StatsRecorder(cache_elements=DEFAULT_MODEL.cache_elements)
    db = Database(
        recorder=recorder,
        crack_policy=resolve_policy(policy_name),
        crack_budget=budget,
        crack_seed=seed,
    )
    db.create_table("R", {k: v.copy() for k, v in arrays.items()})
    engine = engine_cls(db)
    if engine_cls is SelectionCrackingEngine:
        # Materialize the cracker column up front so the per-query frames
        # measure query work only, not the one-time copy of the base column
        # (2n writes that would otherwise land on whichever query comes
        # first and swamp the budget-cap check).
        db.cracker_column("R", "A")
    digests: list[str] = []
    per_query: list[AccessSample] = []
    for interval in intervals:
        with recorder.frame() as stats:
            result = engine.run(
                Query(table="R", predicates=(Predicate("A", interval),),
                      projections=("B",))
            )
        digests.append(_digest(result.columns["B"]))
        per_query.append((stats.total_touches, stats.writes,
                          DEFAULT_MODEL.cost_seconds(stats)))
    return digests, per_query, recorder


AccessSample = tuple  # (touched_elements, written_elements, model_seconds)


def _cell(per_query, baseline, budget_elements):
    touched = np.array([q[0] for q in per_query], dtype=np.float64)
    writes = np.array([q[1] for q in per_query], dtype=np.float64)
    seconds = np.array([q[2] for q in per_query], dtype=np.float64)
    tail = max(1, len(seconds) // 10)
    cell = {
        "touched_elements": int(touched.sum()),
        "touched_bytes": int(touched.sum()) * DEFAULT_MODEL.element_bytes,
        "model_seconds": float(seconds.sum()),
        "latency_variance": float(seconds.var()),
        "worst_query_seconds": float(seconds.max()),
        "worst_query_touched": int(touched.max()),
        "worst_query_writes": int(writes.max()),
        "tail_mean_seconds": float(seconds[-tail:].mean()),
        "tail_median_seconds": float(np.median(seconds[-tail:])),
        "matches_scan": baseline is not None,
    }
    if budget_elements is not None:
        # The construction-time guarantee: one progressive step over a
        # window of k classifies via at most 2k touches per array, and one
        # query's steps never exceed the allowance.
        cap = 2 * budget_elements * CRACKED_ARRAYS
        cell["budget_elements"] = int(budget_elements)
        cell["write_cap_elements"] = int(cap)
        cell["within_budget"] = bool(writes.max() <= cap)
    return cell


def run(
    scale: float | None = None,
    rows: int = 200_000,
    queries: int = 400,
    selectivity: float = 0.001,
    seed: int = 42,
    crack_budget: "str | float | None" = None,
) -> dict:
    scale = default_scale() if scale is None else scale
    rows = max(2_000, int(rows * scale))
    queries = max(40, int(queries * scale))
    domain = 10 * rows
    budget = parse_budget(crack_budget if crack_budget is not None
                          else DEFAULT_BUDGET)
    budget_elements = budget.per_query(rows)

    arrays = uniform_table(rows, domain, seed)

    grid: dict[str, dict[str, dict]] = {}
    mismatches: list[str] = []
    checks_flag = stochastic.REPLAY_BOUNDARY_CHECKS
    stochastic.REPLAY_BOUNDARY_CHECKS = False  # O(pieces) per align; grid is big
    try:
        for pattern in PATTERNS:
            intervals = _intervals(pattern, domain, queries, selectivity, seed)
            baseline, _, _ = _run_sequence(
                arrays, intervals, None, None, seed, PlainEngine
            )
            grid[pattern] = {}
            for name, policy_name, budgeted in CONFIGS:
                digests, per_query, _ = _run_sequence(
                    arrays, intervals, policy_name,
                    budget if budgeted else None, seed,
                    SelectionCrackingEngine,
                )
                ok = digests == baseline
                if not ok:
                    mismatches.append(f"{name}/{pattern}")
                cell = _cell(per_query, baseline if ok else None,
                             budget_elements if budgeted else None)
                cell["matches_scan"] = ok
                grid[pattern][name] = cell
    finally:
        stochastic.REPLAY_BOUNDARY_CHECKS = checks_flag

    # -- acceptance summary ---------------------------------------------------
    within_budget = all(
        grid[p][name]["within_budget"]
        for p in PATTERNS for name, _, budgeted in CONFIGS if budgeted
    )
    # Convergence is judged on the steady state the workload reaches: the
    # median per-query cost over the last 10% of queries must be within
    # 1.2x of eager MDD1R's (median, because at workload end both runs
    # still hit occasional fresh pieces whose crack cost spikes the mean).
    # The *cumulative* ratio is reported alongside but does not gate: any
    # scheme that bounds per-query reorganization defers classification,
    # and the deferred regions must be re-scanned to answer the queries in
    # between — a real, architecture-inherent transient that shows up in
    # Halim et al.'s progressive variants as well.
    drag = max(
        grid[p]["pmdd1r"]["tail_median_seconds"]
        / max(1e-12, grid[p]["mdd1r"]["tail_median_seconds"])
        for p in PATTERNS
    )
    cumulative = {
        p: grid[p]["pmdd1r"]["touched_bytes"]
        / max(1, grid[p]["mdd1r"]["touched_bytes"])
        for p in PATTERNS
    }
    # "Never worse than the worst static policy", with a small tolerance for
    # the monitor's warmup cracks.
    auto_margin = max(
        grid[p]["auto"]["touched_bytes"]
        / max(1, max(grid[p][s]["touched_bytes"] for s in STATIC_POLICIES))
        for p in ADVERSARIAL_PATTERNS
    )
    summary = {
        "budget": budget.describe(),
        "budget_elements": int(budget_elements),
        "progressive_within_2x_budget": within_budget,
        "pmdd1r_vs_mdd1r_worst_drag": drag,
        "pmdd1r_drag_ok": bool(drag <= 1.2),
        "pmdd1r_cumulative_ratio": cumulative,
        "auto_vs_worst_static_margin": auto_margin,
        "auto_ok": bool(auto_margin <= 1.05),
    }

    result = {
        "rows": rows,
        "queries": queries,
        "selectivity": selectivity,
        "domain": domain,
        "configs": [name for name, _, _ in CONFIGS],
        "patterns": list(PATTERNS),
        "grid": grid,
        "mismatches": mismatches,
        "all_match_scan": not mismatches,
        "summary": summary,
    }
    return result


def describe(result: dict) -> str:
    headers = ["pattern"] + list(result["configs"])
    rows = []
    for pattern in result["patterns"]:
        row = [pattern]
        for name in result["configs"]:
            cell = result["grid"][pattern][name]
            mark = "" if cell["matches_scan"] else " (MISMATCH)"
            row.append(
                f"{cell['touched_bytes'] / 1e6:,.0f} MB "
                f"/ wq {cell['worst_query_seconds'] * 1e3:,.2f} ms{mark}"
            )
        rows.append(row)
    table = format_table(
        headers, rows,
        "Exp16: cumulative bytes / worst-query model latency "
        f"({result['rows']:,} rows, {result['queries']} queries, "
        "selection-cracking engine)",
    )
    s = result["summary"]
    lines = [
        table,
        f"budget: {s['budget']} ({s['budget_elements']:,} elements/query)",
        "worst-query reorganization within 2x budget: "
        + ("yes" if s["progressive_within_2x_budget"] else "NO"),
        "converged per-query cost vs eager mdd1r (worst pattern, tail median): "
        f"{s['pmdd1r_vs_mdd1r_worst_drag']:.2f}x "
        + ("(<= 1.2x: ok)" if s["pmdd1r_drag_ok"] else "(EXCEEDS 1.2x)"),
        "cumulative transient vs eager mdd1r: "
        + ", ".join(f"{p}={r:.1f}x"
                    for p, r in s["pmdd1r_cumulative_ratio"].items()),
        f"auto vs worst static policy: {s['auto_vs_worst_static_margin']:.2f}x "
        + ("(never worse: ok)" if s["auto_ok"] else "(WORSE THAN WORST STATIC)"),
        "all runs match scan: "
        + ("yes" if result["all_match_scan"] else f"NO {result['mismatches']}"),
    ]
    return "\n".join(lines)
