"""Exp9 (Fig. 11): no overhead in query-sequence cost.

Total cumulative cost of the whole batch-workload sequence, varying the
result size S and the storage threshold T, for full vs partial maps.  The
paper's finding: at low selectivity (large S) the two tie; with selective
queries partial maps win outright — their smoother behavior is free.
"""

from __future__ import annotations

from repro.bench.partial_common import FULL, PARTIAL, make_workload, run_sequence
from repro.bench.report import format_table

RESULT_FRACTIONS = (0.001, 0.01, 0.1, 0.3)
THRESHOLDS = {"noT": None, "T=6.5R": 6.5, "T=2R": 2.0}


def run(scale: float | None = None, queries: int = 300, batch: int = 30,
        seed: int = 61) -> dict:
    workload = make_workload(scale, seed)
    totals: dict[str, dict[str, float]] = {}
    totals_model: dict[str, dict[str, float]] = {}
    for fraction in RESULT_FRACTIONS:
        result_rows = max(20, int(workload.rows * fraction))
        sequence = workload.sequence(queries, batch, result_rows)
        for t_label, factor in THRESHOLDS.items():
            budget = None if factor is None else factor * workload.rows
            key = f"S={fraction:g} {t_label}"
            totals[key] = {}
            totals_model[key] = {}
            for system in (FULL, PARTIAL):
                runner = run_sequence(workload, sequence, system, budget)
                totals[key][system] = runner.cumulative_seconds()
                totals_model[key][system] = runner.cumulative_model_ms()
    return {"rows": workload.rows, "queries": queries, "totals_seconds": totals,
            "totals_model_ms": totals_model}


def describe(result: dict) -> str:
    headers = ["case", "full (s)", "partial (s)", "partial/full",
               "partial/full (model)"]
    rows = []
    for case, systems in result["totals_seconds"].items():
        full = systems[FULL]
        partial = systems[PARTIAL]
        model = result["totals_model_ms"][case]
        rows.append([case, full, partial,
                     partial / full if full else float("nan"),
                     model[PARTIAL] / model[FULL]])
    return format_table(
        headers, rows, "Fig 11: total cumulative cost over the sequence"
    )
