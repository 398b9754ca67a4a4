"""Exp10 (Fig. 12): adapting to frequently changing workloads.

Fixed S (1% of rows) and T = 6·rows; the workload switches query type every
``batch`` queries, with batch lengths from long (rare changes) to one query
(change every query).  Full maps degrade sharply as changes become frequent
(drop + recreate churn); partial maps stay nearly flat.
"""

from __future__ import annotations

from repro.bench.partial_common import FULL, PARTIAL, make_workload, run_sequence
from repro.bench.report import format_table

BATCHES = (100, 50, 10, 5, 1)


def run(scale: float | None = None, queries: int = 300, seed: int = 67) -> dict:
    workload = make_workload(scale, seed)
    budget = 6.0 * workload.rows
    result_rows = max(50, workload.rows // 100)
    totals: dict[int, dict[str, float]] = {}
    totals_model: dict[int, dict[str, float]] = {}
    for batch in BATCHES:
        sequence = workload.sequence(queries, batch, result_rows)
        changes = queries // batch
        totals[changes] = {}
        totals_model[changes] = {}
        for system in (FULL, PARTIAL):
            runner = run_sequence(workload, sequence, system, budget)
            totals[changes][system] = runner.cumulative_seconds()
            totals_model[changes][system] = runner.cumulative_model_ms()
    return {"rows": workload.rows, "queries": queries, "totals_seconds": totals,
            "totals_model_ms": totals_model}


def describe(result: dict) -> str:
    headers = ["workload changes", "full (s)", "partial (s)", "full/partial",
               "full/partial (model)"]
    rows = []
    for changes, systems in sorted(result["totals_seconds"].items()):
        full = systems[FULL]
        partial = systems[PARTIAL]
        model = result["totals_model_ms"][changes]
        rows.append(
            [changes, full, partial, full / partial if partial else float("nan"),
             model[FULL] / model[PARTIAL]]
        )
    return format_table(
        headers, rows,
        f"Fig 12: total cost of {result['queries']} queries vs change rate",
    )
