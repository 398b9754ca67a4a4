"""Benchmark drivers for the future-work extensions.

* piece-exploiting ``max`` vs scanning the qualifying area;
* cracker join vs a monolithic hash join over cracked inputs;
* row-store cracking vs column-wise sideways cracking as the projection
  count grows.

``run()`` runs all three; the ``extensions`` gate judges each one's claim.
"""

from __future__ import annotations

import numpy as np

from repro.bench.harness import default_scale
from repro.bench.report import variant_table
from repro.core.aggregates import selection_max
from repro.core.sideways import SidewaysCracker
from repro.cracking.column import CrackerColumn
from repro.engine.cracker_join import cracker_join, monolithic_join
from repro.extensions.row_cracking import RowCracker
from repro.stats.counters import StatsRecorder
from repro.stats.memory_model import DEFAULT_MODEL
from repro.storage.bat import BAT
from repro.storage.relation import Relation
from repro.workloads.synthetic import make_table_arrays, random_range


def piece_max(scale: float | None = None, queries: int = 100, seed: int = 131) -> dict:
    """max(A) over range selections: last-piece read vs area scan."""
    scale = scale if scale is not None else default_scale()
    rows = max(20_000, int(100_000 * scale))
    domain = rows * 100
    arrays = make_table_arrays(rows, ["A"], domain, seed)
    rel = Relation.from_arrays("R", arrays)
    rng = np.random.default_rng(seed)
    intervals = [random_range(rng, domain, 0.2) for _ in range(queries)]

    out = {}
    for label in ("piece_exploiting", "area_scan"):
        recorder = StatsRecorder()
        cracker = SidewaysCracker(rel, recorder=recorder)
        answers = []
        for iv in intervals:
            if label == "piece_exploiting":
                answers.append(selection_max(cracker, "A", iv, recorder))
            else:
                mapset = cracker.set_for("A")
                cmap, lo, hi = mapset.select("@key", iv)
                recorder.sequential(hi - lo)
                answers.append(float(cmap.head[lo:hi].max()))
        out[label] = {
            "model_ms": DEFAULT_MODEL.cost_ms(recorder.root),
            "answers_checksum": round(float(np.sum(answers)), 2),
        }
    return {"rows": rows, "queries": queries, "totals": out}


def join_strategies(scale: float | None = None, warm_queries: int = 40,
                    seed: int = 137) -> dict:
    """Join two pre-cracked columns: piece-wise vs monolithic."""
    scale = scale if scale is not None else default_scale()
    rows = max(20_000, int(100_000 * scale))
    domain = rows  # dense join domain so matches exist
    rng = np.random.default_rng(seed)
    left_values = rng.integers(0, domain, size=rows).astype(np.int64)
    right_values = rng.integers(0, domain, size=rows).astype(np.int64)

    out = {}
    for label in ("cracker_join", "hash_join"):
        recorder = StatsRecorder()
        left = CrackerColumn(BAT.from_values(left_values), recorder)
        right = CrackerColumn(BAT.from_values(right_values), recorder)
        warm_rng = np.random.default_rng(seed + 1)
        for _ in range(warm_queries):
            left.select(random_range(warm_rng, domain, 0.05))
            right.select(random_range(warm_rng, domain, 0.05))
        with recorder.frame() as stats:
            if label == "cracker_join":
                lk, rk = cracker_join(left, right, recorder)
            else:
                lk, rk = monolithic_join(left, right, recorder)
        out[label] = {
            "model_ms": DEFAULT_MODEL.cost_ms(stats),
            "matches": len(lk),
        }
    return {"rows": rows, "totals": out}


def row_vs_column(scale: float | None = None, queries: int = 60,
                  seed: int = 139) -> dict:
    """Row-store cracking vs column sideways cracking, 1 vs 6 projections."""
    scale = scale if scale is not None else default_scale()
    rows = max(20_000, int(100_000 * scale))
    domain = rows * 100
    attrs = ["A"] + [f"P{i}" for i in range(1, 7)]
    arrays = make_table_arrays(rows, attrs, domain, seed)
    rel = Relation.from_arrays("R", arrays)
    rng_intervals = np.random.default_rng(seed)
    intervals = [random_range(rng_intervals, domain, 0.1) for _ in range(queries)]

    out = {}
    for k in (1, 6):
        projections = [f"P{i}" for i in range(1, k + 1)]
        rec_row = StatsRecorder()
        row = RowCracker(rel, "A", rec_row)
        rec_col = StatsRecorder()
        col = SidewaysCracker(rel, recorder=rec_col)
        for iv in intervals:
            got_row = row.select(iv, projections)
            got_col = col.select_project("A", iv, projections)
            assert len(got_row[projections[0]]) == len(got_col[projections[0]])
        out[f"row_cracking k={k}"] = {
            "model_ms": DEFAULT_MODEL.cost_ms(rec_row.root)}
        out[f"sideways k={k}"] = {
            "model_ms": DEFAULT_MODEL.cost_ms(rec_col.root)}
    return {"rows": rows, "queries": queries, "totals": out}


#: The extension studies, keyed by the name their result carries.
EXTENSIONS = {
    "piece_max": piece_max,
    "join_strategies": join_strategies,
    "row_vs_column": row_vs_column,
}


def run(scale: float | None = None) -> dict:
    """Every extension study at ``scale``, keyed by name."""
    return {name: study(scale=scale) for name, study in EXTENSIONS.items()}


def describe(result: dict) -> str:
    return "\n\n".join(
        variant_table(f"Extension: {name.replace('_', ' ')}", study["totals"])
        for name, study in result.items())
