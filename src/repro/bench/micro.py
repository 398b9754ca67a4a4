"""Kernel microbenchmarks and the perf-regression gate.

``python -m repro.bench.micro`` times the crack kernels on both backends
(``reference`` — the original allocating kernels — and ``fused`` — the
arena-backed rewrite, see ``docs/kernels.md``), verifies they produce
bit-identical arrays, measures the multi-map gang-apply win and the
``min_piece`` sensitivity, and writes everything to ``BENCH_kernels.json``.

The regression gate compares *speedup ratios* (fused over reference, gang
over individual), not absolute times, so a checked-in baseline from one
machine remains meaningful on another: a ratio only regresses when the
fused path itself got slower relative to the same-machine reference.
Gate usage (what CI runs)::

    python -m repro.bench.micro --json BENCH_current.json \
        --gate BENCH_kernels.json --tolerance 50

fails (exit 1) when any case's speedup drops more than ``tolerance``
percent below the baseline's, comparing only cases run at the same row
count as the baseline.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import numpy as np

from repro.bench.harness import default_scale, time_callable
from repro.bench.report import format_table
from repro.cracking.arena import KernelArena
from repro.cracking.bounds import Bound, Interval, Side
from repro.cracking.column import CrackerColumn
from repro.cracking.crack import crack_bound
from repro.cracking.index import CrackerIndex
from repro.cracking.kernels import crack_three, crack_two, sort_piece, use_backend
from repro.cracking.stochastic import default_min_piece, resolve_policy
from repro.stats.counters import StatsRecorder
from repro.stats.memory_model import DEFAULT_MODEL
from repro.storage.bat import BAT

BACKENDS = ("reference", "fused")

#: min_piece sweep points: 1/64th .. 4x the cache, bracketing the derived
#: default (cache_elements // 16) from both sides.
MIN_PIECE_SWEEP = (1024, 4096, 16384, 65536)


def _make_arrays(rows: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(seed)
    head = rng.integers(0, 10 * rows, size=rows).astype(np.int64)
    keys = np.arange(rows, dtype=np.int64)
    return head, keys


def _timed_backends(base_head, base_keys, op) -> dict:
    """Time ``op(head, keys)`` under both backends on restored inputs."""
    work_head = base_head.copy()
    work_keys = base_keys.copy()

    def restore() -> None:
        work_head[:] = base_head
        work_keys[:] = base_keys

    out: dict[str, dict] = {}
    for backend in BACKENDS:
        with use_backend(backend):
            out[backend] = time_callable(
                lambda: op(work_head, work_keys), setup=restore
            )
    return out


def _verify_identical(base_head, base_keys, op) -> bool:
    results = []
    for backend in BACKENDS:
        head, keys = base_head.copy(), base_keys.copy()
        with use_backend(backend):
            ret = op(head, keys)
        results.append((head, keys, ret))
    (h1, k1, r1), (h2, k2, r2) = results
    return bool(np.array_equal(h1, h2) and np.array_equal(k1, k2) and r1 == r2)


def _case_record(name: str, rows: int, timings: dict, identical: bool) -> dict:
    ref_ms = timings["reference"]["median_s"] * 1e3
    fused_ms = timings["fused"]["median_s"] * 1e3
    return {
        "case": name,
        "rows": rows,
        "reference_ms": ref_ms,
        "fused_ms": fused_ms,
        "speedup": ref_ms / fused_ms if fused_ms > 0 else float("inf"),
        "identical": identical,
        "reference_iqr_ms": timings["reference"]["iqr_s"] * 1e3,
        "fused_iqr_ms": timings["fused"]["iqr_s"] * 1e3,
        # Raw repeats, so artifact consumers can run real significance tests.
        "reference_samples_s": timings["reference"]["samples_s"],
        "fused_samples_s": timings["fused"]["samples_s"],
    }


def _bench_crack_two(rows: int, seed: int) -> dict:
    base_head, base_keys = _make_arrays(rows, seed)
    bound = Bound(float(np.median(base_head)), Side.LT)

    def op(head, keys):
        return crack_two(head, [keys], 0, len(head), bound)

    return _case_record(
        "crack_two", rows,
        _timed_backends(base_head, base_keys, op),
        _verify_identical(base_head, base_keys, op),
    )


def _bench_crack_three(rows: int, seed: int) -> dict:
    base_head, base_keys = _make_arrays(rows, seed)
    q25, q75 = np.percentile(base_head, [25, 75])
    lower, upper = Bound(float(q25), Side.LE), Bound(float(q75), Side.LT)

    def op(head, keys):
        return crack_three(head, [keys], 0, len(head), lower, upper)

    return _case_record(
        "crack_three", rows,
        _timed_backends(base_head, base_keys, op),
        _verify_identical(base_head, base_keys, op),
    )


def _bench_sort_piece(rows: int, seed: int) -> dict:
    base_head, base_keys = _make_arrays(rows, seed)
    lo, hi = rows // 8, rows - rows // 8

    def op(head, keys):
        sort_piece(head, [keys], lo, hi)
        return None

    return _case_record(
        "sort_piece", rows,
        _timed_backends(base_head, base_keys, op),
        _verify_identical(base_head, base_keys, op),
    )


def _bench_crack_sequence(rows: int, cracks: int, seed: int) -> dict:
    """A realistic convergence sequence: ``cracks`` bounds through the index."""
    base_head, base_keys = _make_arrays(rows, seed)
    rng = np.random.default_rng(seed + 1)
    bounds = [
        Bound(float(v), Side.LT)
        for v in rng.integers(0, 10 * rows, size=cracks)
    ]
    work_head = base_head.copy()
    work_keys = base_keys.copy()
    state: dict[str, CrackerIndex] = {}

    def restore() -> None:
        work_head[:] = base_head
        work_keys[:] = base_keys
        state["index"] = CrackerIndex()

    def op() -> None:
        recorder = StatsRecorder()
        index = state["index"]
        for bound in bounds:
            crack_bound(index, work_head, [work_keys], bound, recorder)

    timings = {}
    for backend in BACKENDS:
        with use_backend(backend):
            timings[backend] = time_callable(op, repeats=5, warmup=1, setup=restore)

    def verify_op(head, keys):
        recorder = StatsRecorder()
        index = CrackerIndex()
        for bound in bounds:
            crack_bound(index, head, [keys], bound, recorder)
        return None

    record = _case_record(
        "crack_sequence", rows, timings,
        _verify_identical(base_head, base_keys, verify_op),
    )
    record["cracks"] = cracks
    return record


def _bench_gang(rows: int, n_maps: int, seed: int) -> dict:
    """Gang apply vs per-map replay of one crack over ``n_maps`` siblings.

    Both run on the fused backend; the ratio isolates the shared-permutation
    win (one mask + one ``flatnonzero`` pass instead of ``n_maps``).
    """
    base_head, base_keys = _make_arrays(rows, seed)
    bound = Bound(float(np.median(base_head)), Side.LT)
    heads = [base_head.copy() for _ in range(n_maps)]
    tails = [base_keys.copy() for _ in range(n_maps)]

    def restore() -> None:
        for h, t in zip(heads, tails):
            h[:] = base_head
            t[:] = base_keys

    def individual() -> None:
        for h, t in zip(heads, tails):
            crack_two(h, [t], 0, rows, bound)

    def gang() -> None:
        extra = [arr for pair in zip(heads[1:], tails[1:]) for arr in pair]
        crack_two(heads[0], [tails[0], *extra], 0, rows, bound)

    with use_backend("fused"):
        t_individual = time_callable(individual, setup=restore)
        t_gang = time_callable(gang, setup=restore)
        restore()
        individual()
        snap = [(h.copy(), t.copy()) for h, t in zip(heads, tails)]
        restore()
        gang()
        identical = all(
            np.array_equal(h, sh) and np.array_equal(t, st)
            for (h, t), (sh, st) in zip(zip(heads, tails), snap)
        )
    ind_ms = t_individual["median_s"] * 1e3
    gang_ms = t_gang["median_s"] * 1e3
    return {
        "case": f"gang_apply_x{n_maps}",
        "rows": rows,
        "reference_ms": ind_ms,  # "reference" = per-map individual replay
        "fused_ms": gang_ms,
        "speedup": ind_ms / gang_ms if gang_ms > 0 else float("inf"),
        "identical": identical,
        "n_maps": n_maps,
        "reference_samples_s": t_individual["samples_s"],
        "fused_samples_s": t_gang["samples_s"],
    }


def _bench_min_piece(rows: int, queries: int, seed: int) -> list[dict]:
    """Model-cost sensitivity of MDD1R to the ``min_piece`` knob."""
    rng = np.random.default_rng(seed)
    values = rng.integers(0, 10 * rows, size=rows).astype(np.int64)
    lows = rng.integers(0, 10 * rows - rows // 100, size=queries)
    intervals = [Interval.half_open(float(lo), float(lo + rows // 100)) for lo in lows]
    out = []
    for min_piece in MIN_PIECE_SWEEP:
        recorder = StatsRecorder(cache_elements=DEFAULT_MODEL.cache_elements)
        column = CrackerColumn(
            BAT.from_values(values.copy()),
            recorder=recorder,
            policy=resolve_policy("mdd1r", min_piece=min_piece),
        )
        start = time.perf_counter()
        for interval in intervals:
            column.select_area(interval)
        wall_s = time.perf_counter() - start
        out.append({
            "min_piece": min_piece,
            "is_default": min_piece == default_min_piece(),
            "model_ms": DEFAULT_MODEL.cost_ms(recorder.root),
            "wall_s": wall_s,
            "pieces": len(column.index) + 1,
            "stochastic_cuts": column.stochastic_cuts,
        })
    return out


def _bench_arena(rows: int, seed: int) -> dict:
    """Arena behavior on a shrinking-piece workload: resizes stay logarithmic."""
    from repro.cracking.kernels import fused_crack_two

    base_head, base_keys = _make_arrays(rows, seed)
    arena = KernelArena()
    rng = np.random.default_rng(seed + 2)
    index = CrackerIndex()
    for v in rng.integers(0, 10 * rows, size=64):
        bound = Bound(float(v), Side.LT)
        if index.position_of(bound) is not None:
            continue
        lo, hi = index.enclosing(bound, rows)
        split = fused_crack_two(base_head, [base_keys], lo, hi, bound, arena)
        index.insert(bound, split)
    return {"rows": rows, "cracks": 64, **arena.stats()}


def run(
    scale: float | None = None,
    rows: int = 1_000_000,
    seed: int = 42,
    json_path: str | None = None,
) -> dict:
    scale = default_scale() if scale is None else scale
    rows = max(4_096, int(rows * scale))
    sort_rows = max(2_048, rows // 4)
    gang_rows = max(2_048, rows // 2)
    sweep_rows = max(4_096, rows // 5)

    cases = [
        _bench_crack_two(rows, seed),
        _bench_crack_three(rows, seed),
        _bench_sort_piece(sort_rows, seed),
        _bench_crack_sequence(rows, cracks=256, seed=seed),
        _bench_gang(gang_rows, n_maps=4, seed=seed),
    ]
    result = {
        "bench": "kernels",
        "rows": rows,
        "seed": seed,
        "cases": cases,
        "min_piece_sweep": _bench_min_piece(sweep_rows, queries=256, seed=seed),
        "arena": _bench_arena(rows, seed),
        "all_identical": all(c["identical"] for c in cases),
    }
    if json_path:
        with open(json_path, "w") as handle:
            json.dump(result, handle, indent=2)
    return result


def describe(result: dict) -> str:
    rows = [
        [c["case"], c["rows"], c["reference_ms"], c["fused_ms"],
         f"{c['speedup']:.2f}x", "yes" if c["identical"] else "NO"]
        for c in result["cases"]
    ]
    table = format_table(
        ["case", "rows", "reference_ms", "fused_ms", "speedup", "identical"],
        rows,
        f"Kernel microbenchmarks (median of k, {result['rows']:,} rows base)",
    )
    sweep_rows = [
        [s["min_piece"], "*" if s["is_default"] else "", s["model_ms"],
         s["wall_s"] * 1e3, s["pieces"], s["stochastic_cuts"]]
        for s in result["min_piece_sweep"]
    ]
    sweep = format_table(
        ["min_piece", "default", "model_ms", "wall_ms", "pieces", "cuts"],
        sweep_rows,
        "min_piece sensitivity (MDD1R, 256 range queries)",
    )
    arena = result["arena"]
    arena_line = (
        f"arena: {arena['cracks']} cracks over {arena['rows']:,} rows -> "
        f"{arena['resizes']} buffer resizes, peak request "
        f"{arena['peak_request']:,} elements"
    )
    verdict = "bit-identical" if result["all_identical"] else "MISMATCH"
    return "\n".join([table, "", sweep, "", arena_line, f"backends: {verdict}"])


def check_gate(result: dict, baseline: dict, tolerance_pct: float) -> list[str]:
    """Speedup-ratio regression check; returns human-readable failures.

    Only cases whose row count matches the baseline's are compared — the
    fused win shrinks at small sizes, so a scaled-down smoke run must not
    be judged against a full-scale baseline.
    """
    failures = []
    if not result["all_identical"]:
        failures.append("backend outputs are not bit-identical")
    base_cases = {c["case"]: c for c in baseline.get("cases", [])}
    for case in result["cases"]:
        base = base_cases.get(case["case"])
        if base is None or base["rows"] != case["rows"]:
            continue
        floor = base["speedup"] * (1 - tolerance_pct / 100.0)
        if case["speedup"] < floor:
            failures.append(
                f"{case['case']}: speedup {case['speedup']:.2f}x fell below "
                f"{floor:.2f}x ({tolerance_pct:.0f}% under baseline "
                f"{base['speedup']:.2f}x)"
            )
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", type=float, default=None,
                        help="row-count scale factor (default: $REPRO_SCALE or 1)")
    parser.add_argument("--rows", type=int, default=1_000_000)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--json", dest="json_path", default=None,
                        help="write the result JSON here")
    parser.add_argument("--gate", default=None,
                        help="baseline JSON to run the regression gate against")
    parser.add_argument("--tolerance", type=float, default=50.0,
                        help="allowed %% speedup regression vs baseline")
    args = parser.parse_args(argv)

    result = run(scale=args.scale, rows=args.rows, seed=args.seed,
                 json_path=args.json_path)
    print(describe(result))
    if args.gate:
        with open(args.gate) as handle:
            baseline = json.load(handle)
        failures = check_gate(result, baseline, args.tolerance)
        if failures:
            print("\nPERF GATE FAILED:")
            for failure in failures:
                print(f"  - {failure}")
            return 1
        print("\nperf gate: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
