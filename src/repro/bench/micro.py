"""Kernel microbenchmarks: each crack kernel and Ripple merge against its
copy ceiling.

The ``kernels`` experiment (``python -m repro.bench run ci/kernels.toml``)
times each crack kernel against the copy ceiling of the same work —
``np.copyto`` of the head and every tail over each segment ``[lo, hi)`` the
kernel rewrites, on the same arrays with the same restore setup — checks
every kernel's output against its specification (a stable partition gathers
every array through ``np.argsort(group_id, kind="stable")``), and measures
the multi-map gang-apply win and the ``min_piece`` sensitivity.  The four
``ripple_*`` cases time an in-place Ripple merge of a 10-row and of a
1 %-of-the-rows batch against ``np.copyto`` of the suffix a whole-suffix
merge moves, and check the merged pieces against a plain numpy merge.  The two
``encode_reply_*`` cases time served reply lines of a 10k-row and a
150-row two-column result as ``ServedResult.as_payload`` writes them,
against ``json.dumps`` of the same result with ``tolist()`` columns, and
check the two lines are byte-equal.

Each case's ``ratio`` is ``compare_ms / kernel_ms``: for the single-kernel
cases the fraction of the copy ceiling the kernel reaches, for
``gang_apply_x4`` the gang call's win over four individual calls.  The
registered ``kernels`` gate compares these ratios, not absolute times, so
the ``baseline/kernels`` ref from one machine remains meaningful on
another: a ratio only regresses when the kernel itself got slower relative
to a same-machine copy (see :func:`ratio_failures`).
"""

from __future__ import annotations

import json
import time
from typing import Callable, Sequence

import numpy as np

from repro.bench.harness import default_scale, time_alternating
from repro.bench.report import format_table
from repro.cracking import ripple
from repro.cracking.arena import KernelArena
from repro.cracking.bounds import Bound, Interval, Side
from repro.cracking.column import CrackerColumn
from repro.cracking.crack import crack_bound
from repro.cracking.index import CrackerIndex
from repro.cracking.kernels import crack_three, crack_two, sort_piece
from repro.cracking.stochastic import default_min_piece, resolve_policy
from repro.stats.counters import StatsRecorder
from repro.stats.memory_model import DEFAULT_MODEL
from repro.storage.bat import BAT

#: min_piece sweep points: 1/64th .. 4x the cache, bracketing the derived
#: default (cache_elements // 16) from both sides.
MIN_PIECE_SWEEP = (1024, 4096, 16384, 65536)


def _make_arrays(rows: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(seed)
    head = rng.integers(0, 10 * rows, size=rows).astype(np.int64)
    keys = np.arange(rows, dtype=np.int64)
    return head, keys


def _spec_partition(arrays: Sequence[np.ndarray], lo: int, hi: int, group_id) -> None:
    """The kernels' specification: a stable partition of ``[lo, hi)`` gathers
    every array through a stable argsort of the group ids."""
    order = np.argsort(group_id, kind="stable")
    for arr in arrays:
        arr[lo:hi] = arr[lo:hi][order]


def _case_record(
    name: str, rows: int, kernel: dict, compare: str, other: dict, identical: bool
) -> dict:
    kernel_ms = kernel["median_s"] * 1e3
    compare_ms = other["median_s"] * 1e3
    return {
        "case": name,
        "rows": rows,
        "kernel_ms": kernel_ms,
        "compare": compare,
        "compare_ms": compare_ms,
        "ratio": compare_ms / kernel_ms if kernel_ms > 0 else float("inf"),
        "identical": identical,
        "kernel_iqr_ms": kernel["iqr_s"] * 1e3,
        "compare_iqr_ms": other["iqr_s"] * 1e3,
        # Raw repeats, so artifact consumers can run real significance tests.
        "kernel_samples_s": kernel["samples_s"],
        "compare_samples_s": other["samples_s"],
    }


def _kernel_case(
    name: str,
    base: Sequence[np.ndarray],
    op: Callable,
    segments: Sequence[tuple[int, int]],
    spec: Callable,
    **timing,
) -> dict:
    """Time ``op(*arrays)`` against the copy ceiling of ``segments``.

    Both sides run on the same work arrays, restored from ``base`` before
    every repeat, their repeats interleaved; ``identical`` says ``op``
    rearranged the arrays (and returned) exactly what ``spec`` does.
    """
    work = [arr.copy() for arr in base]

    def restore() -> None:
        for dst, src in zip(work, base):
            dst[:] = src

    def copy_ceiling() -> None:
        for lo, hi in segments:
            for dst, src in zip(work, base):
                np.copyto(dst[lo:hi], src[lo:hi])

    kernel, ceiling = time_alternating(
        lambda: op(*work), copy_ceiling, setup=(restore, restore), **timing
    )
    got = [arr.copy() for arr in base]
    want = [arr.copy() for arr in base]
    identical = op(*got) == spec(*want) and all(
        np.array_equal(g, w) for g, w in zip(got, want)
    )
    return _case_record(name, len(base[0]), kernel, "copy", ceiling, identical)


def _bench_crack_two(rows: int, seed: int) -> dict:
    base = _make_arrays(rows, seed)
    bound = Bound(float(np.median(base[0])), Side.LT)

    def op(head, keys):
        return crack_two(head, [keys], 0, rows, bound)

    def spec(head, keys):
        below = bound.below_mask(head)
        _spec_partition((head, keys), 0, rows, ~below)
        return int(below.sum())

    return _kernel_case("crack_two", base, op, [(0, rows)], spec)


def _bench_crack_three(rows: int, seed: int) -> dict:
    base = _make_arrays(rows, seed)
    q25, q75 = np.percentile(base[0], [25, 75])
    lower, upper = Bound(float(q25), Side.LE), Bound(float(q75), Side.LT)

    def op(head, keys):
        return crack_three(head, [keys], 0, rows, lower, upper)

    def spec(head, keys):
        group = np.where(lower.below_mask(head), 0, np.where(upper.below_mask(head), 1, 2))
        _spec_partition((head, keys), 0, rows, group)
        return int((group == 0).sum()), int((group <= 1).sum())

    return _kernel_case("crack_three", base, op, [(0, rows)], spec)


def _bench_sort_piece(rows: int, seed: int) -> dict:
    base = _make_arrays(rows, seed)
    lo, hi = rows // 8, rows - rows // 8

    def op(head, keys):
        sort_piece(head, [keys], lo, hi)

    def spec(head, keys):
        _spec_partition((head, keys), lo, hi, head[lo:hi].copy())

    return _kernel_case("sort_piece", base, op, [(lo, hi)], spec)


def _bench_crack_sequence(rows: int, cracks: int, seed: int) -> dict:
    """A realistic convergence sequence: ``cracks`` bounds through the index."""
    base = _make_arrays(rows, seed)
    rng = np.random.default_rng(seed + 1)
    bounds = [
        Bound(float(v), Side.LT)
        for v in rng.integers(0, 10 * rows, size=cracks)
    ]

    def op(head, keys, segments=None):
        recorder = StatsRecorder()
        index = CrackerIndex()
        for bound in bounds:
            if segments is not None and index.position_of(bound) is None:
                segments.append(index.enclosing(bound, rows))
            crack_bound(index, head, [keys], bound, recorder)

    # One untimed pass records the pieces the cracks partition.
    segments: list[tuple[int, int]] = []
    op(*[arr.copy() for arr in base], segments=segments)
    # Stable partitions compose: the end state is a stable sort by final piece.
    cuts = np.unique([b.value for b in bounds])

    def spec(head, keys):
        _spec_partition((head, keys), 0, rows, np.searchsorted(cuts, head, side="right"))

    record = _kernel_case(
        "crack_sequence", base, op, segments, spec, repeats=5, warmup=1
    )
    record["cracks"] = cracks
    return record


def _bench_gang(rows: int, n_maps: int, seed: int) -> dict:
    """Gang apply vs per-map replay of one crack over ``n_maps`` siblings.

    The ratio isolates the shared-permutation win (one mask + one
    ``flatnonzero`` pass instead of ``n_maps``).
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

    t_gang, t_individual = time_alternating(
        gang, individual, setup=(restore, restore)
    )
    spec = [base_head.copy(), base_keys.copy()]
    _spec_partition(spec, 0, rows, ~bound.below_mask(base_head))

    def matches_spec(run: Callable[[], None]) -> bool:
        restore()
        run()
        return all(
            np.array_equal(h, spec[0]) and np.array_equal(t, spec[1])
            for h, t in zip(heads, tails)
        )

    identical = matches_spec(individual) and matches_spec(gang)
    record = _case_record(
        f"gang_apply_x{n_maps}", rows, t_gang, "individual", t_individual, identical
    )
    record["n_maps"] = n_maps
    return record


def _cracked_columns(
    rows: int, pieces: int, seed: int
) -> tuple[list[np.ndarray], CrackerIndex]:
    """A head and two tails cracked into ``pieces`` pieces, with its index."""
    head, keys = _make_arrays(rows, seed)
    rng = np.random.default_rng(seed + 3)
    cuts = np.sort(rng.choice(10 * rows, size=pieces - 1, replace=False))
    piece = np.searchsorted(cuts, head, side="right")
    order = np.argsort(piece, kind="stable")
    arrays = [head[order], keys[order], rng.integers(0, rows, size=rows)[order]]
    index = CrackerIndex()
    positions = np.searchsorted(piece[order], np.arange(1, pieces), side="left")
    for cut, pos in zip(cuts.tolist(), positions.tolist()):
        index.insert(Bound(float(cut), Side.LT), pos)
    return arrays, index


def _pieces_match(arrays: Sequence[np.ndarray], edges: np.ndarray, want) -> bool:
    """Same rows per piece, each head with its tails: sorted by (piece, key)
    the arrays equal ``want`` sorted the same way."""
    piece = np.repeat(np.arange(len(edges) - 1), np.diff(edges))
    got_order = np.lexsort((arrays[1], piece))
    want_order = np.lexsort((want[1], piece))
    return all(
        np.array_equal(g[got_order], w[want_order]) for g, w in zip(arrays, want)
    )


def _bench_ripple(kind: str, rows: int, batch: int, name: str, seed: int) -> dict:
    """One in-place Ripple merge of ``batch`` rows into ``rows`` rows cracked
    into 800 pieces.

    The ceiling copies the suffix a whole-suffix merge moves: from the end
    of the first affected piece (inserts) or the first victim (deletes).
    ``identical`` compares every piece, rows paired across the arrays,
    with ``np.insert`` / ``np.delete`` of the same batch.
    """
    base, base_index = _cracked_columns(rows, 800, seed)
    rng = np.random.default_rng(seed + 4)
    edges = base_index.piece_edges(rows)
    if kind == "insert":
        ins = [rng.integers(0, 10 * rows, size=batch),
               np.arange(rows, rows + batch), rng.integers(0, rows, size=batch)]
        target = base_index.piece_ids(ins[0])
        suffix = edges.item(target.min() + 1)
        new_edges = edges + np.concatenate(([0], np.cumsum(np.bincount(
            target, minlength=len(edges) - 1))))
        order = np.argsort(target, kind="stable")
        want = [np.insert(arr, edges[target[order] + 1], new[order])
                for arr, new in zip(base, ins)]
        out_rows = rows + batch

        def merge(index, arrays):
            return ripple.merge_insertions(index, arrays[0], arrays[1:], ins[0], ins[1:],
                                           StatsRecorder())
    else:
        victims = np.sort(rng.choice(rows, size=batch, replace=False))
        suffix = victims.item(0)
        new_edges = edges - np.searchsorted(victims, edges)
        want = [np.delete(arr, victims) for arr in base]
        out_rows = rows - batch

        def merge(index, arrays):
            return ripple.delete_positions(index, arrays[0], arrays[1:], victims,
                                           StatsRecorder())

    # Owned buffers, handed out afresh before every repeat, so each timed
    # merge takes the in-place path the engines take from their second
    # merge on.
    bufs = [np.empty(ripple._capacity(max(rows, out_rows)), arr.dtype) for arr in base]
    state: dict = {}

    def restore() -> None:
        state["arrays"] = [ripple._hand_out(buf, rows) for buf in bufs]
        for arr, src in zip(state["arrays"], base):
            arr[:] = src
        state["index"] = base_index.clone()

    work = [arr.copy() for arr in base]

    def restore_copy() -> None:
        for dst, src in zip(work, base):
            dst[:] = src

    def copy_ceiling() -> None:
        for dst, src in zip(work, base):
            np.copyto(dst[suffix:], src[suffix:])

    timed, ceiling = time_alternating(
        lambda: merge(state["index"], state["arrays"]), copy_ceiling,
        setup=(restore, restore_copy),
    )
    restore()
    head, tails = merge(state["index"], state["arrays"])
    got_edges = state["index"].piece_edges(out_rows)
    identical = np.array_equal(got_edges, new_edges) and _pieces_match(
        [head, *tails], got_edges, want
    )
    record = _case_record(name, rows, timed, "copy", ceiling, identical)
    record["batch"] = batch
    return record


def _bench_encode_reply(name: str, rows: int, replies: int, seed: int) -> dict:
    """``replies`` served reply lines of one ``rows``-row, two-column result:
    the vectorized encoder against ``tolist()`` + ``json.dumps``."""
    from repro.server.executor import ServedResult
    from repro.server.serve import _result_frame

    rng = np.random.default_rng(seed)
    columns = {c: rng.integers(1, 10**7 + 1, rows) for c in "BC"}
    result = ServedResult(
        columns=columns, aggregates={"max(C)": float(columns["C"].max())},
        row_count=rows, path="process", elapsed_seconds=0.0042,
    )
    result.digest()  # memoized: neither side times the sha1

    def encoder() -> bytes:
        return _result_frame(result.as_payload())

    def dumps() -> bytes:
        payload = {
            "columns": {k: v.tolist() for k, v in result.columns.items()},
            "aggregates": result.aggregates,
            "row_count": result.row_count,
            "path": result.path,
            "cached": result.cached,
            "elapsed_seconds": result.elapsed_seconds,
            "fault_recovered": result.fault_recovered,
            "degraded": result.degraded,
            "digest": result.digest(),
        }
        return json.dumps({"ok": True, "result": payload}).encode() + b"\n"

    def repeat(encode: Callable[[], bytes]) -> Callable[[], None]:
        return lambda: [encode() for _ in range(replies)]

    timed, compare = time_alternating(repeat(encoder), repeat(dumps), repeats=15)
    record = _case_record(name, rows, timed, "json.dumps", compare, encoder() == dumps())
    record["replies"] = replies
    return record


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
    base_head, base_keys = _make_arrays(rows, seed)
    arena = KernelArena()
    rng = np.random.default_rng(seed + 2)
    index = CrackerIndex()
    for v in rng.integers(0, 10 * rows, size=64):
        bound = Bound(float(v), Side.LT)
        if index.position_of(bound) is not None:
            continue
        lo, hi = index.enclosing(bound, rows)
        split = crack_two(base_head, [base_keys], lo, hi, bound, arena)
        index.insert(bound, split)
    return {"rows": rows, "cracks": 64, **arena.stats()}


def run(
    scale: float | None = None,
    rows: int = 1_000_000,
    seed: int = 42,
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
        *(
            _bench_ripple(kind, rows, batch, f"ripple_{kind}_{label}", seed)
            for kind in ("insert", "delete")
            for label, batch in (("x10", 10), ("lfhv", rows // 100))
        ),
        _bench_encode_reply("encode_reply_10k", 10_000, replies=10, seed=seed),
        _bench_encode_reply("encode_reply_150", 150, replies=400, seed=seed),
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
    return result


def describe(result: dict) -> str:
    rows = [
        [c["case"], c["rows"], c["kernel_ms"], c["compare"], c["compare_ms"],
         f"{c['ratio']:.2f}", "yes" if c["identical"] else "NO"]
        for c in result["cases"]
    ]
    table = format_table(
        ["case", "rows", "kernel_ms", "compare", "compare_ms", "ratio", "spec"],
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
    verdict = "every case matches" if result["all_identical"] else "MISMATCH"
    return "\n".join([table, "", sweep, "", arena_line, f"spec: {verdict}"])


def ratio_failures(result: dict, baseline: dict, tolerance_pct: float) -> list[str]:
    """Ratio regression check; returns human-readable failures.

    Only cases whose row count and ``compare`` side match the baseline's are
    compared — ratios shift with size, so a scaled-down smoke run must not
    be judged against a full-scale baseline, and a ratio against another
    denominator is not the same number.
    """
    failures = []
    base_cases = {c["case"]: c for c in baseline.get("cases", [])}
    for case in result["cases"]:
        base = base_cases.get(case["case"])
        if (base is None or base["rows"] != case["rows"]
                or base.get("compare") != case["compare"]):
            continue
        floor = base["ratio"] * (1 - tolerance_pct / 100.0)
        if case["ratio"] < floor:
            failures.append(
                f"{case['case']}: ratio {case['ratio']:.2f} vs {case['compare']} "
                f"fell below {floor:.2f} ({tolerance_pct:.0f}% under baseline "
                f"{base['ratio']:.2f})"
            )
    return failures
