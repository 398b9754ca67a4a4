"""Driver of the three in-process workloads: one thread, closed loop.

A *repetition* builds a fresh ``Database`` over the generated table and runs
the run's generated op sequence against a ``SidewaysEngine``; repetitions
repeat until the timed window is full, so every run measures whole
cold-to-converged sequences (the paper's claim is about sequences, not steady
state).  Every repetition runs the same sequence, so each op is timed once per
repetition and its latency is the fastest of those: the host only ever adds
time, and it rarely adds it to the same op every time.  Answers are checked
against the oracle after each repetition's clock has stopped.

In a traced run, odd repetitions run with the span wrappers installed and
even ones without, so one run yields both the per-layer numbers and the
tracing overhead.
"""

from __future__ import annotations

import gc
import pathlib
import time
from dataclasses import dataclass, field

import numpy as np

from repro import Database, Interval, Predicate, Query, SidewaysEngine

from . import layers, measure, spans, workloads
from .measure import Outcome
from .oracle import Oracle
from .workloads import QuerySpec, TABLE

HEAD_QUERIES = 16  # engine.head_s: the cold start of every repetition
_STAT_FIELDS = (
    "sequential", "clustered_random", "scattered_random", "writes", "cracks",
    "alignment_replays", "map_creations", "chunk_creations", "chunk_drops",
)


def to_query(spec: QuerySpec) -> Query:
    return Query(
        TABLE,
        predicates=tuple(
            Predicate(attr, Interval.open(lo, hi)) for attr, lo, hi in spec.predicates
        ),
        projections=spec.projections,
        aggregates=spec.aggregates,
    )


def _build(name: str, table: dict[str, np.ndarray]):
    """The program-side set-up of one repetition (timed as ``setup_s``)."""
    partial = name == "partial_budget"
    budget = workloads.PARTIAL_BUDGET_FACTOR * len(table["A"]) if partial else None
    db = Database(chunk_budget=budget)
    db.create_table(TABLE, table)
    return db, SidewaysEngine(db, partial=partial)


_CLEAR_REFS = pathlib.Path("/proc/self/clear_refs")


def _reset_peak_rss() -> None:
    """Start a new high-water mark, so every repetition reports its own peak.

    The lifetime peak of a process that allocates and frees tens of MB per
    update follows the allocator's mood; the median of per-repetition peaks
    does not.  The previous repetition's database is a reference cycle:
    until it is collected its 50 to 70 MB count towards the next peak.
    Where the kernel refuses, the lifetime peak is what is left.
    """
    gc.collect()
    try:
        _CLEAR_REFS.write_text("5")
    except OSError:
        pass


@dataclass
class Repetition:
    traced: bool
    setup_s: float
    wall_s: float
    peak_rss_mb: float
    query_s: np.ndarray
    update_s: np.ndarray
    failed: int
    stats: dict[str, int] = field(default_factory=dict)
    peak_aux_tuples: float = 0.0


def run_repetition(
    name: str, seed: int, repetition: int, ops: list,
    table: dict[str, np.ndarray], oracle: Oracle, tracer: "spans.Tracer | None",
) -> Repetition:
    # Another 5 % of the answers gets its content checked in every repetition.
    sampled = workloads.content_sample(seed, name, repetition, len(ops))
    program_ops = [op if isinstance(op, workloads.UpdateSpec) else to_query(op) for op in ops]
    seconds = np.zeros(len(ops))
    answers: list = [None] * len(ops)
    stats = dict.fromkeys(_STAT_FIELDS, 0)
    peak_aux = 0.0

    _reset_peak_rss()
    if tracer is not None:
        tracer.install()
    try:
        started = time.perf_counter()
        db, engine = _build(name, table)
        setup_s = time.perf_counter() - started

        wall_started = time.perf_counter()
        for i, op in enumerate(program_ops):
            t0 = time.perf_counter()
            try:
                if isinstance(op, Query):
                    result = engine.run(op)
                else:
                    keys = db.insert(TABLE, op.rows)
                    db.delete(TABLE, op.victims)
            except Exception as exc:  # a failed op must not end the run
                seconds[i] = time.perf_counter() - t0
                answers[i] = exc
                continue
            seconds[i] = time.perf_counter() - t0
            # Only scalars outlive the op (full columns for the 5 % sample):
            # keeping every result would hold hundreds of MB per repetition.
            if isinstance(op, Query):
                answers[i] = (
                    result.row_count, result.aggregates,
                    result.columns if sampled[i] else None,
                )
                if tracer is not None:
                    for key in _STAT_FIELDS:
                        stats[key] += getattr(result.stats, key)
            else:
                answers[i] = keys
            if tracer is not None:
                peak_aux = max(
                    peak_aux,
                    db.full_map_storage.used_tuples + db.chunk_storage.used_tuples,
                )
        wall_s = time.perf_counter() - wall_started
        peak_rss_mb = measure.peak_rss_mb()
    finally:
        if tracer is not None:
            tracer.uninstall()

    failed = 0
    is_query = np.array([isinstance(op, QuerySpec) for op in ops])
    for op, answer in zip(ops, answers):
        if isinstance(answer, Exception):
            failed += 1
        elif isinstance(op, QuerySpec):
            row_count, aggregates, columns = answer
            failed += not oracle.check(op, row_count, aggregates, columns)
        else:
            failed += not np.array_equal(answer, op.keys)
            oracle.apply(op)
    return Repetition(
        traced=tracer is not None, setup_s=setup_s, wall_s=wall_s,
        peak_rss_mb=peak_rss_mb, query_s=seconds[is_query],
        update_s=seconds[~is_query], failed=failed, stats=stats,
        peak_aux_tuples=peak_aux,
    )


def run(name: str, seed: int, seconds: float, scale: float, trace: bool) -> Outcome:
    table = workloads.make_table(seed, name, scale)
    ops = workloads.repetition_ops(seed, name, scale)
    rows = len(table["A"])
    static = name != "mixed_updates"
    shared_oracle = Oracle(table) if static else None
    tracer = spans.Tracer(layers.TARGETS) if trace else None
    summary: dict[str, dict[str, float]] = {}

    repetitions: list[Repetition] = []
    timed = 0.0
    while timed < seconds or (trace and len(repetitions) < 2):
        traced = trace and len(repetitions) % 2 == 1
        rep = run_repetition(
            name, seed, len(repetitions), ops, table,
            shared_oracle or Oracle(table), tracer if traced else None,
        )
        if traced:
            for span_name, entry in spans.summarize(tracer.records()).items():
                total = summary.setdefault(span_name, dict.fromkeys(entry, 0))
                for key, value in entry.items():
                    total[key] += value
            tracer.spans.clear()
        repetitions.append(rep)
        timed += rep.wall_s

    attempted = sum(len(r.query_s) + len(r.update_s) for r in repetitions)
    failed = sum(r.failed for r in repetitions)
    notes = []
    if trace:
        attempted += 1  # hygiene: no span wrapper may outlive the traced run
        leftovers = spans.leftover_wrappers()
        if leftovers:
            failed += 1
            notes.append(f"span wrappers still installed: {leftovers}")
        metrics = _per_layer(rows, repetitions, summary)
        metrics["fail_ratio"] = failed / attempted
    else:
        metrics = _end_to_end(repetitions)
    return Outcome(attempted, failed, metrics, notes)


def _fastest(repetitions: list[Repetition], which: str) -> np.ndarray:
    """Per op of the sequence, the fastest of its timings over the repetitions."""
    return np.min([getattr(r, which) for r in repetitions], axis=0)


def _end_to_end(repetitions: list[Repetition]) -> dict[str, float]:
    """One number per metric from the run's repetitions.

    The time-based metrics are statistics of the sequence with every op at
    its fastest timing (``_fastest``).  On the reference host identical
    repetitions differ by 10 to 40 % in wall time for seconds at a stretch:
    in a five-minute series of them (``mixed_updates``), groups of five gave
    median-repetition figures 40 to 60 % apart and per-op-minimum figures
    10 % apart.  ``ops_per_s`` counts correct ops only, over the summed op
    time (the generator's own time between ops is ``client.overhead_ms``).
    Set-up time and peak memory are the median repetition's.
    """
    query_s = _fastest(repetitions, "query_s")
    op_s = query_s.sum() + _fastest(repetitions, "update_s").sum()
    ops = len(repetitions[0].query_s) + len(repetitions[0].update_s)
    tail = measure.tail_percentile(sum(len(r.query_s) for r in repetitions))
    return {
        "setup_s": float(np.median([r.setup_s for r in repetitions])),
        "ops_per_s": (ops - max(r.failed for r in repetitions)) / op_s,
        "query_p50_ms": float(np.median(query_s)) * 1e3,
        "query_p99_ms": float(np.percentile(query_s, tail)) * 1e3,
        # Harness and program share this process; the harness keeps scalars
        # only, so the high-water mark is the program's tables and maps.
        "peak_rss_mb": float(np.median([r.peak_rss_mb for r in repetitions])),
    }


def _per_layer(rows: int, repetitions: list[Repetition], summary: dict) -> dict[str, float]:
    traced = [r for r in repetitions if r.traced]
    plain = [r for r in repetitions if not r.traced]
    queries = sum(len(r.query_s) for r in traced)
    updates = sum(len(r.update_s) for r in traced)
    metrics = layers.span_metrics(summary, queries, updates)

    stats = {k: sum(r.stats[k] for r in traced) for k in _STAT_FIELDS}
    metrics.update({
        "stats.sequential_per_q": stats["sequential"] / queries,
        "stats.clustered_per_q": stats["clustered_random"] / queries,
        "stats.scattered_per_q": stats["scattered_random"] / queries,
        "stats.writes_per_q": stats["writes"] / queries,
        "cracking.cracks_per_q": stats["cracks"] / queries,
        "core.align_replays_per_q": stats["alignment_replays"] / queries,
        # Structure counts are per repetition: one fresh database each.
        "core.map_creations": stats["map_creations"] / len(traced),
        "core.partial.chunk_creations": stats["chunk_creations"] / len(traced),
        "core.partial.chunk_drops": stats["chunk_drops"] / len(traced),
        "core.peak_aux_tuples_per_row": max(r.peak_aux_tuples for r in traced) / rows,
        "engine.head_s": float(_fastest(plain, "query_s")[:HEAD_QUERIES].sum()),
    })
    fetches = summary.get("core.partial.acquire_chunk", {}).get("calls", 0)
    if fetches:
        metrics["core.partial.chunk_reuse_ratio"] = 1 - stats["chunk_creations"] / fetches
    if updates:
        metrics["engine.update_p50_ms"] = float(np.median(_fastest(plain, "update_s"))) * 1e3

    def per_op_s(group: list[Repetition]) -> float:
        ops = sum(len(r.query_s) + len(r.update_s) for r in group)
        return sum(r.wall_s for r in group) / ops

    latency_s = sum(r.query_s.sum() + r.update_s.sum() for r in traced)
    wall_s = sum(r.wall_s for r in traced)
    metrics.update({
        "client.overhead_ms": (wall_s - latency_s) / (queries + updates) * 1e3,
        "trace.overhead_ratio": per_op_s(traced) / per_op_s(plain),
        "trace.coverage_ratio": sum(e["self_s"] for e in summary.values()) / latency_s,
    })
    return metrics
