"""Exp19: overload resilience — admission control, breakers, degraded serving.

Exp17 established that the serving layer is *correct and fast* when asked
for less than it can deliver.  This experiment pushes it past capacity and
injects shard-worker deaths, and checks that the overload machinery keeps
three promises:

1. **Bounded latency under overload.**  Closed-loop clients are ramped
   well past the admission limits (``max_inflight``/``max_queue`` with the
   deadline-aware shed policy).  Excess load is *shed* with a typed
   :class:`~repro.errors.ServerOverloaded` instead of queueing without
   bound, so the p99 of *admitted* queries stays within the per-request
   budget — set to ``3x`` the unloaded p99 (with a floor for timer noise).
   The shed rate is reported honestly alongside the latency numbers.

2. **Integrity under chaos.**  The same overload run is repeated with a
   FaultSan plan killing shard workers mid-dispatch.  Failed dispatches
   retry under the remaining deadline budget with seeded decorrelated
   jitter; a shard whose breaker opens is served by the parent-side scan
   fallback and the result is marked ``degraded`` (and never cached).
   Every *non-degraded* result must hold the serial ground truth's rows
   and aggregates (compared as value multisets) — chaos may cost throughput, never
   answers.

3. **A deterministic breaker lifecycle.**  A sequential phase pins the
   whole circuit-breaker state machine with exact shot arithmetic under
   ``procpool.worker@1..12=error`` (each failed resilient dispatch burns
   two shots: the initial kill plus the kill of the respawn-and-replay
   retry).  One query burns 4 shots and opens the breaker (two failures
   fill its all-failure window); the next is shed instantly (0 shots);
   four half-open probes each burn 2 shots and reopen; the final probe
   finds the plan exhausted, succeeds, and recloses the breaker with the
   serial answer.  The retry pauses come from a seeded tape, so
   the run — jitter included — replays exactly.

All phases run with the result cache off: caching is exp17's subject, and
a cache hit would let a chaos query skip the dispatch under test.  The
module suspends any ambient fault plan around its clean phases and reuses
its spec (default: :data:`DEFAULT_CHAOS`) for the overload-chaos phase, so
chaos is armed only where chaos is meant.
"""

from __future__ import annotations

import threading
import time

import numpy as np

from repro.analysis.checks import Checks, current
from repro.bench.exp17_concurrency import build_templates
from repro.bench.harness import default_scale
from repro.bench.registry.components import uniform_table
from repro.bench.report import format_table
from repro.cracking.bounds import Interval
from repro.engine.database import Database
from repro.engine.query import Predicate, Query
from repro.engine.selection_cracking import SelectionCrackingEngine
from repro.errors import QueryTimeout, ReproError, ServerOverloaded
from repro.server.executor import ServerExecutor, value_digest
from repro.server.resilience import ResilienceConfig

#: Chaos plan for the concurrent overload phase when ``--faults`` did not
#: supply one: two dozen injected worker deaths spread across the run.
DEFAULT_CHAOS = "procpool.worker@1..24=error"

#: The breaker-lifecycle phase always uses exactly this plan — its shot
#: arithmetic (4 + 0 + 4x2 + 0 = 12) is part of what the phase asserts.
BREAKER_CHAOS = "procpool.worker@1..12=error"

#: Per-request budget floor (seconds): 3x an unloaded p99 measured in the
#: tens of microseconds would be all timer noise.
MIN_TIMEOUT = 0.05

#: Admitted-latency gate: completed queries returned within their budget
#: by construction; the slack covers client-side clock reads and admission
#: overhead outside the measured budget.
P99_SLACK = 1.2


def _fresh_database(arrays: dict[str, np.ndarray]) -> Database:
    db = Database()
    db.create_table("R", {k: v.copy() for k, v in arrays.items()})
    return db


def _percentile(latencies: list[float], q: float) -> float | None:
    return float(np.percentile(latencies, q)) if latencies else None


def _serial_digests(
    arrays: dict[str, np.ndarray], queries: list[Query]
) -> list[str]:
    """Ground truth: one fault-free engine, one query at a time (exp17's
    baseline; :func:`run` calls it with the ambient plan suspended)."""
    db = _fresh_database(arrays)
    engine = SelectionCrackingEngine(db)
    return [value_digest(engine.run(query)) for query in queries]


def run_unloaded(
    arrays: dict[str, np.ndarray],
    template_list: list[Query],
    order: list[int],
    serial_digests: list[str],
) -> dict:
    """The calibration phase: one sequential client, no admission limits."""
    db = _fresh_database(arrays)
    with ServerExecutor(db, workers=4, processes=2, cache_bytes=0) as executor:
        executor.partition("R", "A")
        latencies: list[float] = []
        mismatches = 0
        for t in order:
            started = time.perf_counter()
            result = executor.run(template_list[t])
            latencies.append(time.perf_counter() - started)
            if value_digest(result) != serial_digests[t]:
                mismatches += 1
    return {
        "queries": len(order),
        "p50": _percentile(latencies, 50),
        "p99": _percentile(latencies, 99),
        "mismatches": mismatches,
    }


def run_overloaded(
    arrays: dict[str, np.ndarray],
    template_list: list[Query],
    serial_digests: list[str],
    clients: int,
    per_client: int,
    request_timeout: float,
    seed: int,
    chaos: str | None = None,
) -> dict:
    """Closed-loop clients past capacity; optionally under a chaos plan."""
    db = _fresh_database(arrays)
    outs = [
        dict(shed=0, timeout=0, degraded=0, mismatches=0,
             errors=[], latencies=[])
        for _ in range(clients)
    ]
    with ServerExecutor(
        db, workers=4, processes=2, cache_bytes=0,
        max_inflight=max(3, clients // 2),
        max_queue=max(2, clients // 4),
        shed_policy="deadline-aware",
    ) as executor:
        executor.partition("R", "A")

        def client(index: int, out: dict) -> None:
            rng = np.random.default_rng((seed, 3, index))
            for _ in range(per_client):
                t = int(rng.integers(0, len(template_list)))
                started = time.perf_counter()
                try:
                    result = executor.run(
                        template_list[t], timeout=request_timeout
                    )
                except ServerOverloaded:
                    out["shed"] += 1
                except QueryTimeout:
                    out["timeout"] += 1
                except ReproError as exc:  # a real failure, not backpressure
                    out["errors"].append(f"{type(exc).__name__}: {exc}")
                else:
                    out["latencies"].append(time.perf_counter() - started)
                    if result.degraded:
                        out["degraded"] += 1
                    elif value_digest(result) != serial_digests[t]:
                        out["mismatches"] += 1

        with Checks(faults=chaos or "").armed(seed=seed) as armed:
            threads = [
                threading.Thread(
                    target=client, args=(i, outs[i]), name=f"exp19-client-{i}"
                )
                for i in range(clients)
            ]
            started = time.perf_counter()
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            elapsed = time.perf_counter() - started
        stats = executor.stats()

    latencies = sorted(x for out in outs for x in out["latencies"])
    completed = len(latencies)
    return {
        "clients": clients,
        "issued": clients * per_client,
        "completed": completed,
        "shed": sum(o["shed"] for o in outs),
        "timeouts": sum(o["timeout"] for o in outs),
        "degraded": sum(o["degraded"] for o in outs),
        "mismatches": sum(o["mismatches"] for o in outs),
        "errors": [e for o in outs for e in o["errors"]][:10],
        "p50_admitted": _percentile(latencies, 50),
        "p99_admitted": _percentile(latencies, 99),
        "throughput_qps": completed / elapsed if elapsed > 0 else 0.0,
        "chaos": chaos,
        "injected": list(armed.plan.injected) if armed.plan else [],
        "executor": {
            key: stats[key]
            for key in ("shed", "abandoned", "degraded", "budget_trims",
                        "admission")
        },
    }


def _serial_digest(arrays: dict[str, np.ndarray], query: Query) -> str:
    return _serial_digests(arrays, [query])[0]


def run_breaker_lifecycle(arrays: dict[str, np.ndarray], seed: int) -> dict:
    """Sequential, shot-exact walk of the breaker state machine.

    Every step targets one query confined to shard 0 (the interval ends
    below the shard's partition edge), so all 12 shots of
    :data:`BREAKER_CHAOS` land on the same worker and the breaker's
    transitions are a pure function of the plan.  The breaker runs with
    an all-failure window of 2 so the warm-up query's success is evicted
    before it can dilute the failure rate: two failed dispatches (4
    shots) open it, every failing probe burns 2 more, and the plan is
    sized so the fifth probe runs dry and recloses.
    """
    config = ResilienceConfig(
        retry_attempts=2, backoff_base=0.001, backoff_cap=0.004,
        breaker_window=2, breaker_min_calls=2, breaker_threshold=1.0,
        breaker_cooldown=0.25,
    )
    db = _fresh_database(arrays)
    timeline: list[dict] = []
    with ServerExecutor(
        db, workers=2, processes=2, cache_bytes=0, resilience=config
    ) as executor:
        column = executor.partition("R", "A")
        worker = column.shards[0]
        edge = max(2, int(worker.hi // 2))
        query = Query(
            "R", (Predicate("A", Interval.open(0, edge)),),
            projections=("A", "B"),
            aggregates=(("sum", "B"), ("count", "B")),
        )
        serial = _serial_digest(arrays, query)

        warm = executor.run(query)  # clean dispatch; puts a crack on the tape
        with Checks(faults=BREAKER_CHAOS).armed(seed=seed) as armed:
            def step(label: str, sleep: float = 0.0) -> None:
                if sleep:
                    time.sleep(sleep)
                result = executor.run(query)
                timeline.append({
                    "step": label,
                    "degraded": result.degraded,
                    "recovered": result.fault_recovered,
                    "digest_matches_serial": value_digest(result) == serial,
                    "breaker": worker.breaker.state,
                })

            pause = config.breaker_cooldown + 0.05
            step("fail-to-open")        # 2 failed dispatches = 4 shots
            step("shed-while-open")     # inside the cooldown: 0 shots
            for i in range(4):          # each half-open probe burns 2 shots
                step(f"probe-fails-{i + 1}", sleep=pause)
            step("probe-recloses", sleep=pause)  # shots spent: succeeds
        plan = armed.plan
        after = executor.run(query)  # plan gone: plain clean dispatch
        stats = executor.stats()

    shard = stats["partitioned"]["R.A"]
    breaker = shard["breakers"]["R.A#0"]
    expected_states = ["open"] * 6 + ["closed"]
    expected_degraded = [True] * 6 + [False]
    ok = (
        value_digest(warm) == serial and not warm.degraded
        and [t["breaker"] for t in timeline] == expected_states
        and [t["degraded"] for t in timeline] == expected_degraded
        and all(t["digest_matches_serial"] for t in timeline)
        and timeline[-1]["recovered"]
        and len(plan.injected) == 12
        and value_digest(after) == serial
        and not after.degraded and not after.fault_recovered
    )
    return {
        "plan": BREAKER_CHAOS,
        "timeline": timeline,
        "shots_fired": len(plan.injected),
        "site_visits": {
            site: plan.hits.get(site, 0)
            for site in ("procpool.worker", "procpool.retry",
                         "procpool.breaker")
        },
        "breaker": breaker,
        "jitter_tape": shard["jitter_tapes"][0],
        "degraded_serves": shard["degraded_serves"],
        "retries": shard["retries"],
        "recovery_digest_matches_serial": value_digest(after) == serial,
        "ok": bool(ok),
    }


def run(
    scale: float | None = None,
    rows: int = 200_000,
    queries: int = 240,
    templates: int = 48,
    clients: int = 12,
    requests_per_client: int = 20,
    seed: int = 42,
) -> dict:
    scale = default_scale() if scale is None else scale
    rows = max(10_000, int(rows * scale))
    queries = max(40, int(queries * scale))
    templates = max(12, int(templates * scale))
    clients = max(4, int(clients * scale))
    requests_per_client = max(6, int(requests_per_client * scale))
    domain = 10 * rows

    arrays = uniform_table(rows, domain, seed, attrs=("A", "B", "C", "D"),
                           low=0, high=domain)
    template_list = build_templates(templates, domain, seed)
    order_rng = np.random.default_rng((seed, 2))
    order = [
        int(r - 1) % len(template_list)
        for r in order_rng.zipf(1.3, size=queries)
    ]

    # An ambient plan would fire during the clean calibration phases too;
    # suspend it and reuse its spec for chaos.
    chaos_spec = current().checks.faults or DEFAULT_CHAOS
    with Checks(faults="").armed():
        serial_digests = _serial_digests(arrays, template_list)
        unloaded = run_unloaded(arrays, template_list, order, serial_digests)
        request_timeout = max(3.0 * unloaded["p99"], MIN_TIMEOUT)
        overload_clean = run_overloaded(
            arrays, template_list, serial_digests, clients,
            requests_per_client, request_timeout, seed,
        )
        overload_chaos = run_overloaded(
            arrays, template_list, serial_digests, clients,
            requests_per_client, request_timeout, seed, chaos=chaos_spec,
        )
        breaker = run_breaker_lifecycle(arrays, seed)

    p99_limit = request_timeout * P99_SLACK + 0.01
    clean_p99 = overload_clean["p99_admitted"]
    chaos_p99 = overload_chaos["p99_admitted"]
    summary = {
        "unloaded_p99": unloaded["p99"],
        "request_timeout": request_timeout,
        "p99_limit": p99_limit,
        "overload_p99_admitted": clean_p99,
        "p99_ok": clean_p99 is not None and clean_p99 <= p99_limit,
        "shed_ok": overload_clean["shed"] > 0,
        "chaos_p99_admitted": chaos_p99,
        "chaos_absorbed": bool(
            overload_chaos["completed"] > 0
            and (not overload_chaos["chaos"]
                 or overload_chaos["injected"])
        ),
        "bit_identical_ok": bool(
            unloaded["mismatches"] == 0
            and overload_clean["mismatches"] == 0
            and not overload_clean["errors"]
            and overload_chaos["mismatches"] == 0
            and not overload_chaos["errors"]
        ),
        "breaker_lifecycle_ok": breaker["ok"],
    }
    summary["all_ok"] = bool(
        summary["p99_ok"] and summary["shed_ok"]
        and summary["chaos_absorbed"] and summary["bit_identical_ok"]
        and summary["breaker_lifecycle_ok"]
    )

    result = {
        "rows": rows,
        "queries": queries,
        "templates": templates,
        "clients": clients,
        "requests_per_client": requests_per_client,
        "seed": seed,
        "chaos_spec": chaos_spec,
        "unloaded": unloaded,
        "overload_clean": overload_clean,
        "overload_chaos": overload_chaos,
        "breaker_lifecycle": breaker,
        "summary": summary,
    }
    return result


def _ms(value: float | None) -> str:
    return "-" if value is None else f"{value * 1e3:.2f}"


def describe(result: dict) -> str:
    headers = ["phase", "issued", "completed", "shed", "timeout",
               "degraded", "p99 (ms)"]
    unloaded = result["unloaded"]
    rows = [[
        "unloaded (1 client)", str(unloaded["queries"]),
        str(unloaded["queries"]), "0", "0", "0", _ms(unloaded["p99"]),
    ]]
    for name, cell in (
        ("overload, clean", result["overload_clean"]),
        ("overload, chaos", result["overload_chaos"]),
    ):
        rows.append([
            name, str(cell["issued"]), str(cell["completed"]),
            str(cell["shed"]), str(cell["timeouts"]),
            str(cell["degraded"]), _ms(cell["p99_admitted"]),
        ])
    table = format_table(
        headers, rows,
        f"Exp19: overload resilience ({result['rows']:,} rows x 4 attrs, "
        f"{result['clients']} closed-loop clients, deadline-aware "
        "shedding)",
    )
    s = result["summary"]
    b = result["breaker_lifecycle"]
    states = " -> ".join(
        ["closed"] + [t["breaker"] for t in b["timeline"]]
    )
    lines = [
        table,
        f"admitted p99 {_ms(s['overload_p99_admitted'])} ms vs budget "
        f"{_ms(s['request_timeout'])} ms "
        f"(= 3x unloaded p99, floored): "
        + ("ok" if s["p99_ok"] else "MISSED"),
        f"load shed under overload: {result['overload_clean']['shed']} "
        + ("(ok)" if s["shed_ok"] else "(NONE -- not overloaded?)"),
        "all non-degraded results match serial (value multisets): "
        + ("yes" if s["bit_identical_ok"] else "NO"),
        f"chaos plan {result['chaos_spec']!r}: "
        f"{len(result['overload_chaos']['injected'])} faults injected, "
        f"{result['overload_chaos']['degraded']} degraded serves",
        f"breaker lifecycle [{b['plan']}]: {states} "
        f"({b['shots_fired']} shots, jitter tape "
        f"{[round(p, 4) for p in b['jitter_tape']]}): "
        + ("ok" if b["ok"] else "BROKEN"),
    ]
    return "\n".join(lines)
