"""Process shard workers: crash recovery, deadlines, fallback, lifecycle.

What the process backend shares with the thread backend (select ≡ scan,
pruning, update routing, shared stats) is covered once for both in
``test_shard_backends.py``.
"""

import json

import numpy as np
import pytest

from repro.analysis.checks import Checks
from repro.cracking.bounds import Interval
from repro.engine.database import Database
from repro.engine.query import Predicate, Query
from repro.errors import QueryTimeout, ServerError
from repro.server.executor import ServerExecutor
from repro.server.procpool import ProcessShardPool
from repro.storage.bat import BAT
from repro.storage.shared import leaked_system_segments, live_segment_names
from repro.storage.types import ColumnType


@pytest.fixture
def base_bat(rng):
    values = rng.integers(0, 10_000, size=20_000).astype(np.int64)
    return BAT(values, ColumnType.INT, None, None)


@pytest.fixture
def pool(base_bat):
    p = ProcessShardPool(base_bat, 4, "t", "A")
    yield p
    p.close()


def _expected(values, interval):
    return np.sort(np.flatnonzero(interval.mask(values)))


def _span(lo, hi, attr="A", **kwargs):
    return Query("R", (Predicate(attr, Interval.half_open(lo, hi)),), **kwargs)


# -- result-buffer growth -----------------------------------------------------


def test_result_buffer_grows_for_bulk_inserts(pool, base_bat):
    """Inserting more rows than any shard's initial capacity must remap."""
    n = len(base_bat)
    bulk = np.full(30_000, 42, dtype=np.int64)  # all route to one shard
    pool.add_insertions(bulk, np.arange(n, n + len(bulk), dtype=np.int64))
    interval = Interval.closed(42, 42)
    keys = pool.select(interval).keys
    expected = np.sort(np.concatenate([
        _expected(base_bat.values, interval),
        np.arange(n, n + len(bulk)),
    ]))
    assert np.array_equal(np.sort(keys), expected)


def test_worker_recovers_after_two_result_buffer_growths(pool, base_bat):
    """The tape records shard state, not which result segment was current:
    the second growth unlinks the first grown segment, and a respawned
    worker must attach the live buffer instead of replaying a stale remap."""
    n = len(base_bat)
    bulk = np.full(30_000, 42, dtype=np.int64)  # all route to shard 0
    for start in (n, n + len(bulk)):
        pool.add_insertions(
            bulk, np.arange(start, start + len(bulk), dtype=np.int64)
        )
    interval = Interval.closed(42, 42)
    before = np.sort(pool.select(interval).keys)
    assert len(before) == 2 * len(bulk) + len(_expected(base_bat.values, interval))
    snap_before = pool.snapshot()
    pool.shards[0].process.kill()
    pool.shards[0].process.join()
    after = pool.select(interval)
    assert after.recovered and not after.degraded
    assert np.array_equal(np.sort(after.keys), before)
    assert pool.snapshot() == snap_before
    assert pool.stats()["retries"] == [0, 0, 0, 0]


# -- crash recovery ----------------------------------------------------------


def test_worker_crash_respawns_and_replays(pool, base_bat):
    interval = Interval(2_000, 8_000)
    before = pool.select(interval).keys
    snap_before = pool.snapshot()
    for worker in pool.shards:
        worker.process.kill()
        worker.process.join()
    after = pool.select(interval)
    assert after.recovered and not after.degraded
    assert np.array_equal(np.sort(after.keys), np.sort(before))
    # Replay is deterministic: the rebuilt shards reach the same cracked
    # state (piece counts, payload CRCs, RNG-driven cut counts).
    assert pool.snapshot() == snap_before
    assert all(w.respawns == 1 for w in pool.shards)


def test_failpoint_kills_worker_mid_command(pool, base_bat):
    interval = Interval(1_000, 9_000)
    with Checks(faults="procpool.worker@1=error").armed(seed=7):
        got = pool.select(interval)
    assert got.recovered and not got.degraded
    assert np.array_equal(np.sort(got.keys), _expected(base_bat.values, interval))
    assert sum(w.respawns for w in pool.shards) == 1
    assert pool.stats()["recoveries"] == 1


def test_deadline_expiry_raises_query_timeout(base_bat):
    pool = ProcessShardPool(base_bat, 2, "t", "A")
    try:
        with pytest.raises(QueryTimeout):
            pool.select(Interval(1_000, 9_000), deadline=1e-7)
        # The straggler was killed and replayed; the pool still answers.
        keys = pool.select(Interval(1_000, 9_000)).keys
        assert np.array_equal(
            np.sort(keys), _expected(base_bat.values, Interval(1_000, 9_000))
        )
    finally:
        pool.close()


def test_closed_pool_refuses_work(base_bat):
    pool = ProcessShardPool(base_bat, 2, "t", "A")
    pool.close()
    pool.close()  # idempotent
    with pytest.raises(ServerError):
        pool.select(Interval(0, 100))
    assert not leaked_system_segments()


# -- executor integration ----------------------------------------------------


def _digests(executor, queries):
    return [executor.run(q).digest() for q in queries]


def test_process_engine_digests_match_serial_and_threads(small_arrays):
    queries = [
        _span(1_000, 30_000),
        _span(1_000, 30_000, projections=("A", "B")),
        _span(50_000, 90_000, aggregates=(("sum", "A"), ("count", "A"))),
        _span(90_000, 100_001),
    ]
    results = {}
    for mode, kwargs in (
        ("serial", dict(workers=1)),
        ("thread", dict(workers=4, partitions=4)),
        ("process", dict(workers=4, processes=4)),
    ):
        db = Database()
        db.create_table("R", {k: v.copy() for k, v in small_arrays.items()})
        with db, ServerExecutor(db, cache_bytes=0, **kwargs) as executor:
            if kwargs.get("partitions") or kwargs.get("processes"):
                executor.partition("R", "A")
            results[mode] = _digests(executor, queries)
    assert results["serial"] == results["thread"] == results["process"]


def test_process_engine_updates_stay_bit_identical(small_arrays):
    query = _span(10_000, 60_000)
    digests = {}
    for mode, kwargs in (
        ("serial", dict(workers=1)),
        ("process", dict(workers=2, processes=2)),
    ):
        db = Database()
        db.create_table("R", {k: v.copy() for k, v in small_arrays.items()})
        with db, ServerExecutor(db, cache_bytes=0, **kwargs) as executor:
            if kwargs.get("processes"):
                executor.partition("R", "A")
            seen = [executor.run(query).digest()]
            keys = executor.insert(
                "R", {c: [15_000 + i for i in range(3)] for c in "ABCD"}
            )
            seen.append(executor.run(query).digest())
            executor.delete("R", keys[:1])
            seen.append(executor.run(query).digest())
            digests[mode] = seen
    assert digests["serial"] == digests["process"]


def test_executor_marks_fault_recovered_and_skips_cache(db):
    with ServerExecutor(db, workers=2, processes=2) as executor:
        executor.partition("R", "A")
        query = _span(1_000, 50_000)
        clean = executor.run(query)
        assert clean.path == "process" and not clean.fault_recovered
        executor.insert("R", {c: [1] for c in "ABCD"})  # invalidate cache
        with Checks(faults="procpool.worker@1=error").armed(seed=3):
            recovered = executor.run(query)
        assert recovered.fault_recovered
        # A recovered result must not be admitted to the result cache.
        replay = executor.run(query)
        assert not replay.cached
        assert replay.digest() == recovered.digest()


def test_run_batch_translates_worker_deadline_to_query_timeout(db):
    """Process-mode regression: a shard worker missing its per-command
    deadline surfaces as the wire-level QueryTimeout, same as threads."""
    from repro.server.executor import ServedQuery

    with ServerExecutor(db, workers=2, processes=2, cache_bytes=0) as executor:
        executor.partition("R", "A")
        doomed = ServedQuery(_span(1_000, 99_000), timeout=1e-7)
        with pytest.raises(QueryTimeout):
            executor.run_batch([doomed])
        # The executor (and its pool) survive: a sane deadline still works.
        result = executor.run(_span(1_000, 99_000))
        assert result.path == "process"


def test_executor_close_unlinks_segments(db):
    executor = ServerExecutor(db, workers=2, processes=2)
    executor.partition("R", "A")
    executor.run(_span(1_000, 50_000))
    assert live_segment_names()
    executor.close()
    assert not live_segment_names()
    assert not leaked_system_segments()


def test_database_close_cascades_to_executor(small_arrays):
    db = Database()
    db.create_table("R", dict(small_arrays))
    executor = ServerExecutor(db, workers=2, processes=2)
    executor.partition("R", "A")
    executor.run(_span(1_000, 50_000))
    assert live_segment_names()
    db.close()
    assert executor._closed
    assert not live_segment_names()
    assert not leaked_system_segments()


def test_segments_survive_worker_crash_until_close(db):
    """A crashed worker must not take the parent's segments with it."""
    with ServerExecutor(db, workers=2, processes=2) as executor:
        column = executor.partition("R", "A")
        executor.run(_span(1_000, 50_000))
        for worker in column.shards:
            worker.process.kill()
            worker.process.join()
        result = executor.run(_span(60_000, 90_000))
        assert result.path == "process"
    assert not live_segment_names()
    assert not leaked_system_segments()


def test_serve_cli_sigterm_unlinks_segments(tmp_path):
    """``python -m repro serve --processes N`` must unlink every shared
    segment on SIGTERM — the kernel never reclaims ``/dev/shm`` entries on
    process death, so a service manager's stop signal is a leak unless the
    server shuts its executor down on the way out."""
    import os
    import re
    import signal
    import subprocess
    import sys

    from repro.storage.shared import SEGMENT_PREFIX

    import repro

    # The server runs from tmp_path, so every PYTHONPATH entry must be
    # absolute (a relative "src" would resolve against tmp_path).
    src_root = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src_root]
        + [os.path.abspath(p)
           for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0",
         "--rows", "5000", "--workers", "2", "--processes", "2",
         "--partition-attr", "R.A"],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        env=env, cwd=str(tmp_path),
    )

    def segments():
        prefix = f"{SEGMENT_PREFIX}_{proc.pid}_"
        try:
            return [n for n in os.listdir("/dev/shm") if n.startswith(prefix)]
        except OSError:  # no /dev/shm on this platform: vacuous pass
            return []

    try:
        for line in proc.stdout:
            if re.search(r"listening on ", line):
                break
        else:
            pytest.fail("server exited before reporting its port")
        assert segments(), "expected live shard segments while serving"
    finally:
        proc.send_signal(signal.SIGTERM)
        assert proc.wait(timeout=60) == 0
    assert not segments(), "SIGTERM leaked /dev/shm segments"


def test_process_mode_stats_shape(db):
    with ServerExecutor(db, workers=2, processes=2) as executor:
        executor.partition("R", "A")
        executor.run(_span(1_000, 50_000))
        stats = executor.stats()
        assert stats["engine_mode"] == "process"
        assert stats["processes"] == 2
        column = stats["partitioned"]["R.A"]
        assert column["engine"] == "process"
        assert column["selects"] >= 1
        assert len(column["respawns"]) == len(column["shard_rows"])
        assert {"dispatch_seconds", "worker_seconds", "gather_seconds"} \
            <= set(column)


# -- resilience: retries, breakers, degraded fallback ------------------------


def _aggressive_resilience(**overrides):
    """Open the breaker on the very first failed dispatch."""
    from repro.server.resilience import ResilienceConfig

    kwargs = dict(
        retry_attempts=0, backoff_base=1e-4, backoff_cap=1e-3,
        breaker_window=1, breaker_min_calls=1, breaker_threshold=1.0,
        breaker_cooldown=0.2,
    )
    kwargs.update(overrides)
    return ResilienceConfig(**kwargs)


def test_spawn_start_method_respawn_replays(monkeypatch, base_bat):
    """Respawn-and-replay must also work under the portable ``spawn``
    start method, where the replacement worker imports from scratch."""
    monkeypatch.setenv("REPRO_PROCPOOL_START", "spawn")
    pool = ProcessShardPool(base_bat, 2, "t", "A")
    try:
        interval = Interval(1_000, 9_000)
        warm = pool.select(interval, deadline=60.0)
        assert not warm.recovered
        with Checks(faults="procpool.worker@1=error").armed(seed=11):
            got = pool.select(interval, deadline=60.0)
        assert got.recovered and not got.degraded
        assert np.array_equal(
            np.sort(got.keys), _expected(base_bat.values, interval)
        )
        assert sum(w.respawns for w in pool.shards) == 1
    finally:
        pool.close()


def test_breaker_opens_and_scan_fallback_is_exact(base_bat):
    """A shard whose worker keeps dying is served by the parent-side scan
    fallback: breaker open, result degraded, keys exact — including
    updates taped before the chaos — and the breaker's half-open probe
    recovers the shard once the faults stop."""
    import time

    config = _aggressive_resilience()
    pool = ProcessShardPool(base_bat, 4, "t", "A", resilience=config)
    try:
        # Confine the query to shard 0 so exactly one breaker is exercised.
        edge = max(2, int(pool.shards[0].hi // 2))
        interval = Interval.half_open(0, edge)
        n = len(base_bat)
        pool.add_insertions(
            np.array([1, edge - 1, edge + 1], dtype=np.int64),
            np.arange(n, n + 3, dtype=np.int64),
        )
        pool.add_deletions(
            np.array([1], dtype=np.int64), np.array([n], dtype=np.int64)
        )
        expected = np.sort(np.concatenate([
            _expected(base_bat.values, interval), [n + 1]
        ]))
        # One failed resilient dispatch burns two shots: the initial kill
        # plus the kill of the respawn-and-replay retry.
        with Checks(faults="procpool.worker@1..2=error").armed(seed=5):
            got = pool.select(interval, deadline=60.0)
        assert got.degraded
        assert np.array_equal(np.sort(got.keys), expected)
        stats = pool.stats()
        assert stats["degraded_serves"][0] == 1
        assert stats["breakers"]["t.A#0"]["state"] == "open"
        assert stats["breakers"]["t.A#0"]["opens"] == 1
        # Faults are gone: after the cooldown the half-open probe finds a
        # healthy (revived) worker and the breaker recloses.
        time.sleep(config.breaker_cooldown + 0.05)
        after = pool.select(interval, deadline=60.0)
        assert not after.degraded
        assert np.array_equal(np.sort(after.keys), expected)
        assert pool.stats()["breakers"]["t.A#0"]["state"] == "closed"
    finally:
        pool.close()


@pytest.mark.parametrize("query", [
    _span(1_000, 50_000),
    # A conjunction refines the shard keys by D; the flag must survive that.
    Query("R", (
        Predicate("A", Interval.half_open(1_000, 50_000)),
        Predicate("D", Interval.half_open(10_000, 90_000)),
    )),
], ids=["span", "conjunction"])
def test_executor_degraded_result_is_honest_and_never_cached(db, query):
    import time

    config = _aggressive_resilience(breaker_cooldown=0.5)
    with ServerExecutor(db, workers=2, processes=2, resilience=config) as executor:
        executor.partition("R", "A")
        assert not executor.run(query).degraded
        executor.insert("R", {c: [1] for c in "ABCD"})  # invalidate cache
        with Checks(faults="procpool.worker@1..2=error").armed(seed=9):
            degraded = executor.run(query)
        assert degraded.degraded
        assert json.loads(degraded.as_payload())["degraded"] is True
        assert executor.health()["degraded"] is True
        # Still inside the cooldown: the fallback serves again, and the
        # earlier degraded answer was never admitted to the cache (a hit
        # here would replay it with cached=True).
        again = executor.run(query)
        assert not again.cached and again.degraded
        # Past the cooldown the half-open probe recovers the shard; the
        # clean answer must match what the fallback served: degraded
        # means slower, never wrong.
        time.sleep(config.breaker_cooldown + 0.1)
        truth = executor.run(query)
        assert not truth.degraded
        assert truth.digest() == degraded.digest() == again.digest()
        stats = executor.stats()
        assert stats["degraded"] >= 2
        assert executor.health()["degraded"] is False


# -- concurrent shutdown -----------------------------------------------------


def _hammer_close(close, threads=4):
    import threading

    errors = []

    def closer():
        try:
            close()
        except Exception as exc:  # noqa: BLE001 - the test asserts none
            errors.append(exc)

    workers = [threading.Thread(target=closer) for _ in range(threads)]
    for t in workers:
        t.start()
    for t in workers:
        t.join(timeout=60)
    return errors


def test_executor_close_is_concurrent_safe(db):
    executor = ServerExecutor(db, workers=2, processes=2)
    executor.partition("R", "A")
    executor.run(_span(1_000, 50_000))
    assert _hammer_close(executor.close) == []
    assert executor._closed
    assert not live_segment_names()
    assert not leaked_system_segments()


def test_database_close_is_concurrent_safe(small_arrays):
    db = Database()
    db.create_table("R", dict(small_arrays))
    executor = ServerExecutor(db, workers=2, processes=2)
    executor.partition("R", "A")
    executor.run(_span(1_000, 50_000))
    assert _hammer_close(db.close) == []
    assert executor._closed
    assert not live_segment_names()
    assert not leaked_system_segments()
