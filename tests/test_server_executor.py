"""ServerExecutor: execution paths, caching, batching, deadlines."""

import threading
import time

import numpy as np
import pytest

from repro.analysis.checks import Checks
from repro.cracking.bounds import Interval
from repro.engine.database import Database
from repro.engine.query import Predicate, Query, QueryResult
from repro.engine.scan import PlainEngine
from repro.engine.selection_cracking import SelectionCrackingEngine
from repro.errors import QueryTimeout, ServerError
from repro.faults import guard
from repro.server.partition import ShardedColumn
from repro.server.serve import ServerHandle
from repro.server.executor import (
    ServedQuery,
    ServerExecutor,
    canonicalize,
    value_digest,
)


@pytest.fixture
def executor(db):
    with ServerExecutor(db, workers=2, partitions=4) as ex:
        yield ex


def _span(lo, hi, attr="A", **kwargs):
    return Query("R", (Predicate(attr, Interval.half_open(lo, hi)),), **kwargs)


def test_canonicalize_is_schedule_independent(rng):
    """Keys in any cracked order canonicalize to one row order; the
    comparison digest ignores row order, whatever the dtypes, and sees
    every row and aggregate."""
    keys = rng.choice(10_000, size=200, replace=False).astype(np.int64)
    shuffled = rng.permutation(200)
    assert np.array_equal(canonicalize(keys[shuffled]), canonicalize(keys))
    a = rng.integers(0, 50, size=200).astype(np.int64)
    b = rng.integers(0, 50, size=200).astype(np.int64)
    # A float column, and an int column whose value range is 64 bits wide.
    f = rng.integers(0, 10, size=200) / 4.0
    w = rng.integers(0, 50, size=200).astype(np.int64)
    w[:2] = np.iinfo(np.int64).min, np.iinfo(np.int64).max
    aggregates = {"sum(A)": float(a.sum()), "max(B)": float("nan")}
    for columns in ({"A": a, "B": b}, {"A": a, "F": f}, {"A": a, "W": w}):
        one = value_digest(QueryResult(columns, dict(aggregates)))
        other = QueryResult({k: v[shuffled] for k, v in columns.items()},
                            dict(aggregates))
        assert value_digest(other) == one
        dropped = QueryResult({k: v[1:] for k, v in columns.items()},
                              dict(aggregates))
        assert value_digest(dropped) != one
        other.aggregates["sum(A)"] += 1
        assert value_digest(other) != one


def test_partition_path_and_cache(executor):
    executor.partition("R", "A")
    query = _span(5_000, 40_000, projections=("A", "B"))
    first = executor.run(query)
    assert first.path == "partition"
    assert not first.cached
    again = executor.run(query)
    assert again.path == "cache"
    assert again.cached
    assert again.digest() == first.digest()


def _scan_digest(db, query):
    return value_digest(PlainEngine(db).run(query))


def test_serial_conjunction_reads_keys_from_a_one_shard_column(db):
    """With nothing partitioned, a conjunction's lead becomes a one-shard
    key source: it runs under the shared table lock, builds no database
    cracker, and a repeat of its interval probes the shard read-only."""
    def b_and_c(c_lo, c_hi, projections):
        return Query("R", (
            Predicate("B", Interval.half_open(10_000, 80_000)),
            Predicate("C", Interval.half_open(c_lo, c_hi)),
        ), projections=projections)

    with ServerExecutor(db, workers=2) as executor:
        first = executor.run(b_and_c(20_000, 90_000, ("B", "C")))
        column = executor._partitioned[("R", "B")]
        assert len(column.shards) == 1
        assert ("R", "C") not in executor._partitioned
        paths = []

        def spy(shard, interval, deadline=None):
            reply = ShardedColumn.select_one(shard, interval, deadline)
            paths.append(reply.meta["path"])
            return reply

        column.select_one = spy
        repeat = b_and_c(30_000, 70_000, ("B", "D"))
        # Readers share the table lock: holding it here cannot block a
        # query that only ever reads it.
        with executor.registry.lock_for("R").read():
            second = executor.run(repeat, timeout=10)
    assert first.path == second.path == "partition"
    assert paths == ["probe"]
    assert db._crackers == {}
    assert value_digest(second) == _scan_digest(db, repeat)


def test_explicit_partition_replaces_the_one_shard_key_source(db):
    """An explicit ``partition`` after a query built a one-shard key source
    replaces it with the requested shard count; rows deleted before either
    column was built stay deleted."""
    with ServerExecutor(db, workers=2, partitions=4) as executor:
        doomed = np.flatnonzero(db.table("R").values("B") < 20_000)[:50]
        executor.delete("R", doomed)
        query = _span(0, 30_000, attr="B", projections=("B", "C"))
        first = executor.run(query)
        auto = executor._partitioned[("R", "B")]
        assert len(auto.shards) == 1
        column = executor.partition("R", "B")
        assert column is not auto
        assert len(column.shards) == 4
        assert executor.partition("R", "B") is column
        again = executor.run(_span(0, 30_000, attr="B", projections=("B",)))
    assert value_digest(first) == _scan_digest(db, query)
    assert again.row_count == first.row_count
    assert again.path == "partition"


def test_all_paths_agree_with_serial(small_arrays, rng):
    queries = []
    for _ in range(16):
        lo = int(rng.integers(0, 80_000))
        width = int(rng.integers(500, 40_000))
        if rng.integers(0, 2):
            queries.append(_span(lo, lo + width, projections=("A", "B"),
                                 aggregates=(("sum", "B"),)))
        else:
            queries.append(Query(
                "R",
                (
                    Predicate("B", Interval.half_open(lo, lo + width)),
                    Predicate("D", Interval.half_open(lo // 2, lo // 2 + width)),
                ),
                projections=("B", "D"),
                aggregates=(("count", "B"),),
            ))

    serial_db = Database()
    serial_db.create_table("R", {k: v.copy() for k, v in small_arrays.items()})
    engine = SelectionCrackingEngine(serial_db)
    serial = [value_digest(engine.run(q)) for q in queries]

    served_db = Database()
    served_db.create_table("R", {k: v.copy() for k, v in small_arrays.items()})
    with ServerExecutor(served_db, workers=4, partitions=4) as ex:
        ex.partition("R", "A")
        results = ex.run_batch(queries)
        repeats = ex.run_batch(queries)  # the second pass hits the cache
        assert [value_digest(r) for r in results] == serial
        assert [r.digest() for r in repeats] == [r.digest() for r in results]
        assert set(ex.path_counts) >= {"partition", "cache"}


def test_run_batch_dedupes_identical_requests(executor):
    query = _span(1_000, 50_000, projections=("A",))
    results = executor.run_batch([query] * 10)
    assert len(results) == 10
    assert len({r.digest() for r in results}) == 1
    # One execution serves the whole batch (dedup, not ten cache misses).
    assert executor.queries_served == 1


def test_cache_invalidation_on_update(executor):
    executor.partition("R", "A")
    query = _span(0, 100_001, projections=("A",), aggregates=(("count", "A"),))
    before = executor.run(query)
    keys = executor.insert("R", {
        attr: np.array([50_000], dtype=np.int64) for attr in "ABCD"
    })
    after = executor.run(query)
    assert not after.cached  # the data version moved, the entry is stale
    assert after.row_count == before.row_count + 1
    executor.delete("R", keys)
    final = executor.run(query)
    assert final.row_count == before.row_count


def test_sql_and_served_query_entry_points(executor):
    result = executor.run("select A, B from R where A between 100 and 20000")
    assert result.row_count > 0
    served = ServedQuery.from_sql(
        "select A from R where A < 5000", executor.db
    )
    assert executor.run(served).path == "partition"


def test_timeout_raises_query_timeout(executor):
    # Hold the table's write lock from the test thread so any worker
    # serving this query blocks for longer than the deadline.
    lock = executor.registry.lock_for("R")
    query = Query(
        "R",
        (
            Predicate("C", Interval.half_open(0, 1)),
            Predicate("D", Interval.half_open(0, 1)),
        ),
    )
    acquired = threading.Event()
    release = threading.Event()

    def holder():
        with lock.write():
            acquired.set()
            release.wait(timeout=10)

    t = threading.Thread(target=holder)
    t.start()
    acquired.wait(timeout=5)
    try:
        with pytest.raises(QueryTimeout):
            executor.run(query, timeout=0.1)
    finally:
        release.set()
        t.join(timeout=5)


def test_run_batch_respects_per_request_timeouts(executor):
    # One stuck query must not hang the whole batch: run_batch enforces
    # each request's deadline just like run() does.
    lock = executor.registry.lock_for("R")
    query = Query(
        "R",
        (
            Predicate("C", Interval.half_open(0, 1)),
            Predicate("D", Interval.half_open(0, 1)),
        ),
    )
    acquired = threading.Event()
    release = threading.Event()

    def holder():
        with lock.write():
            acquired.set()
            release.wait(timeout=10)

    t = threading.Thread(target=holder)
    t.start()
    acquired.wait(timeout=5)
    try:
        with pytest.raises(QueryTimeout):
            executor.run_batch([ServedQuery(query, timeout=0.1)])
    finally:
        release.set()
        t.join(timeout=5)


def test_updates_never_race_partition_queries(executor):
    """Regression: a result labeled version V reflects *all* updates <= V.

    The old partition path never took the table lock, so a query could
    observe the bumped data version while an insert's rows were still
    waiting to be routed to the shards — and cache that short answer
    under the new version forever.  Row counts make the race visible:
    every insert adds exactly one qualifying row, so any served result
    must satisfy ``row_count == base + (data_version - v0)``.
    """
    column = executor.partition("R", "A")
    query = _span(0, 200_001, projections=("A",))
    base = executor.run(query)
    v0, base_count = base.data_version, base.row_count
    inserts = 10
    violations: list[str] = []
    done = threading.Event()

    # Deterministically widen the bump-to-routing window: the version has
    # already moved while the rows are still in flight to the shards.  The
    # table lock must keep queries out of that window entirely.
    routed = column.add_insertions

    def slow_routing(values, keys):
        time.sleep(0.02)
        routed(values, keys)

    column.add_insertions = slow_routing

    def writer():
        for _ in range(inserts):
            executor.insert("R", {
                attr: np.array([150_000], dtype=np.int64) for attr in "ABCD"
            })
        done.set()

    def reader():
        while True:
            finished = done.is_set()
            result = executor.run(query, timeout=30)
            expected = base_count + (result.data_version - v0)
            if result.row_count != expected:
                violations.append(
                    f"version {result.data_version}: "
                    f"{result.row_count} rows, expected {expected}"
                )
            if finished:
                return

    threads = [threading.Thread(target=writer)]
    threads += [threading.Thread(target=reader) for _ in range(3)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
    assert not any(t.is_alive() for t in threads)
    assert violations == []
    # The cache must not have been poisoned either: the final version's
    # answer stays correct on a repeat (served from cache).
    final = executor.run(query)
    assert final.row_count == base_count + inserts


def test_invalid_requests_rejected(db):
    with pytest.raises(ServerError, match="must be >= 1"):
        ServerExecutor(db, workers=0)
    with ServerExecutor(db, workers=1) as ex:
        with pytest.raises(ServerError, match="cannot serve"):
            ex.run(42)
        with pytest.raises(ServerError, match="cannot partition"):
            ex.partition("R", "A")  # partitions=0 by default
    with pytest.raises(ServerError, match="closed"):
        ex.admit(_span(0, 10))


def test_stats_report(executor):
    executor.partition("R", "A")
    query = _span(2_000, 30_000, projections=("A",))
    executor.run(query)
    executor.run(query)
    stats = executor.stats()
    assert stats["queries_served"] == 2
    assert stats["cache_hits"] == 1
    assert 0.0 < stats["cache_hit_rate"] < 1.0
    assert stats["paths"]["partition"] == 1
    assert stats["latency_p99"] >= stats["latency_p50"] >= 0.0
    assert "R.A" in stats["partitioned"]


# -- bytes-budgeted LRU result cache ----------------------------------------


def _result_of_bytes(nbytes: int) -> "ServedResult":
    from repro.server.executor import ServedResult

    rows = max(1, nbytes // 8)
    return ServedResult(columns={"A": np.zeros(rows, dtype=np.int64)})


def test_lru_cache_admits_and_counts():
    from repro.server.executor import ResultCacheLRU

    cache = ResultCacheLRU(1 << 20)
    result = _result_of_bytes(1024)
    assert cache.put(("k",), result)
    assert cache.get(("k",)) is result
    assert cache.get(("missing",)) is None
    stats = cache.stats()
    assert stats["entries"] == 1
    assert stats["admissions"] == 1
    assert stats["evictions"] == 0
    assert stats["bytes"] == ResultCacheLRU.cost_of(result)


def test_lru_cache_evicts_least_recently_served():
    from repro.server.executor import ResultCacheLRU

    entry = ResultCacheLRU.cost_of(_result_of_bytes(4096))
    cache = ResultCacheLRU(3 * entry)
    for key in ("a", "b", "c"):
        cache.put((key,), _result_of_bytes(4096))
    assert cache.get(("a",)) is not None  # refresh "a": "b" is now LRU
    cache.put(("d",), _result_of_bytes(4096))
    assert cache.get(("b",)) is None
    assert cache.get(("a",)) is not None
    assert cache.stats()["evictions"] == 1
    assert cache.bytes <= cache.capacity_bytes


def test_lru_cache_refuses_oversized_entries():
    from repro.server.executor import ResultCacheLRU

    cache = ResultCacheLRU(1024)
    assert not cache.put(("big",), _result_of_bytes(1 << 20))
    assert len(cache) == 0
    assert cache.stats()["rejections"] == 1


def test_lru_cache_replaces_existing_key_without_double_count():
    from repro.server.executor import ResultCacheLRU

    cache = ResultCacheLRU(1 << 20)
    cache.put(("k",), _result_of_bytes(1024))
    cache.put(("k",), _result_of_bytes(2048))
    assert len(cache) == 1
    assert cache.bytes == ResultCacheLRU.cost_of(_result_of_bytes(2048))


def test_executor_cache_bytes_budget_evicts(db):
    """A tiny --cache-bytes budget forces evictions under serving load."""
    with ServerExecutor(db, workers=1, cache_bytes=8 * 1024) as executor:
        for i in range(12):
            executor.run(_span(i * 1_000, (i + 5) * 1_000, projections=("A", "B")))
        stats = executor.stats()["cache"]
        assert stats["capacity_bytes"] == 8 * 1024
        assert stats["bytes"] <= 8 * 1024
        assert stats["admissions"] + stats["rejections"] == 12
        assert stats["evictions"] > 0 or stats["rejections"] > 0


def test_executor_cache_bytes_zero_disables_cache(db):
    with ServerExecutor(db, workers=1, cache_bytes=0) as executor:
        query = _span(2_000, 30_000)
        executor.run(query)
        repeat = executor.run(query)
        assert not repeat.cached
        assert executor.stats()["cache"]["admissions"] == 0


# -- abandonment and batch deadline skew (overload regressions) --------------


def _stuck_query(lo=0, hi=1):
    return Query("R", (
        Predicate("C", Interval.half_open(lo, hi)),
        Predicate("D", Interval.half_open(lo, hi)),
    ))


def test_abandoned_timeout_result_never_cached(executor):
    """A waiter that times out abandons the request; the worker's late
    result must not be admitted to the cache (it would otherwise serve a
    stale answer to the next client as a hit)."""
    lock = executor.registry.lock_for("R")
    query = _stuck_query()
    acquired = threading.Event()
    release = threading.Event()

    def holder():
        with lock.write():
            acquired.set()
            release.wait(timeout=10)

    t = threading.Thread(target=holder)
    t.start()
    acquired.wait(timeout=5)
    try:
        with pytest.raises(QueryTimeout):
            executor.run(query, timeout=0.1)
        assert executor.stats()["abandoned"] == 1
    finally:
        release.set()
        t.join(timeout=10)
    # Let the abandoned worker finish computing its (uncacheable) answer.
    deadline = time.perf_counter() + 10
    while time.perf_counter() < deadline:
        stats = executor.stats()
        if stats["inflight"] == 0 and stats["queue_depth"] == 0:
            break
        time.sleep(0.01)
    fresh = executor.run(query)
    assert not fresh.cached


def test_run_batch_anchors_every_deadline_at_one_enqueue_instant(executor):
    """Batch members must share one enqueue timestamp: a request's
    position in the batch grants no extra budget."""
    seen = []
    original = executor.admit

    def spy(request, timeout=None, enqueued=None):
        seen.append(enqueued)
        return original(request, timeout=timeout, enqueued=enqueued)

    executor.admit = spy
    try:
        executor.run_batch([_span(0, 10), _span(10, 20), _span(20, 30)])
    finally:
        executor.admit = original
    assert len(seen) == 3
    assert all(e is not None for e in seen)
    assert len(set(seen)) == 1


def test_run_batch_budget_covers_queue_wait(db):
    """A batch member whose budget elapses while it waits behind an
    earlier member must time out — the old per-admission clock silently
    granted later members extra budget."""
    with ServerExecutor(db, workers=1, cache_bytes=0) as executor:
        lock = executor.registry.lock_for("R")
        acquired = threading.Event()

        def holder():
            with lock.write():
                acquired.set()
                time.sleep(0.4)

        t = threading.Thread(target=holder)
        t.start()
        acquired.wait(timeout=5)
        try:
            with pytest.raises(QueryTimeout):
                executor.run_batch([
                    ServedQuery(_stuck_query()),
                    ServedQuery(_stuck_query(1, 2), timeout=0.2),
                ])
        finally:
            t.join(timeout=10)


def test_run_batch_keeps_the_deadline_of_a_repeat_with_a_shorter_budget(db):
    """Dedup must not merge identical queries with different budgets: the
    short-budget repeat would otherwise be answered on the first member's
    deadline, long after its own had passed."""
    with ServerExecutor(db, workers=1, cache_bytes=0) as executor:
        lock = executor.registry.lock_for("R")
        acquired = threading.Event()

        def holder():
            with lock.write():
                acquired.set()
                time.sleep(0.4)

        t = threading.Thread(target=holder)
        t.start()
        acquired.wait(timeout=5)
        try:
            with pytest.raises(QueryTimeout):
                executor.run_batch([
                    ServedQuery(_stuck_query(), timeout=30),
                    ServedQuery(_stuck_query(), timeout=0.1),
                ])
        finally:
            t.join(timeout=10)


# -- fault recovery: the same on every backend --------------------------------


FAULT_SQL = "select A, B from R where A between 1000 and 29999"


@pytest.mark.parametrize("spec", ["kernels.crack_three=error", "arena.alloc=oom"])
@pytest.mark.parametrize("backend", ["serial", "thread"])
def test_served_fault_recovers_by_scan(small_arrays, backend, spec):
    """A recoverable fault in a shard crack answers by a base-column scan,
    marked ``fault_recovered`` and kept out of the cache, on serial and
    thread shards alike; the request frame stays ``ok``."""
    db = Database()
    db.create_table("R", dict(small_arrays))
    shards = {} if backend == "serial" else dict(
        partitions=2, partition_attrs=(("R", "A"),)
    )
    with (
        Checks(faults=spec).armed() as armed,
        ServerHandle(db, workers=2, **shards) as handle,
    ):
        reply = handle.request({"sql": FAULT_SQL})
        assert reply["ok"], reply
        want = _scan_digest(db, ServedQuery.from_sql(FAULT_SQL, db).query)
        assert reply["result"]["fault_recovered"]
        assert handle.executor.stats()["cache"]["admissions"] == 0
        again = handle.executor.run(FAULT_SQL)
        later = handle.executor.run(_span(40_000, 60_000, projections=("A",)))
    assert not again.cached and not again.fault_recovered
    # The recovered reply's bytes are the clean answer's, row for row.
    assert reply["result"]["digest"] == again.digest()
    assert value_digest(again) == want
    assert not later.fault_recovered
    site, kind = spec.split("=")
    assert armed.plan.injected == [f"{site}@1={kind}"]


def test_served_fault_rebuilds_a_quarantined_shard(small_arrays, monkeypatch):
    """A shard whose rollback cannot be validated is quarantined; the
    executor rebuilds it from the base column's live rows in its range."""
    db = Database()
    db.create_table("R", dict(small_arrays))
    query = _span(1_000, 30_000, projections=("A", "B"))
    with (
        Checks(faults="kernels.crack_three=error").armed(),
        ServerExecutor(db, workers=2, partitions=2) as executor,
    ):
        column = executor.partition("R", "A")
        values = db.table("R").values("A")
        executor.delete("R", np.flatnonzero(values < 30_000)[:25])
        before = [shard.cracker for shard in column.shards]
        monkeypatch.setattr(guard, "_validate", lambda structure, kind: ["forced"])
        got = executor.run(query)
        monkeypatch.undo()
        rebuilt = [
            shard for shard, old in zip(column.shards, before)
            if shard.cracker is not old
        ]
        after = executor.run(_span(1_000, 30_001, projections=("A", "B")))
    assert got.fault_recovered
    assert value_digest(got) == _scan_digest(db, query)
    assert len(rebuilt) == 1
    (shard,) = rebuilt
    assert guard.is_quarantined(before[column.shards.index(shard)])
    assert not guard.is_quarantined(shard.cracker)
    live = ~db.tombstones("R")
    in_range = (values >= shard.lo) & (values < shard.hi)
    assert sorted(shard.cracker.keys) == list(np.flatnonzero(live & in_range))
    assert not after.fault_recovered
    assert after.row_count == got.row_count + int(
        ((values == 30_000) & live).sum()
    )
