"""ServerExecutor: execution paths, caching, batching, deadlines."""

import threading
import time

import numpy as np
import pytest

from repro.cracking.bounds import Interval
from repro.engine.database import Database
from repro.engine.query import Predicate, Query
from repro.engine.selection_cracking import SelectionCrackingEngine
from repro.errors import QueryTimeout, ServerError
from repro.server.executor import (
    ServedQuery,
    ServerExecutor,
    canonicalize,
    digest_columns,
)


@pytest.fixture
def executor(db):
    with ServerExecutor(db, workers=2, partitions=4) as ex:
        yield ex


def _span(lo, hi, attr="A", **kwargs):
    return Query("R", (Predicate(attr, Interval.half_open(lo, hi)),), **kwargs)


def test_canonicalize_is_schedule_independent(rng):
    a = rng.integers(0, 50, size=200).astype(np.int64)
    b = rng.integers(0, 50, size=200).astype(np.int64)
    shuffled = rng.permutation(200)
    one = canonicalize({"A": a, "B": b})
    other = canonicalize({"A": a[shuffled], "B": b[shuffled]})
    assert digest_columns(one) == digest_columns(other)
    # The lexsort fallback: a float column, and an int column whose value
    # range is 64 bits wide (too wide to pack into one int64 key).
    f = rng.integers(0, 10, size=200) / 4.0
    w = rng.integers(0, 50, size=200).astype(np.int64)
    w[:2] = np.iinfo(np.int64).min, np.iinfo(np.int64).max
    for wide in ({"A": a, "F": f}, {"A": a, "W": w}):
        one = canonicalize(wide)
        other = canonicalize({k: v[shuffled] for k, v in wide.items()})
        assert digest_columns(one) == digest_columns(other)


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


def test_read_path_after_engine_builds_cracker(executor):
    # The first two-predicate query pays the engine under the write lock...
    query = Query(
        "R",
        (
            Predicate("B", Interval.half_open(10_000, 80_000)),
            Predicate("C", Interval.half_open(20_000, 90_000)),
        ),
        projections=("B", "C"),
    )
    first = executor.run(query)
    assert first.path == "engine"
    # ... which leaves B's index boundaries in place, so the identical
    # selection (cache off via a distinct projection) probes read-only.
    probe = Query(
        "R",
        (
            Predicate("B", Interval.half_open(10_000, 80_000)),
            Predicate("C", Interval.half_open(30_000, 70_000)),
        ),
        projections=("B", "D"),
    )
    second = executor.run(probe)
    assert second.path == "read"


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
    serial = [
        digest_columns(canonicalize(engine.run(q).columns)) for q in queries
    ]

    served_db = Database()
    served_db.create_table("R", {k: v.copy() for k, v in small_arrays.items()})
    with ServerExecutor(served_db, workers=4, partitions=4) as ex:
        ex.partition("R", "A")
        results = ex.run_batch(queries)
        repeats = ex.run_batch(queries)  # the second pass hits the cache
        assert [r.digest() for r in results] == serial
        assert [r.digest() for r in repeats] == serial
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
    assert executor.run(served).path in ("partition", "read", "engine")


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
        ex.submit(_span(0, 10))


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
