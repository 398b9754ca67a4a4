"""The sharded-column contract, run against both shard backends.

Everything here is behaviour :class:`~repro.server.partition.ShardedColumn`
implements once — layout, pruning, scatter/gather, update routing, the
shared statistics — so a thread-shard column and a process-shard column
over the same BAT must be indistinguishable.  Backend-specific behaviour
(lock modes; crash/deadline/breaker/fallback, shm lifecycle) lives in
``test_server_partition.py`` and ``test_procpool.py``.
"""

from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.cracking.bounds import Interval
from repro.cracking.stochastic import resolve_policy
from repro.errors import PlanError, ServerError
from repro.server.locks import LockRegistry
from repro.server.partition import PartitionedColumn, route_masks
from repro.server.procpool import ProcessShardPool
from repro.stats.counters import StatsRecorder
from repro.storage.bat import BAT
from repro.storage.types import ColumnType

BACKENDS = {
    "thread": ("partition", lambda bat, k, rec: PartitionedColumn(
        bat, k, LockRegistry(), "t", "A", rec)),
    "process": ("process", lambda bat, k, rec: ProcessShardPool(
        bat, k, "t", "A", rec)),
}

INTERVALS = [
    Interval.open(1_000, 5_000),
    Interval.closed(0, 9_999),
    Interval.half_open(2_500, 2_501),
    Interval.point(4_242),
    Interval.at_most(100),
    Interval.at_least(9_000, inclusive=False),
    Interval.open(5_000, 5_001),        # empty over integers
    Interval.closed(20_000, 30_000),    # outside the domain
]


@pytest.fixture(params=sorted(BACKENDS))
def backend(request):
    """``build(values, partitions) -> column`` for one backend; every column
    built is closed at teardown.  ``build.path`` is the backend's label."""
    path, factory = BACKENDS[request.param]
    built = []

    def build(values, partitions, recorder=None):
        bat = BAT(np.asarray(values, dtype=np.int64), ColumnType.INT, None, None)
        column = factory(bat, partitions, recorder or StatsRecorder())
        built.append(column)
        return column

    build.path = path
    yield build
    for column in built:
        column.close()


@pytest.fixture
def values(rng) -> np.ndarray:
    return rng.integers(0, 10_000, size=20_000).astype(np.int64)


def _scan(values, interval):
    return np.flatnonzero(interval.mask(values))


def _selected(column, interval, **kwargs):
    return np.sort(column.select(interval, **kwargs).keys)


@pytest.mark.parametrize("partitions", [1, 4])
def test_select_equals_scan(backend, values, partitions):
    column = backend(values, partitions)
    for interval in INTERVALS + INTERVALS[:2]:  # repeats hit the probe path
        got = column.select(interval)
        assert np.array_equal(np.sort(got.keys), _scan(values, interval))
        assert got.path == backend.path
        assert not got.recovered and not got.degraded


def test_scatter_over_a_pool_equals_serial_scatter(backend, values):
    column = backend(values, 4)
    with ThreadPoolExecutor(max_workers=4) as pool:
        for interval in INTERVALS:
            pooled = _selected(column, interval, pool=pool)
            assert np.array_equal(pooled, _scan(values, interval))
            assert np.array_equal(pooled, _selected(column, interval))


def test_pruning_skips_disjoint_shards(backend, values):
    recorder = StatsRecorder()
    column = backend(values, 8, recorder)
    bounds = column.partition_bounds
    assert bounds[0] == -np.inf and bounds[-1] == np.inf
    assert bounds == sorted(bounds)
    assert len(column.shards) == len(bounds) - 1
    narrow = Interval.half_open(1_000, 1_100)
    # A shard survives iff its [lo, hi) range meets [1000, 1100).
    expected = sum(
        1 for lo, hi in zip(bounds, bounds[1:]) if lo < 1_100 and hi > 1_000
    )
    assert len(column.relevant(narrow)) == expected < len(column.shards)
    before = recorder.root.index_lookups
    column.select(narrow)
    # Each pruned shard counts as one index lookup (in-process shards add
    # their crackers' own lookups to the same recorder).
    assert recorder.root.index_lookups - before >= len(column.shards) - expected
    assert len(column.relevant(Interval.at_least(0))) == len(column.shards)


def test_quantile_bounds_balance_skew(backend, rng):
    # Heavily skewed values: equal-width bounds would put almost everything
    # in one shard; quantile bounds keep shards within a small factor.
    skewed = (rng.zipf(1.2, size=30_000) % 100_000).astype(np.int64)
    sizes = backend(skewed, 8).stats()["shard_rows"]
    assert sum(sizes) == len(skewed)
    assert max(sizes) <= 4 * (len(skewed) // len(sizes))


def test_partition_count_validation(backend, values):
    with pytest.raises(PlanError, match=">= 1"):
        backend(values, 0)


def test_updates_route_to_owning_shards(backend, values):
    column = backend(values, 4)
    interval = Interval.half_open(1_000, 6_000)
    base = _selected(column, interval)
    n = len(values)

    new_values = np.array([1_050, 5_999, 9_500], dtype=np.int64)
    new_keys = np.arange(n, n + 3, dtype=np.int64)
    column.add_insertions(new_values, new_keys)
    assert np.array_equal(
        _selected(column, interval), np.sort(np.concatenate([base, new_keys[:2]]))
    )

    # Delete one of the fresh rows plus one pre-existing qualifying row.
    victim = base[0]
    column.add_deletions(
        np.array([values[victim], 1_050], dtype=np.int64),
        np.array([victim, new_keys[0]], dtype=np.int64),
    )
    want = np.sort(np.concatenate([base[1:], new_keys[1:2]]))
    assert np.array_equal(_selected(column, interval), want)
    # ... and the row routed to the last shard is there, too.
    assert n + 2 in column.select(Interval.at_least(9_000)).keys


def test_collapsed_shards_answer_and_accept_updates(backend):
    values = np.repeat(np.int64(7), 5_000)
    column = backend(values, 8)
    # All quantiles coincide: fewer shards than asked for, one of them empty.
    rows = column.stats()["shard_rows"]
    assert len(rows) < 8 and 0 in rows and sum(rows) == 5_000
    assert len(column.select(Interval.closed(7, 7)).keys) == 5_000
    assert len(column.select(Interval.at_most(6)).keys) == 0
    # Rows routed into the empty shard are found, and can be deleted again.
    column.add_insertions(
        np.array([3, 5], dtype=np.int64), np.array([5_000, 5_001], dtype=np.int64)
    )
    assert sorted(column.select(Interval.at_most(6)).keys) == [5_000, 5_001]
    column.add_deletions(
        np.array([3], dtype=np.int64), np.array([5_000], dtype=np.int64)
    )
    assert list(column.select(Interval.at_most(6)).keys) == [5_001]
    assert len(column.select(Interval.closed(7, 7)).keys) == 5_000


def test_apply_pending_all_drains(backend, values):
    column = backend(values, 4)
    n = len(values)
    ins_values = np.array([123, 9_999, 5_000], dtype=np.int64)
    column.add_insertions(ins_values, np.arange(n, n + 3, dtype=np.int64))
    column.add_deletions(values[:1], np.array([0], dtype=np.int64))
    assert column.stats()["rows"] == n  # still pending, not merged
    column.apply_pending_all()
    expected = np.array([
        mask.sum() for mask in route_masks(values, column.partition_bounds)
    ])
    expected += [m.sum() for m in route_masks(ins_values, column.partition_bounds)]
    expected -= [m.sum() for m in route_masks(values[:1], column.partition_bounds)]
    stats = column.stats()
    assert stats["shard_rows"] == expected.tolist()
    assert stats["rows"] == len(column) == n + 2
    everything = Interval.at_least(0)
    want = np.sort(np.concatenate([np.arange(1, n), np.arange(n, n + 3)]))
    assert np.array_equal(_selected(column, everything), want)


def test_shared_stats_and_health_shape(backend, values):
    column = backend(values, 4)
    stats = column.stats()
    assert list(stats)[:2] == ["table", "attr"]
    assert {"table", "attr", "partitions", "rows", "shard_rows"} <= set(stats)
    assert (stats["table"], stats["attr"]) == ("t", "A")
    assert stats["partitions"] == len(column.shards) == len(stats["shard_rows"])
    assert stats["shard_rows"] == [
        int(mask.sum()) for mask in route_masks(values, column.partition_bounds)
    ]
    assert stats["rows"] == len(values)
    health = column.health()
    assert set(health) == {"breakers", "workers_alive"}
    assert set(health["breakers"]) == set(health["workers_alive"])
    assert all(state == "closed" for state in health["breakers"].values())
    assert all(health["workers_alive"].values())


def test_closed_column_refuses_selects(backend, values):
    column = backend(values, 2)
    column.close()
    column.close()  # idempotent
    with pytest.raises(ServerError, match="closed"):
        column.select(Interval.closed(0, 100))


def test_both_backends_crack_identically_under_a_tuned_policy(values):
    """A policy's ``min_piece`` reaches the worker processes too, so one
    thread shard and one process shard leave the same pieces behind."""
    bat = BAT(values, ColumnType.INT, None, None)
    policy = resolve_policy("mdd1r", min_piece=64)
    thread = PartitionedColumn(bat, 1, LockRegistry(), "t", "A", policy=policy)
    process = ProcessShardPool(bat, 1, "t", "A", policy=policy)
    try:
        for lo in range(0, 9_000, 700):
            interval = Interval.closed(lo, lo + 250)
            assert np.array_equal(
                np.sort(thread.select(interval).keys),
                np.sort(process.select(interval).keys),
            )
        cracker = thread.shards[0].cracker
        (snapshot,) = process.snapshot()
        assert cracker.stochastic_cuts > 0
        assert (snapshot["pieces"], snapshot["stochastic_cuts"]) == (
            cracker.index.piece_count, cracker.stochastic_cuts
        )
    finally:
        thread.close()
        process.close()
