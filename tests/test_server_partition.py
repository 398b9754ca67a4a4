"""The in-process shard: lock modes and lock statistics.

Everything the thread backend shares with the process backend (layout,
pruning, scatter/gather, update routing, shared stats) is covered once for
both in ``test_shard_backends.py``.
"""

import numpy as np
import pytest

from repro.cracking.bounds import Interval
from repro.engine.database import Database
from repro.server.locks import LockRegistry
from repro.server.partition import PartitionedColumn
from repro.stats.counters import StatsRecorder


def _column(values: np.ndarray, partitions: int) -> PartitionedColumn:
    db = Database()
    db.create_table("R", {"A": values.astype(np.int64)})
    return PartitionedColumn(
        db.table("R").column("A"), partitions, LockRegistry(), "R", "A",
        StatsRecorder(),
    )


@pytest.fixture
def values(rng) -> np.ndarray:
    return rng.integers(0, 100_000, size=20_000).astype(np.int64)


def test_pruned_shards_take_no_lock(values):
    column = _column(values, 8)
    narrow = Interval.half_open(1_000, 2_000)
    relevant = column.relevant(narrow)
    assert 1 <= len(relevant) < len(column.shards)
    # Pruned shards never get touched: their locks record no acquisitions.
    column.select(narrow)
    touched = {id(s) for s in relevant}
    for shard in column.shards:
        if id(shard) not in touched:
            assert shard.lock.read_acquires == 0
            assert shard.lock.write_acquires == 0


def test_updates_wait_in_the_pending_buffers(values):
    column = _column(values, 4)
    column.add_insertions(
        np.array([123, 99_999], dtype=np.int64),
        np.array([len(values), len(values) + 1], dtype=np.int64),
    )
    assert any(s.cracker.pending.has_pending() for s in column.shards)
    column.apply_pending_all()
    assert not any(s.cracker.pending.has_pending() for s in column.shards)


def test_select_one_cracks_under_write_lock(values):
    column = _column(values, 2)
    shard = column.shards[0]
    interval = Interval.half_open(0, 1_000)
    before = shard.lock.write_acquires
    assert column.select_one(shard, interval).meta["path"] == "crack"
    assert shard.lock.write_acquires == before + 1  # first touch cracks
    # A repeat of the same interval is answered by probe under the read side.
    before = shard.lock.write_acquires
    assert column.select_one(shard, interval).meta["path"] == "probe"
    assert shard.lock.write_acquires == before


def test_a_late_request_cracks_under_a_trimmed_budget(values):
    """Past ``BUDGET_TRIM_FRACTION`` of its deadline, a select cracks an
    unbudgeted shard under the trimmed allowance, restored afterwards."""
    import time

    from repro.server.resilience import Deadline

    column = _column(values, 1)
    (shard,) = column.shards
    fresh = Deadline(10.0)
    column.select(Interval.half_open(10_000, 20_000), fresh)
    assert column.budget_trims == 0
    late = Deadline(10.0, started=time.perf_counter() - 9.0)
    interval = Interval.half_open(40_000, 60_000)
    keys = column.select(interval, late).keys
    assert column.budget_trims == 1
    assert shard.cracker.budget is None
    assert sorted(keys) == list(np.flatnonzero(interval.mask(values)))


def test_stats_report_one_lock_per_shard(values):
    column = _column(values, 4)
    stats = column.stats()
    assert list(stats) == [
        "table", "attr", "partitions", "rows", "shard_rows", "locks"
    ]
    assert len(stats["locks"]) == len(column.shards)
