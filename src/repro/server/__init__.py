"""The concurrent query-serving subsystem.

Cracking is write-on-read: answering a selection may physically reorganize
the column it scans, so the classic engines assume one query at a time owns
every structure.  This package layers concurrent serving on top of them:

:mod:`repro.server.locks`
    Per-structure reader-writer coordination.  Read-only scans over
    already-cracked pieces share access; crackers take short exclusive
    sections whose hold time is capped by the progressive budgets of PR 5.
:mod:`repro.server.executor`
    The session/executor front: a thread pool serving SQL or programmatic
    queries with per-query deadlines, statistics, batched admission, and a
    version-keyed result cache; result rows come in tuple-key order, so
    concurrent interleavings stay bit-identical to each other.
:mod:`repro.server.partition`
    Partition-parallel execution: one range-sharded column
    (:class:`~repro.server.partition.ShardedColumn`) owning layout,
    pruning, scatter-gather and update routing over a small per-shard
    contract, plus the in-process shard kind — an independently-cracked
    :class:`~repro.cracking.column.CrackerColumn` under its own lock.
:mod:`repro.server.procpool`
    The worker-process shard kind: one long-lived process per shard over
    :class:`~repro.storage.shared.SharedBAT` segments, driven by a compact
    command protocol with per-request deadlines and deterministic
    respawn-and-replay from the shard's tape on worker death — shard
    cracks on separate cores instead of one GIL.
:mod:`repro.server.serve`
    An asyncio TCP front end speaking newline-delimited JSON, plus an
    in-process handle used by tests and the ``repro serve`` CLI subcommand.
:mod:`repro.server.crashkit`
    The crash-consistency harness: a checkpointing worker loop designed to
    be SIGKILLed mid-workload and recovered from its last atomic snapshot.

``docs/serving.md`` describes the locking protocol, the partition layout,
and how the budget knob doubles as the lock-hold-time knob.
"""

# Re-exports are lazy (PEP 562): `repro.server.locks` is the repo's only
# lock-construction site (the LockSan discipline), so low-level modules —
# pending buffers, the database facade, the sanitizer — import it for
# `Mutex`.  Eagerly importing the executor here would drag the whole engine
# stack into those imports and close a cycle.
__all__ = [
    "LockRegistry",
    "Mutex",
    "PartitionedColumn",
    "ProcessShardPool",
    "ResultCacheLRU",
    "RWLock",
    "ServedQuery",
    "ServedResult",
    "ServerExecutor",
]

_HOMES = {
    "LockRegistry": "repro.server.locks",
    "Mutex": "repro.server.locks",
    "RWLock": "repro.server.locks",
    "PartitionedColumn": "repro.server.partition",
    "ProcessShardPool": "repro.server.procpool",
    "ResultCacheLRU": "repro.server.executor",
    "ServedQuery": "repro.server.executor",
    "ServedResult": "repro.server.executor",
    "ServerExecutor": "repro.server.executor",
}


def __getattr__(name: str):
    home = _HOMES.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(home), name)
