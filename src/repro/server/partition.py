"""Partition-parallel cracking: one range-sharded column, two shard kinds.

A :class:`ShardedColumn` splits one attribute into ``k`` contiguous value
ranges and owns everything that does not depend on *where* a shard lives:
the quantile layout, interval → shard pruning, the scatter onto a thread
pool, the gather, value → shard update routing, and the common statistics.
What a shard *is* hides behind a five-method contract —

``select(interval, deadline) -> ShardReply``
    this shard's qualifying keys (probe when already cracked, else crack);
``update(ins_values, ins_keys, del_values, del_keys)``
    queue routed rows on the shard's pending buffers;
``apply_pending()``
    drain those buffers;
``health()``
    ``{"breaker": state, "alive": bool}``, or ``None`` for a shard that has
    nothing to be sick with;
``close()``
    release whatever the shard owns

— plus ``lo``/``hi`` (its value range) and ``rows``.  There are exactly two
implementations: the in-process :class:`_Shard` below (an ordinary
:class:`~repro.cracking.column.CrackerColumn` under its own
:class:`~repro.server.locks.RWLock`; built by :class:`PartitionedColumn`)
and the worker-process shard of :mod:`repro.server.procpool` (built by
:class:`~repro.server.procpool.ProcessShardPool`).

Queries run as **prune → per-shard select → gather**:

* shards whose value range cannot intersect the interval are pruned without
  taking any lock (the partition bounds are immutable after construction);
* each surviving shard answers through the contract — scattered over the
  caller's thread pool when there is more than one;
* the per-shard key arrays are concatenated (the scatter-gather merge).

Because the shards partition the *value* domain, a shard's result is exactly
the interval's restriction to that range, and the merged multiset of keys is
identical to an unpartitioned column's answer for every interleaving of
concurrent shard cracks — order differs, membership never does.  The
serving layer sorts the merged keys into tuple-key order, so partitioned and
serial executions stay bit-identical.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.analysis import racesan
from repro.cracking.bounds import Interval
from repro.cracking.column import CrackerColumn
from repro.cracking.progressive import ProgressiveBudget
from repro.cracking.stochastic import policy_rng
from repro.errors import PlanError, ServerError
from repro.faults.guard import is_quarantined
from repro.server.locks import LockRegistry, RWLock
from repro.server.resilience import Deadline
from repro.stats.counters import StatsRecorder, global_recorder
from repro.storage.bat import BAT

#: Default per-command deadline (seconds) when the caller supplies none.
DEFAULT_DEADLINE = 30.0

#: A request that has spent this fraction of its deadline cracks an
#: in-process shard under a trimmed
#: :class:`~repro.cracking.progressive.ProgressiveBudget` — answer via
#: hole-carrying resolve now, finish cracking on some later, less-pressed
#: query.
BUDGET_TRIM_FRACTION = 0.5

#: The trimmed per-select crack allowance (elements).
BUDGET_TRIM_ELEMENTS = 4096


def partition_layout(
    values: np.ndarray, partitions: int
) -> tuple[list[float], np.ndarray, list[tuple[int, int]]]:
    """The quantile scatter every sharded column is built from.

    Returns ``(edges, order, spans)``: shard value edges (first ``-inf``,
    last ``+inf``), one stable argsort grouping rows by shard while
    preserving tuple order inside each, and the ``[start, end)`` span of
    each shard inside ``order``.  Quantile bounds over the actual data are
    deterministic and balanced under value skew (equal-width bounds would
    not be); duplicate quantiles (low-cardinality data) collapse, so the
    effective shard count can be smaller than requested.
    """
    if partitions < 1:
        raise PlanError(f"partition count {partitions} must be >= 1")
    n = len(values)
    if partitions > 1 and n:
        qs = np.linspace(0, 1, partitions + 1)[1:-1]
        bounds = np.unique(np.quantile(values, qs))
    else:
        bounds = np.empty(0, dtype=np.float64)
    # One scatter pass: classify every row, then one stable argsort groups
    # rows by shard while preserving tuple order inside each.
    if len(bounds):
        part_of = np.searchsorted(bounds, values, side="right")
        order = np.argsort(part_of, kind="stable")
        offsets = np.searchsorted(part_of[order], np.arange(len(bounds) + 1))
    else:
        order = np.arange(n)
        offsets = np.array([0])
    edges = [-np.inf, *(float(b) for b in bounds), np.inf]
    ends = [*offsets[1:], n]
    spans = [(int(s), int(e)) for s, e in zip(offsets, ends)]
    return edges, order, spans


def route_masks(
    values: np.ndarray, edges: list[float]
) -> "list[np.ndarray]":
    """Per-shard boolean masks routing ``values`` by the shard value edges."""
    values = np.asarray(values)
    out = []
    for lo, hi in zip(edges, edges[1:]):
        mask = np.ones(len(values), dtype=bool)
        if lo != -np.inf:
            mask &= values >= lo
        if hi != np.inf:
            mask &= values < hi
        out.append(mask)
    return out


def probe_shard(
    cracker: CrackerColumn, interval: Interval
) -> "tuple[np.ndarray | None, str]":
    """The read-only half of one shard's select, shared by both shard kinds.

    Returns ``(keys, path)``: ``"empty"`` for a degenerate shard (quantile
    collapse on low-cardinality data), ``"probe"`` when the existing pieces
    already answer, or ``(None, "crack")`` when the caller must run the
    budget-bounded ``cracker.select(interval)`` — under the shard's write
    lock in process, lock-free inside a single-threaded worker.
    """
    if not len(cracker) and not cracker.pending.has_pending():
        return np.empty(0, dtype=np.int64), "empty"
    keys = cracker.probe(interval)
    return keys, "crack" if keys is None else "probe"


def queue_update(
    cracker: CrackerColumn,
    ins_values: np.ndarray,
    ins_keys: np.ndarray,
    del_values: np.ndarray,
    del_keys: np.ndarray,
) -> None:
    """Queue one routed update on a shard's pending buffers."""
    if len(ins_values):
        cracker.add_insertions(ins_values, ins_keys)
    if len(del_values):
        cracker.add_deletions(del_values, del_keys)


@dataclass
class ShardReply:
    """One shard's answer: the keys (if any) plus timing/path meta.

    ``recovered`` — the shard's worker died and was respawn-and-replayed;
    ``degraded`` — the reply was synthesized by the scan fallback because
    the shard's circuit breaker was open (or its retries were exhausted):
    exact keys, but served without cracking.  In-process shards set
    neither.
    """

    keys: np.ndarray | None
    meta: dict
    recovered: bool = False
    degraded: bool = False
    dispatch_seconds: float = 0.0


@dataclass(frozen=True)
class GatherResult:
    """What one scatter-gather :meth:`ShardedColumn.select` produced.

    ``path`` is the executor's label for the backend that answered
    (``"partition"`` or ``"process"``).  ``recovered`` — at least one shard
    died and was respawn-and-replayed, or a fault left the shards and the
    executor answered by a base-column scan; ``degraded`` — at least one
    shard's range was answered by the breaker's scan fallback.  Either flag
    keeps the result out of the executor's cache; ``degraded`` additionally
    surfaces in the wire payload so clients know the answer skipped the
    cracking path.
    """

    keys: np.ndarray
    path: str
    recovered: bool = False
    degraded: bool = False


class _Shard:
    """The in-process shard: a cracker column under its own lock."""

    __slots__ = ("lo", "hi", "cracker", "lock", "trims")

    def __init__(
        self, lo: float, hi: float, cracker: CrackerColumn, lock: RWLock
    ) -> None:
        self.lo = lo  # inclusive lower value bound (-inf for the first shard)
        self.hi = hi  # exclusive upper value bound (+inf for the last shard)
        self.cracker = cracker
        self.lock = lock
        self.trims = 0  # cracks run under a deadline-trimmed budget

    @property
    def rows(self) -> int:
        return len(self.cracker)

    def select(
        self, interval: Interval, deadline: Deadline | None = None
    ) -> ShardReply:
        """Probe under the shared read side, then the budget-bounded crack
        under exclusive write.  The executor scatters while holding the
        table's *read* lock, which serializes the whole scatter-gather
        against updates (they take the table's write lock); the hierarchy
        is strictly table → shard, so no cycle can form.

        A request past ``BUDGET_TRIM_FRACTION`` of its deadline cracks an
        unbudgeted shard under a ``BUDGET_TRIM_ELEMENTS`` allowance (an
        explicit crack budget is already a cap and is left alone)."""
        with self.lock.read():
            keys, path = probe_shard(self.cracker, interval)
            racesan.note_access(f"{self.cracker.label}.pieces", "read")
        if keys is None:
            with self.lock.write():
                cracker = self.cracker
                consumed = deadline.consumed_fraction() if deadline else None
                trim = cracker.budget is None \
                    and (consumed or 0.0) >= BUDGET_TRIM_FRACTION
                if trim:
                    cracker.set_budget(
                        ProgressiveBudget(elements=BUDGET_TRIM_ELEMENTS)
                    )
                    self.trims += 1
                try:
                    keys = cracker.select(interval)
                finally:
                    if trim:
                        cracker.set_budget(None)
                racesan.note_access(f"{cracker.label}.pieces", "write")
                racesan.note_access(f"{cracker.label}.tape", "write")
                racesan.note_access(f"{cracker.label}.pendings", "write")
        return ShardReply(keys, {"path": path})

    def update(
        self,
        ins_values: np.ndarray,
        ins_keys: np.ndarray,
        del_values: np.ndarray,
        del_keys: np.ndarray,
    ) -> None:
        """Mutate the pending buffers under the shard's write lock, so
        routing never races a concurrent :meth:`select` probing or cracking
        the same shard.  Callers holding the table write lock are fine: the
        lock hierarchy is table → shard everywhere."""
        with self.lock.write():
            queue_update(self.cracker, ins_values, ins_keys, del_values, del_keys)
            racesan.note_access(f"{self.cracker.label}.pendings", "write")

    def apply_pending(self) -> None:
        with self.lock.write():
            self.cracker.apply_pending()
            racesan.note_access(f"{self.cracker.label}.pendings", "write")

    def health(self) -> None:
        return None

    def close(self) -> None:
        pass


class ShardedColumn:
    """Range-partitioned shards of one attribute, independently cracked.

    The single implementation of layout, pruning, scatter, gather, update
    routing and the common statistics; a backend supplies only
    ``make_shard(index, lo, hi, shard_bat)``, which builds its shard kind
    over one range's rows (values plus their *global* tuple keys).

    ``base`` is the attribute's base :class:`~repro.storage.bat.BAT`;
    ``partitions`` the requested shard count — bounds are value quantiles
    of the data, so shards are balanced even under skew, and duplicate
    quantiles (low-cardinality data) collapse, so the effective count can
    be smaller.
    """

    #: The executor's path label for results gathered from this column.
    path = "partition"

    def __init__(
        self,
        base: BAT,
        partitions: int,
        table: str,
        attr: str,
        recorder: StatsRecorder | None,
        make_shard,
    ) -> None:
        self.table = table
        self.attr = attr
        self._recorder = recorder or global_recorder()
        self._closed = False
        values = base.values
        edges, order, spans = partition_layout(values, partitions)
        self._recorder.sequential(2 * len(values))
        self._recorder.write(2 * len(values))
        #: The shard edges (first ``-inf`` and last ``+inf`` included).
        self.partition_bounds = edges
        self.shards: list = []
        built = False
        try:
            for i, (start, end) in enumerate(spans):
                shard_bat = base.gather(order[start:end])
                self.shards.append(
                    make_shard(i, edges[i], edges[i + 1], shard_bat)
                )
            built = True
        finally:
            # A mid-construction failure must not leak what the shards
            # already built own (worker processes, shared segments).
            if not built:
                self.close()

    def __len__(self) -> int:
        return sum(shard.rows for shard in self.shards)

    # -- querying ------------------------------------------------------------

    def relevant(self, interval: Interval) -> list:
        """Shards whose value range can intersect ``interval`` (pruning)."""
        lo = interval.lower_bound()
        hi = interval.upper_bound()
        out = []
        for shard in self.shards:
            if lo is not None and shard.hi != np.inf and lo.value >= shard.hi:
                continue
            if hi is not None and shard.lo != -np.inf and hi.value < shard.lo:
                continue
            out.append(shard)
        return out

    def select(
        self,
        interval: Interval,
        deadline: "Deadline | float | None" = DEFAULT_DEADLINE,
        pool=None,
    ) -> GatherResult:
        """Keys qualifying ``interval``, scatter-gathered across shards.

        ``pool`` (a thread pool) overlaps the per-shard selects: in-process
        shards interleave under their own locks, worker-process shards
        compute concurrently while the dispatching threads merely block on
        pipe I/O with the GIL released.  ``deadline`` may be a
        :class:`~repro.server.resilience.Deadline` (the executor threads
        the per-request budget through) or legacy float seconds.
        """
        if self._closed:
            raise ServerError(f"sharded column {self.table}.{self.attr} is closed")
        deadline = Deadline.coerce(deadline)
        relevant = self.relevant(interval)
        pruned = len(self.shards) - len(relevant)
        if pruned:
            self._recorder.event("index_lookups", pruned)
        if pool is not None and len(relevant) > 1:
            futures = [
                pool.submit(self.select_one, shard, interval, deadline)
                for shard in relevant[1:]
            ]
            replies = [self.select_one(relevant[0], interval, deadline)]
            replies += [f.result() for f in futures]
        else:
            replies = [
                self.select_one(shard, interval, deadline) for shard in relevant
            ]
        gather_started = time.perf_counter()
        if not replies:
            keys = np.empty(0, dtype=np.int64)
        elif len(replies) == 1:
            keys = replies[0].keys
        else:
            keys = np.concatenate([r.keys for r in replies])
        self._note_gather(replies, time.perf_counter() - gather_started)
        return GatherResult(
            keys,
            self.path,
            recovered=any(r.recovered for r in replies),
            degraded=any(r.degraded for r in replies),
        )

    @staticmethod
    def select_one(
        shard, interval: Interval, deadline: Deadline | None = None
    ) -> ShardReply:
        """One unpruned shard's share of a scatter (the pool task)."""
        return shard.select(interval, deadline)

    def _note_gather(self, replies: list[ShardReply], seconds: float) -> None:
        """Hook for a backend that keeps a scatter-gather timing ledger."""

    # -- maintenance ----------------------------------------------------------

    def add_insertions(self, values: np.ndarray, keys: np.ndarray) -> None:
        """Route new rows to their shards' pending buffers (the caller
        holds the table's write lock)."""
        self._route(values, keys, insert=True)

    def add_deletions(self, values: np.ndarray, keys: np.ndarray) -> None:
        """Route deletions to the shards holding the victims."""
        self._route(values, keys, insert=False)

    def _route(self, values: np.ndarray, keys: np.ndarray, insert: bool) -> None:
        values = np.asarray(values)
        keys = np.asarray(keys, dtype=np.int64)
        none_v, none_k = values[:0], keys[:0]
        masks = route_masks(values, self.partition_bounds)
        for shard, mask in zip(self.shards, masks):
            if not mask.any():
                continue
            if insert:
                shard.update(values[mask], keys[mask], none_v, none_k)
            else:
                shard.update(none_v, none_k, values[mask], keys[mask])

    def apply_pending_all(self) -> None:
        """Drain pending updates on every shard."""
        for shard in self.shards:
            shard.apply_pending()

    def heal(self, base: BAT, live: np.ndarray) -> None:
        """Rebuild shards a fault guard quarantined (caller holds the
        table's lock).  Worker-process shards heal by respawn-and-replay
        instead, so there is nothing to rebuild here."""

    # -- lifecycle and introspection -------------------------------------------

    def health(self) -> dict[str, dict]:
        """Breaker states and liveness of the shards that have any, keyed
        ``table.attr#i`` (in-process shards report nothing)."""
        breakers: dict[str, str] = {}
        workers_alive: dict[str, bool] = {}
        for i, shard in enumerate(self.shards):
            report = shard.health()
            if report is not None:
                name = f"{self.table}.{self.attr}#{i}"
                breakers[name] = report["breaker"]
                workers_alive[name] = report["alive"]
        return {"breakers": breakers, "workers_alive": workers_alive}

    def budget_holds(self) -> list[dict]:
        """Per-shard crack-budget hold statistics of in-parent crackers
        (worker-process shards crack elsewhere and report none)."""
        return []

    @property
    def budget_trims(self) -> int:
        """Shard cracks run under a deadline-trimmed budget (worker-process
        shards never trim)."""
        return 0

    def close(self) -> None:
        """Release everything the shards own.  Idempotent."""
        if self._closed:
            return
        self._closed = True
        for shard in self.shards:
            shard.close()

    def __enter__(self) -> "ShardedColumn":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def stats(self) -> dict[str, object]:
        shard_rows = [shard.rows for shard in self.shards]
        return {
            "table": self.table,
            "attr": self.attr,
            "partitions": len(self.shards),
            "rows": sum(shard_rows),
            "shard_rows": shard_rows,
        }


class PartitionedColumn(ShardedColumn):
    """The thread backend: every shard is an in-process :class:`_Shard`.

    Each shard's :class:`~repro.cracking.column.CrackerColumn` is built
    over that range's rows (values plus their *global* tuple keys) and
    cracks independently under its own lock — a hot column no longer
    serializes all queries behind one structure-wide critical section.
    ``registry`` is the owning server's
    :class:`~repro.server.locks.LockRegistry`; each shard's lock is
    registered under ``(table, attr, i)`` and bound to the shard's cracker
    so sanitizer sweeps honor it.
    """

    def __init__(
        self,
        base: BAT,
        partitions: int,
        registry: LockRegistry,
        table: str,
        attr: str,
        recorder: StatsRecorder | None = None,
        budget: object = None,
        policy: object = None,
        crack_seed: int = 42,
    ) -> None:
        self._registry = registry
        self._cracking = dict(budget=budget, policy=policy)
        self._crack_seed = crack_seed

        def make_shard(index: int, lo: float, hi: float, shard_bat: BAT) -> _Shard:
            lock = registry.lock_for(table, attr, index)
            return _Shard(lo, hi, self._cracker(index, shard_bat, lock), lock)

        super().__init__(base, partitions, table, attr, recorder, make_shard)

    def _cracker(self, index: int, shard_bat: BAT, lock: RWLock) -> CrackerColumn:
        cracker = CrackerColumn(
            shard_bat,
            self._recorder,
            rng=policy_rng(self._crack_seed, "shard", self.table, self.attr, index),
            label=f"shard[{self.table}.{self.attr}#{index}]",
            **self._cracking,
        )
        self._registry.bind(cracker, lock)
        return cracker

    def heal(self, base: BAT, live: np.ndarray) -> None:
        """Rebuild every quarantined shard cracker from ``base``'s ``live``
        rows in the shard's value range — the shard-level counterpart of
        :meth:`~repro.engine.database.Database.heal_faults`."""
        for index, shard in enumerate(self.shards):
            with shard.lock.write():
                if is_quarantined(shard.cracker):
                    (in_range,) = route_masks(base.values, [shard.lo, shard.hi])
                    rows = np.flatnonzero(in_range & live)
                    shard.cracker = self._cracker(index, base.gather(rows), shard.lock)

    def budget_holds(self) -> list[dict]:
        return [
            {"label": shard.cracker.label, **shard.cracker._tracker.hold_stats()}
            for shard in self.shards
        ]

    @property
    def budget_trims(self) -> int:
        return sum(shard.trims for shard in self.shards)

    def stats(self) -> dict[str, object]:
        return {
            **super().stats(),
            "locks": [shard.lock.stats() for shard in self.shards],
        }
