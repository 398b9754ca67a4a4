"""The session/executor front of the serving subsystem.

A :class:`ServerExecutor` owns a thread pool, a
:class:`~repro.server.locks.LockRegistry`, optional
:class:`~repro.server.partition.ShardedColumn` shards, and a
version-keyed result cache, and serves SQL strings or programmatic
:class:`~repro.engine.query.Query` objects concurrently over one shared
:class:`~repro.engine.database.Database`.

Every answer takes one of three paths, fastest first:

``cache``
    The result of an identical query at the same logical data
    version is returned without touching any structure.  Serving workloads
    repeat query templates heavily ("millions of users" ≠ millions of
    distinct queries); the cache key includes
    :attr:`~repro.engine.database.Database.data_version`, so any update
    invalidates every affected entry.
``partition``
    Every other query runs under the table's *shared* lock and takes its
    keys from :class:`~repro.server.partition.ShardedColumn` shards: prune →
    per-shard probe/crack (one shard lock at a time; the hierarchy is
    table → shard) → scatter-gather merge.  A conjunction takes its keys
    from its first partitioned predicate and refines them by the others
    with read-only base-column gathers (the paper's positional
    ``rel_select``), as it reconstructs projections; a disjunction unions
    every predicate's keys.  An attribute nobody partitioned gets a
    one-shard in-process column the first time a query needs it as a key
    source — the serial executor is the one-shard case, cracking its
    column the first time a query names it, as the paper's selection
    cracking does.  Group-by queries gather their needed columns by the
    same keys and group them with
    :func:`~repro.engine.operators.grouped`.  The shared table lock
    serializes the scatter against :meth:`insert` / :meth:`delete`, which
    route pending updates under the table's exclusive lock — a query sees
    either all of an update or none of it.
``process``
    The same scatter-gather — the same code — but each shard of an
    explicitly partitioned attribute lives in its own **worker process**
    (:class:`~repro.server.procpool.ProcessShardPool`): payloads sit in
    shared-memory segments, commands cross a pipe, and qualifying
    keys come back through shared result buffers, so shard cracks run on
    separate cores instead of interleaving under one GIL.  Enabled with
    ``processes > 0``; results stay bit-identical to every other path.

A predicate whose shards raise a recoverable fault while a fault plan is
armed is answered by a scan of the base column instead (quarantined shard
crackers are rebuilt first); the result carries ``fault_recovered`` and is
never cached.  A query with no predicates reads the live rows (``read``).

The result cache is an **LRU sized in bytes** (``cache_bytes``): whole
entries are admitted at their payload size and evicted
least-recently-served-first once the budget is exceeded; admission and
eviction counts surface in :meth:`ServerExecutor.stats`.

Every result's rows come in **ascending tuple-key order**: the qualifying
keys are dense tuple ids, sorted once (:func:`canonicalize`) before the
gathers (which are then in-order positional lookups, the paper's ordered
reconstruction), so the bytes a client sees are a pure function of (data
version, query), not of how concurrent cracking happened to interleave.
A result carries the query's projections only (a group-by result: its
keys and aggregates); the columns aggregates read are not shipped.  The
data version is sampled *inside* the table lock that serialized the query
against updates, and results enter the cache under that captured version
— never under a version sampled racily before execution.
``ServedResult.digest()`` is the sha1 of those bytes.  An engine result is in its own physical order, so
the determinism tests and ``exp17``–``exp19`` compare the two as value
multisets, :func:`value_digest` (rows and aggregates) on both sides.

``ServedResult.as_payload`` writes a result as its wire bytes, the same
bytes ``json.dumps`` gives the result dict with ``tolist()`` columns.  Long
integer columns go through :func:`encode_json_array`, which writes a whole
column with a few numpy passes instead of one Python int per value.
"""

from __future__ import annotations

import hashlib
import json
import time
from collections import OrderedDict, deque
from concurrent.futures import CancelledError as FutureCancelled
from concurrent.futures import ThreadPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeout
from dataclasses import dataclass, field, replace

import numpy as np

from repro.analysis import racesan
from repro.analysis.sanitizer import active_sanitizers, checkpoint_query
from repro.engine.database import Database
from repro.engine.operators import grouped, random_gather
from repro.engine.query import Predicate, Query, QueryResult, compute_aggregates
from repro.errors import QueryTimeout, ServerError, ServerOverloaded
from repro.faults.guard import RECOVERABLE
from repro.faults.plan import active_plan
from repro.server.locks import LockRegistry, Mutex
from repro.server.partition import GatherResult, PartitionedColumn, ShardedColumn
from repro.server.procpool import ProcessShardPool
from repro.server.resilience import Deadline, ResilienceConfig

#: Default per-query deadline (seconds) for the blocking entry points.
DEFAULT_TIMEOUT = 30.0

#: Default result-cache budget: 64 MiB of served result payloads.
DEFAULT_CACHE_BYTES = 64 * 1024 * 1024

#: Admission shed policies (the ``--shed-policy`` CLI knob).
SHED_POLICIES = ("reject-newest", "reject-oldest", "deadline-aware")

#: How many of the most recent served latencies feed ``latency_p50`` /
#: ``latency_p99`` and the deadline-aware shed policy's service-time
#: estimate.  A window, not a history: memory and the per-decision sort stay
#: bounded for the life of the server.
LATENCY_WINDOW = 1024


class ResultCacheLRU:
    """A bytes-budgeted LRU over served results.

    Entries cost their result-column payload bytes (plus a small fixed
    overhead for the key and bookkeeping).  A hit refreshes recency; an
    admission that overflows the budget evicts least-recently-served
    entries until it fits.  An entry larger than the whole budget is
    refused outright (admitting it would just evict everything for one
    un-reusable answer).  Not thread-safe: callers hold the executor's
    cache mutex.
    """

    _ENTRY_OVERHEAD = 512

    def __init__(self, capacity_bytes: int) -> None:
        if capacity_bytes < 0:
            raise ServerError(
                f"cache budget {capacity_bytes} must be >= 0 bytes"
            )
        self.capacity_bytes = capacity_bytes
        self._entries: "OrderedDict[tuple, tuple[ServedResult, int]]" = OrderedDict()
        self.bytes = 0
        self.admissions = 0
        self.evictions = 0
        self.rejections = 0

    @staticmethod
    def cost_of(result: "ServedResult") -> int:
        payload = sum(arr.nbytes for arr in result.columns.values())
        return payload + ResultCacheLRU._ENTRY_OVERHEAD

    def get(self, key: tuple) -> "ServedResult | None":
        entry = self._entries.get(key)
        if entry is None:
            return None
        self._entries.move_to_end(key)
        return entry[0]

    def put(self, key: tuple, result: "ServedResult") -> bool:
        cost = self.cost_of(result)
        if cost > self.capacity_bytes:
            self.rejections += 1
            return False
        stale = self._entries.pop(key, None)
        if stale is not None:
            self.bytes -= stale[1]
        self._entries[key] = (result, cost)
        self.bytes += cost
        self.admissions += 1
        while self.bytes > self.capacity_bytes:
            _, (_, evicted_cost) = self._entries.popitem(last=False)
            self.bytes -= evicted_cost
            self.evictions += 1
        return True

    def __len__(self) -> int:
        return len(self._entries)

    def stats(self) -> dict[str, int]:
        return {
            "entries": len(self._entries),
            "bytes": self.bytes,
            "capacity_bytes": self.capacity_bytes,
            "admissions": self.admissions,
            "evictions": self.evictions,
            "rejections": self.rejections,
        }


def canonicalize(keys: np.ndarray) -> np.ndarray:
    """A reply's canonical row order: its qualifying tuple keys, ascending.

    Keys are dense tuple ids, so sorting them (never the values) makes a
    reply's bytes a pure function of (data version, query), whatever order
    concurrent cracking left them in, and makes the gathers in-order
    positional lookups.  Returns a new array: the keys may be a view of a
    shard's result buffer.
    """
    return np.sort(keys)


def digest_columns(columns: dict[str, np.ndarray]) -> str:
    """sha1 over a result's bytes: names, dtypes, and values in row order."""
    h = hashlib.sha1()
    for name in sorted(columns):
        arr = columns[name]
        h.update(name.encode())
        h.update(str(arr.dtype).encode())
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


def value_digest(result: "ServedResult | QueryResult") -> str:
    """sha1 of a result as a value multiset: its rows sorted
    lexicographically (attribute name order fixes the key priority), then
    its aggregates.

    A served reply (tuple-key order) and an engine result (its physical
    order) hold the same answer exactly when these digests are equal.
    """
    columns = result.columns
    if columns:
        # np.lexsort keys: last key is the primary sort key.
        rows = np.lexsort([columns[name] for name in sorted(columns, reverse=True)])
        columns = {name: arr[rows] for name, arr in columns.items()}
    h = hashlib.sha1(digest_columns(columns).encode())
    # repr: NaN (an empty input's aggregate) equals itself.
    h.update(repr(sorted(result.aggregates.items())).encode())
    return h.hexdigest()


#: Integer columns shorter than this many rows are written by ``json.dumps``
#: of ``tolist()``: below it, the dozen numpy calls of
#: :func:`encode_json_array` cost more than the Python ints they avoid.  The
#: break-even was about 70 rows of 3-digit values, 150 of 7-digit and 190 of
#: 12-digit (interleaved medians, 2-vCPU x86 VM, CPython 3.11, numpy 2.4); at
#: 256 rows the encoder was at least 1.2x faster for each.
JSON_ARRAY_CUTOVER = 256


def _words(text: str) -> np.ndarray:
    """``text`` (ASCII and NULs) as native-order 4-byte words."""
    return np.frombuffer(text.encode("ascii"), dtype=np.uint32)


def _group_words() -> np.ndarray:
    """Every base-10**4 digit group as one 4-byte ASCII word.

    Index ``g`` is group ``g`` leading its value, NUL-padded ("\\0\\042", and
    four NULs for 0); index ``g + 10_000`` is group ``g`` after the lead,
    zero-padded ("0042").
    """
    groups = np.arange(10_000)[:, None]
    places = np.array([1000, 100, 10, 1])
    zero_padded = (groups // places % 10 + ord("0")).astype(np.uint8)
    nul_padded = np.where(groups >= places, zero_padded, 0).astype(np.uint8)
    return np.concatenate([nul_padded, zero_padded]).view(np.uint32).ravel()


_INNER_GROUP = _group_words()
# A value's least significant group leads only when the value is below
# 10_000; there, 0 is the value 0 and must print.
_LAST_GROUP = _INNER_GROUP.copy()
_LAST_GROUP[0] = _words("\0\0\0" "0")[0]
# Each value's first word: its separator and sign; the first value's opens
# the array instead, and one more word closes it.
_SEP, _SEP_MINUS, _OPEN, _OPEN_MINUS, _CLOSE = _words(
    ", \0\0" ", -\0" "[\0\0\0" "[-\0\0" "]\0\0\0"
)
_TEN_THOUSAND = np.uint64(10_000)


def encode_json_array(values: np.ndarray) -> bytes:
    """``json.dumps(values.tolist()).encode()``, without Python ints.

    A 1-D integer array of at least :data:`JSON_ARRAY_CUTOVER` rows is
    written one column-wide numpy pass per digit group: each magnitude is
    split into base-10**4 groups, each group is gathered as four ASCII bytes
    from a 10 000-word table (NUL-padded where it leads its value), and a
    separator word carrying the sign goes in front of each value.  One
    ``bytes.translate`` then drops every NUL.  Every ``iu`` dtype is exact,
    ``int64`` minimum and ``uint64`` maximum included.  Other arrays take
    ``json.dumps`` of ``tolist()``.
    """
    if (values.ndim != 1 or values.dtype.kind not in "iu"
            or len(values) < JSON_ARRAY_CUTOVER):
        return json.dumps(values.tolist()).encode()
    negative = None
    if values.dtype.kind == "u":
        rest = values.astype(np.uint64, copy=False)
    else:
        rest = values.astype(np.int64, copy=False)
        if rest.min() < 0:
            negative = rest < 0
            rest = np.abs(rest)  # int64 minimum stays put: 2**63 read unsigned
        rest = rest.view(np.uint64)
    top = int(rest.max())
    groups = 1 + sum(top >= 10_000 ** k for k in range(1, 5))
    buf = np.empty(len(values) * (groups + 1) + 1, dtype=np.uint32)
    words = buf[:-1].reshape(len(values), groups + 1)
    words[:, 0] = _SEP
    if negative is None:
        words[0, 0] = _OPEN
    else:
        words[negative, 0] = _SEP_MINUS
        words[0, 0] = _OPEN_MINUS if negative[0] else _OPEN
    buf[-1] = _CLOSE
    table = _LAST_GROUP
    for col in range(groups, 1, -1):
        # ``//`` and a multiply-subtract, not ``np.divmod``: numpy divides
        # by a scalar with a precomputed reciprocal, divmod divides per row.
        # The subtrahend leaves 10_000 more wherever a higher group follows.
        higher = rest // _TEN_THOUSAND
        index = rest - (higher - np.minimum(higher, 1)) * _TEN_THOUSAND
        table.take(index.view(np.int64), out=words[:, col])
        table, rest = _INNER_GROUP, higher
    table.take(rest.view(np.int64), out=words[:, 1])  # the top group leads
    return buf.tobytes().translate(None, b"\0")


@dataclass(frozen=True)
class ServedQuery:
    """One client request: a query plus its serving options."""

    query: Query
    timeout: float | None = None
    session: str = ""

    @classmethod
    def from_sql(cls, sql: str, db: Database, **kwargs) -> "ServedQuery":
        from repro.sql import parse

        return cls(parse(sql, db), **kwargs)


@dataclass
class ServedResult:
    """A query answer in tuple-key order plus per-query serving statistics."""

    columns: dict[str, np.ndarray] = field(default_factory=dict)
    aggregates: dict[str, float] = field(default_factory=dict)
    row_count: int = 0
    path: str = "partition"
    cached: bool = False
    elapsed_seconds: float = 0.0
    queue_seconds: float = 0.0
    data_version: int = 0
    fault_recovered: bool = False
    #: The answer is exact but a sick shard's range was served by the
    #: breaker's scan fallback instead of its cracker.  Never cached.
    degraded: bool = False
    _digest: str | None = field(default=None, repr=False)

    def digest(self) -> str:
        # Memoized: a cached result serves many hits, and the sha1 over the
        # full result bytes would otherwise dominate the cache-hit path.
        if self._digest is None:
            self._digest = digest_columns(self.columns)
        return self._digest

    def as_payload(self) -> bytes:
        """The reply's ``result`` object as wire bytes (see :mod:`repro.server.serve`).

        Byte-identical to ``json.dumps`` of the dict with each column as
        ``tolist()``.  A reply of fewer than :data:`JSON_ARRAY_CUTOVER` rows
        is exactly that one call; otherwise each column is written by
        :func:`encode_json_array` and spliced in front of ``json.dumps`` of
        the other fields.
        """
        fields = {
            "aggregates": self.aggregates,
            "row_count": self.row_count,
            "path": self.path,
            "cached": self.cached,
            "elapsed_seconds": self.elapsed_seconds,
            "fault_recovered": self.fault_recovered,
            "degraded": self.degraded,
            "digest": self.digest(),
        }
        if self.row_count < JSON_ARRAY_CUTOVER:
            columns = {name: arr.tolist() for name, arr in self.columns.items()}
            return json.dumps({"columns": columns, **fields}).encode()
        columns = b", ".join(
            json.dumps(name).encode() + b": " + encode_json_array(arr)
            for name, arr in self.columns.items()
        )
        # json.dumps(fields) opens with "{"; the columns take its place.
        return b'{"columns": {' + columns + b"}, " + json.dumps(fields).encode()[1:]


def _cache_key(query: Query) -> tuple:
    preds = tuple(
        sorted(
            (p.attr, p.interval.lo, p.interval.hi,
             p.interval.lo_inclusive, p.interval.hi_inclusive)
            for p in query.predicates
        )
    )
    return (
        query.table, preds, query.projections, query.aggregates,
        query.conjunctive, query.group_by,
    )


@dataclass
class _Request:
    """One admitted request: the query, its deadline, and its future.

    ``ticket`` orders requests for the reject-oldest shed policy;
    ``deadline`` is the single budget every layer (wait, scatter, procpool
    dispatch, crack budget) measures against, anchored at enqueue.
    """

    served: ServedQuery
    deadline: Deadline
    enqueued: float
    ticket: int = 0
    future: object = None


class ServerExecutor:
    """A concurrent query front over one shared database.

    Parameters
    ----------
    db:
        The shared database.  Its sanitizer (if active) is wired to this
        executor's lock registry so deep sweeps skip structures busy under
        another worker's write lock.
    workers:
        Thread-pool width (the ``--workers`` CLI knob).
    partitions:
        Default shard count for :meth:`partition` columns (the
        ``--partitions`` knob); with ``0`` only explicit counts partition,
        and every key source is a one-shard column.
    processes:
        ``> 0`` selects the **process** backend: :meth:`partition` builds
        :class:`~repro.server.procpool.ProcessShardPool` columns whose
        shards live in worker processes over shared memory (the
        ``--processes`` knob).  ``0`` keeps the in-process thread shards.
    cache_bytes:
        The version-keyed result cache's LRU budget in bytes
        (``--cache-bytes``); ``0`` disables caching.
    max_queue:
        Bound on *waiting* (admitted but not yet executing) requests
        (``--max-queue``); ``None`` leaves admission unbounded.
    max_inflight:
        Bound on waiting + executing requests (``--max-inflight``).
    shed_policy:
        Which request the full admission queue drops: ``reject-newest``
        (refuse the newcomer), ``reject-oldest`` (cancel the
        longest-waiting queued request to make room), or
        ``deadline-aware`` (shed queued requests whose remaining budget
        cannot cover the observed p50 service time — they were going to
        time out anyway — before falling back to reject-newest).
    resilience:
        Retry/breaker knobs handed to process-mode shard pools
        (:class:`~repro.server.resilience.ResilienceConfig`).
    """

    def __init__(
        self,
        db: Database,
        workers: int = 4,
        partitions: int = 0,
        processes: int = 0,
        cache_bytes: int = DEFAULT_CACHE_BYTES,
        max_queue: int | None = None,
        max_inflight: int | None = None,
        shed_policy: str = "reject-newest",
        resilience: ResilienceConfig | None = None,
    ) -> None:
        if workers < 1:
            raise ServerError(f"worker count {workers} must be >= 1")
        if processes < 0:
            raise ServerError(f"process count {processes} must be >= 0")
        if max_queue is not None and max_queue < 0:
            raise ServerError(f"max_queue {max_queue} must be >= 0")
        if max_inflight is not None and max_inflight < 1:
            raise ServerError(f"max_inflight {max_inflight} must be >= 1")
        if shed_policy not in SHED_POLICIES:
            raise ServerError(
                f"unknown shed policy {shed_policy!r}; pick one of "
                f"{', '.join(SHED_POLICIES)}"
            )
        self.db = db
        self.workers = workers
        self.partitions = partitions
        self.processes = processes
        self.registry = LockRegistry()
        self._pool = ThreadPoolExecutor(
            max_workers=workers, thread_name_prefix="repro-serve"
        )
        # Shard fan-out gets its own pool: a query worker blocking on its
        # own pool's shard futures can deadlock once every worker does it
        # (all slots waiting, none running).  Shard tasks never re-submit,
        # so a dedicated pool cannot form that cycle.  In process mode the
        # pool must cover the whole process fan-out — its threads only
        # block on pipe I/O (GIL released) while the workers compute.
        fanout = max(workers, processes)
        self._shard_pool = (
            ThreadPoolExecutor(max_workers=fanout, thread_name_prefix="repro-shard")
            if fanout > 1
            else None
        )
        self._partitioned: dict[tuple[str, str], ShardedColumn] = {}
        # The one-shard columns built because a query needed a key source;
        # an explicit partition() of the same attribute replaces them.
        self._auto_partitioned: set[tuple[str, str]] = set()
        self._partition_mutex = Mutex("executor.partition")
        self._cache_enabled = cache_bytes > 0
        self._cache = ResultCacheLRU(cache_bytes)
        self._cache_mutex = Mutex("executor.cache")
        self._stats_mutex = Mutex("executor.stats")
        self._closed = False
        self.max_queue = max_queue
        self.max_inflight = max_inflight
        self.shed_policy = shed_policy
        self.resilience = resilience if resilience is not None else ResilienceConfig()
        # Admission state: waiting requests (ticket -> record, insertion
        # ordered) and the executing count, all under one leaf mutex.
        self._admission_mutex = Mutex("executor.admission")
        self._close_mutex = Mutex("executor.close")
        self._queued: "OrderedDict[int, _Request]" = OrderedDict()
        self._inflight = 0
        self._request_seq = 0
        self._draining = False
        self.shed = 0
        self.abandoned = 0
        self.degraded_served = 0
        self.queries_served = 0
        self.cache_hits = 0
        self.path_counts: dict[str, int] = {}
        self.latencies: "deque[float]" = deque(maxlen=LATENCY_WINDOW)
        # Deep sweeps must skip structures busy under another worker's
        # write lock (that worker validates them at its own checkpoint).
        # Every active sanitizer (an armed Checks scope's, a tool's own)
        # sweeps at every query checkpoint.
        self._guarded_sanitizers = [
            (sanitizer, sanitizer.structure_guard)
            for sanitizer in active_sanitizers()
        ]
        for sanitizer, _ in self._guarded_sanitizers:
            sanitizer.structure_guard = self.registry.structure_guard
        # Database.close() must tear the executor (and its shared-memory
        # segments) down even if the embedder forgets to.
        db.register_closeable(self)

    # -- lifecycle -------------------------------------------------------------

    def close(self) -> None:
        """Graceful drain, then teardown.  Idempotent, and safe under
        concurrent callers: everyone serializes on the close mutex, so a
        second closer blocks until the first finished instead of racing
        the pool shutdowns, and every caller returns to a fully-closed
        executor.

        Drain order: stop admitting, shed what is still queued (those
        waiters see :class:`~repro.errors.ServerOverloaded`), let
        in-flight queries finish, then close the shard pools and unlink
        their shared-memory segments.
        """
        with self._close_mutex:
            if self._closed:
                return
            with self._admission_mutex:
                self._draining = True
                for record in list(self._queued.values()):
                    if record.future is not None and record.future.cancel():
                        self._queued.pop(record.ticket, None)
                        record.deadline.cancel()
                        self.shed += 1
            self._pool.shutdown(wait=True)
            if self._shard_pool is not None:
                self._shard_pool.shutdown(wait=True)
            # Sharded columns last: worker-process shards may still be
            # draining commands submitted by in-flight queries above.
            # Closing unlinks every shared-memory segment they own.
            with self._partition_mutex:
                columns = list(self._partitioned.values())
            for column in columns:
                column.close()
            for sanitizer, previous in self._guarded_sanitizers:
                sanitizer.structure_guard = previous
            self._closed = True

    def __enter__(self) -> "ServerExecutor":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- partitioning ----------------------------------------------------------

    def partition(
        self, table: str, attr: str, partitions: int | None = None
    ) -> ShardedColumn:
        """Range-partition ``table.attr`` into independently-cracked shards.

        This is the one place that picks a shard backend: with
        ``processes > 0`` a
        :class:`~repro.server.procpool.ProcessShardPool` — one worker
        process per shard over shared-memory payloads; otherwise the
        in-process :class:`~repro.server.partition.PartitionedColumn`.
        Everything downstream sees a
        :class:`~repro.server.partition.ShardedColumn`.

        Thread-safe and idempotent: racing calls agree on one column
        (double-checked under ``_partition_mutex``), and the scatter
        snapshot is built under the table's write lock so it cannot
        interleave with an insert/delete routing rows mid-build; rows
        already deleted are routed as pending deletions.  The lock order
        is table → partition mutex, matching :meth:`insert`.  A one-shard
        column built because a query needed a key source is replaced.
        """
        return self._partition(table, attr, partitions, auto=False)

    def _partition(
        self, table: str, attr: str, partitions: int | None, auto: bool
    ) -> ShardedColumn:
        key = (table, attr)

        def current() -> "ShardedColumn | None":
            with self._partition_mutex:
                existing = self._partitioned.get(key)
                if auto or key not in self._auto_partitioned:
                    return existing
            return None

        existing = current()
        if existing is not None:
            return existing
        count = partitions
        if count is None:
            count = self.processes or self.partitions
        if count < 1:
            raise ServerError(
                f"cannot partition {table}.{attr}: partition count {count} < 1"
            )
        with self.registry.lock_for(table).write():
            existing = current()
            if existing is not None:
                return existing
            relation = self.db.table(table)
            base = relation.column(attr)
            cracking = dict(
                budget=self.db.crack_budget, policy=self.db.crack_policy,
                crack_seed=self.db.crack_seed,
            )
            if self.processes > 0 and not auto:
                column = ProcessShardPool(
                    base, count, table, attr, self.db.recorder,
                    resilience=self.resilience, **cracking,
                )
            else:
                column = PartitionedColumn(
                    base, count, self.registry, table, attr,
                    self.db.recorder, **cracking,
                )
            deleted = np.flatnonzero(self.db.tombstones(table))
            if len(deleted):
                column.add_deletions(relation.values(attr)[deleted], deleted)
            with self._partition_mutex:
                replaced = self._partitioned.get(key)
                self._partitioned[key] = column
                if auto:
                    self._auto_partitioned.add(key)
                else:
                    self._auto_partitioned.discard(key)
            if replaced is not None:
                replaced.close()
        return column

    def _partitioned_for(self, table: str) -> list[tuple[str, ShardedColumn]]:
        """Snapshot of this table's partitioned columns (mutex-guarded, so
        a concurrent :meth:`partition` call cannot resize mid-iteration)."""
        with self._partition_mutex:
            return [
                (attr, column)
                for (tbl, attr), column in self._partitioned.items()
                if tbl == table
            ]

    # -- submission ------------------------------------------------------------

    def _budget_of(self, served: ServedQuery, timeout: float | None = None) -> float | None:
        if timeout is not None:
            return timeout
        if served.timeout is not None:
            return served.timeout
        return DEFAULT_TIMEOUT

    def admit(
        self,
        request: "ServedQuery | Query | str",
        timeout: float | None = None,
        enqueued: float | None = None,
    ) -> _Request:
        """Admission control: queue one request or shed under pressure.

        Builds the request's :class:`~repro.server.resilience.Deadline`
        anchored at ``enqueued`` (so batch members share one clock and
        queue wait counts against the budget), applies the shed policy
        when the bounded queue is full, and submits to the worker pool —
        all under the admission mutex, so a request can never be half
        queued.  Raises :class:`~repro.errors.ServerOverloaded` when this
        request is the one shed.
        """
        served = self._coerce(request)
        now = time.perf_counter()
        deadline = Deadline(
            self._budget_of(served, timeout),
            now if enqueued is None else enqueued,
        )
        with self._admission_mutex:
            if self._closed or self._draining:
                raise ServerError("executor is closed")
            self._maybe_shed(deadline)
            self._request_seq += 1
            record = _Request(
                served=served, deadline=deadline,
                enqueued=now, ticket=self._request_seq,
            )
            self._queued[record.ticket] = record
            # Submit while holding the mutex: _serve pops the record under
            # the same mutex, so a queued entry always has a live future
            # (shed policies rely on future.cancel() deciding ownership).
            record.future = self._pool.submit(self._serve, record)
        return record

    def _maybe_shed(self, incoming: Deadline) -> None:
        """Apply the shed policy (caller holds the admission mutex)."""
        while True:
            over_queue = (
                self.max_queue is not None and len(self._queued) >= self.max_queue
            )
            over_inflight = (
                self.max_inflight is not None
                and len(self._queued) + self._inflight >= self.max_inflight
            )
            if not over_queue and not over_inflight:
                return
            victim = self._pick_victim(incoming)
            if victim is None:
                self.shed += 1
                raise ServerOverloaded(
                    "admission queue is full", policy=self.shed_policy
                )
            # A queued record whose future we managed to cancel never runs;
            # its waiter sees CancelledError -> ServerOverloaded.
            self._queued.pop(victim.ticket, None)
            victim.deadline.cancel()
            self.shed += 1

    def _pick_victim(self, incoming: Deadline) -> "_Request | None":
        """Choose a *queued* request to shed, or ``None`` to refuse the
        newcomer.  Only requests whose future cancels cleanly count — one
        that already started executing is not shed-able."""
        if self.shed_policy == "reject-newest":
            return None
        if self.shed_policy == "reject-oldest":
            for record in self._queued.values():
                if record.future is not None and record.future.cancel():
                    return record
            return None
        # deadline-aware: first shed queued requests that cannot finish in
        # time anyway (remaining budget < observed p50 service time);
        # if everyone still has headroom, refuse the newcomer — and refuse
        # it outright when *it* is the hopeless one.
        p50 = self._observed_p50()
        for record in self._queued.values():
            remaining = record.deadline.remaining()
            if remaining is not None and remaining < p50 \
                    and record.future is not None and record.future.cancel():
                return record
        return None

    def _observed_p50(self) -> float:
        with self._stats_mutex:
            recent = list(self.latencies)
        # Sorted outside the stats mutex (the caller still holds the
        # admission mutex); the window bounds the cost either way.
        return sorted(recent)[len(recent) // 2] if recent else 0.0

    def _await(self, record: _Request) -> ServedResult:
        """Wait out one admitted request, mapping the future's failure
        modes to the wire errors: a cancelled future was shed by a later
        admission (ServerOverloaded); a wait that exceeds the request's
        deadline abandons it (cancel the deadline so workers stop at the
        next boundary, never cache) and raises QueryTimeout."""
        try:
            return record.future.result(timeout=record.deadline.remaining())
        except FutureCancelled:
            raise ServerOverloaded(
                f"query on {record.served.query.table!r} was shed while "
                "queued", policy=self.shed_policy,
            ) from None
        except FutureTimeout:
            self.abandon(record)
            raise QueryTimeout(
                f"query on {record.served.query.table!r} missed its deadline",
                seconds=record.deadline.budget,
            ) from None

    def abandon(self, record: _Request) -> None:
        """A waiter gave up: flag cooperative cancellation so the pool
        thread stops at its next scatter/probe boundary and its (stale)
        result is never admitted to the cache."""
        record.deadline.cancel()
        with self._stats_mutex:
            self.abandoned += 1

    def run(
        self, request: "ServedQuery | Query | str", timeout: float | None = None
    ) -> ServedResult:
        """Serve one query, blocking up to ``timeout`` seconds."""
        return self._await(self.admit(request, timeout=timeout))

    def run_batch(self, requests) -> list[ServedResult]:
        """Batched admission: serve many queries, deduplicating repeats.

        Identical queries with the same budget in one batch are executed
        once and fanned out — the serving-side amortization a
        template-heavy workload earns; a repeat with another budget keeps
        its own deadline.  Results come back in request order.  Every
        deadline is anchored at one shared enqueue timestamp (taken before
        the first admission), so a request's position in the batch does
        not grant extra budget.
        """
        served = [self._coerce(r) for r in requests]
        batch_enqueued = time.perf_counter()
        keys = [(_cache_key(s.query), self._budget_of(s)) for s in served]
        records: dict[tuple, _Request] = {}
        for s, key in zip(served, keys):
            if key not in records:
                records[key] = self.admit(s, enqueued=batch_enqueued)
        return [self._await(records[key]) for key in keys]

    def _coerce(self, request: "ServedQuery | Query | str") -> ServedQuery:
        if isinstance(request, ServedQuery):
            return request
        if isinstance(request, Query):
            return ServedQuery(request)
        if isinstance(request, str):
            return ServedQuery.from_sql(request, self.db)
        raise ServerError(f"cannot serve a {type(request).__name__}")

    # -- the worker body -------------------------------------------------------

    def _serve(self, record: _Request) -> ServedResult:
        started = time.perf_counter()
        # Leaving the queue: from here on the request counts as in-flight
        # and is no longer shed-able (future.cancel() would fail anyway).
        with self._admission_mutex:
            self._queued.pop(record.ticket, None)
            self._inflight += 1
        try:
            return self._serve_admitted(record, started)
        finally:
            with self._admission_mutex:
                self._inflight -= 1

    def _serve_admitted(self, record: _Request, started: float) -> ServedResult:
        served = record.served
        enqueued = record.enqueued
        deadline = record.deadline
        if deadline.cancelled or deadline.expired():
            # The waiter already gave up (or the queue wait ate the whole
            # budget): stop before touching any structure.
            raise QueryTimeout(
                f"query on {served.query.table!r} overran its budget while "
                "queued", seconds=deadline.budget,
            )
        query = served.query
        base_key = _cache_key(query) if self._cache_enabled else None
        if base_key is not None:
            # Optimistic, lock-free probe.  A hit was *stored* under the
            # version captured inside the table lock that computed it, so
            # it is exact for that version; if an update races past between
            # this read and the return, serving the pre-update answer is
            # still linearizable (the request overlapped the update).  This
            # is the one sanctioned unlocked version read, and deliberately
            # not RaceSan-noted — its correctness argument is versioned
            # immutability, not mutual exclusion.
            version = self.db.data_version  # locksan: allow(unlocked-version-read)
            with self._cache_mutex:
                hit = self._cache.get((*base_key, version))  # refreshes LRU recency
                racesan.note_access("executor.cache", "read")
            if hit is not None:
                result = ServedResult(
                    columns=hit.columns, aggregates=hit.aggregates,
                    row_count=hit.row_count, path="cache", cached=True,
                    elapsed_seconds=time.perf_counter() - started,
                    queue_seconds=started - enqueued,
                    data_version=hit.data_version,
                    _digest=hit.digest(),
                )
                self._note(result)
                return result
        result = self._execute(query, deadline)
        result.queue_seconds = started - enqueued
        result.elapsed_seconds = time.perf_counter() - started
        cacheable = (
            base_key is not None
            and not result.fault_recovered
            and not result.degraded
            # An abandoned request's answer may predate updates its waiter
            # never saw ordered; a timed-out future must leave no trace.
            and not deadline.cancelled
        )
        if cacheable:
            # Keyed on the version _execute read under the table lock —
            # never on a pre-execution sample that a racing update could
            # have invalidated before the query ever touched a structure.
            with self._cache_mutex:
                self._cache.put((*base_key, result.data_version), result)
                racesan.note_access("executor.cache", "write")
        self._note(result)
        return result

    def _note(self, result: ServedResult) -> None:
        with self._stats_mutex:
            self.queries_served += 1
            if result.cached:
                self.cache_hits += 1
            if result.degraded:
                self.degraded_served += 1
            self.path_counts[result.path] = self.path_counts.get(result.path, 0) + 1
            self.latencies.append(result.elapsed_seconds)

    # -- execution paths -------------------------------------------------------

    def _execute(self, query: Query, deadline: Deadline) -> ServedResult:
        """Run one query, reading ``data_version`` only *inside* the table
        lock that serializes it against updates — the version a result
        carries (and is cached under) is exactly the version it saw.
        ``deadline`` bounds process-backed shard dispatches — a worker that
        misses it surfaces as :class:`~repro.errors.QueryTimeout` — and
        trims the crack budget of in-process shards running low on time."""
        self._ensure_key_sources(query)
        with self.registry.lock_for(query.table).read():
            version = self._capture_version(query.table)
            selected = self._select_keys(query, deadline)
            return self._finish_from_keys(query, selected, version)

    def _capture_version(self, table: str) -> int:
        """Read ``data_version`` and tell RaceSan which table's lock guards
        the read.  Every caller sits inside ``table``'s lock; the lockset of
        this access going empty is exactly the PR 6 race class."""
        version = self.db.data_version
        racesan.note_access(
            f"{table}.data_version", "read", seed=self.db.crack_seed
        )
        return version

    def _ensure_key_sources(self, query: Query) -> None:
        """Partition, one shard each, the attributes :meth:`_select_keys`
        will read keys from and nobody partitioned: a conjunction's lead
        when none of its predicates is partitioned, a disjunction's every
        predicate.  Runs before the table's read lock is taken, so building
        a column (under the write lock) never upgrades it."""
        sharded = {attr for attr, _ in self._partitioned_for(query.table)}
        needed = query.predicates
        if query.conjunctive:
            if any(pred.attr in sharded for pred in needed):
                return
            needed = needed[:1]
        for pred in needed:
            if pred.attr not in sharded:
                self._partition(query.table, pred.attr, 1, auto=True)

    def _select_keys(self, query: Query, deadline: Deadline) -> GatherResult:
        """The qualifying keys of a query, from its predicates' shards.

        A conjunction takes its keys from the first partitioned predicate,
        sorts them, and refines them by the others with base-column
        gathers; a disjunction unions every predicate's keys.  The keys
        come back in ascending order on every path, which is the order of
        the reply's rows.  Caller holds the table's read lock, so no
        :meth:`insert`/:meth:`delete` routes pending rows mid-selection;
        shard locks nest strictly inside.
        """
        table = query.table
        if not query.predicates:
            live = np.flatnonzero(~self.db.tombstones(table)).astype(np.int64)
            return GatherResult(live, "read")
        sharded = dict(self._partitioned_for(table))

        def source(pred: Predicate) -> GatherResult:
            if deadline.cancelled:
                # Scatter boundary: a cancelled request stops here instead
                # of fanning work out to every shard.
                raise QueryTimeout(
                    f"query on {table!r} cancelled before the scatter",
                    seconds=deadline.budget,
                )
            column = sharded[pred.attr]
            try:
                return column.select(pred.interval, deadline, self._shard_pool)
            except RECOVERABLE:
                if active_plan() is None:
                    raise
                return self._recover(table, pred, column)

        if query.conjunctive:
            lead = next(p for p in query.predicates if p.attr in sharded)
            selected = source(lead)
            keys = canonicalize(selected.keys)
            relation = self.db.table(table)
            for pred in query.predicates:
                if pred is not lead:
                    values = random_gather(
                        relation.values(pred.attr), keys, self.db.recorder
                    )
                    keys = keys[pred.interval.mask(values)]
            return replace(selected, keys=keys)
        parts = [source(pred) for pred in query.predicates]
        keys = np.concatenate([part.keys for part in parts])
        self.db.recorder.sequential(len(keys))
        paths = {part.path for part in parts}
        return GatherResult(
            # Worker-process shards name the path of a mixed disjunction.
            np.unique(keys), "process" if "process" in paths else "partition",
            recovered=any(part.recovered for part in parts),
            degraded=any(part.degraded for part in parts),
        )

    def _recover(
        self, table: str, pred: Predicate, column: ShardedColumn
    ) -> GatherResult:
        """Answer ``pred`` after its shards raised a recoverable fault.

        The fault guard already rolled the faulted shard back, or
        quarantined it; quarantined shard crackers are rebuilt from the
        base column's live rows, and the predicate is answered by scanning
        the base column.  Caller holds the table's read lock.
        """
        relation = self.db.table(table)
        live = ~self.db.tombstones(table)
        column.heal(relation.column(pred.attr), live)
        values = relation.values(pred.attr)
        self.db.recorder.sequential(len(values))
        keys = np.flatnonzero(pred.interval.mask(values) & live)
        return GatherResult(keys, column.path, recovered=True)

    def _finish_from_keys(
        self, query: Query, selected: GatherResult, version: int
    ) -> ServedResult:
        """Reconstruct, then aggregate (or group), from qualifying keys in
        ascending order; the result keeps the projections only."""
        relation = self.db.table(query.table)
        columns = {
            attr: random_gather(relation.values(attr), selected.keys, self.db.recorder)
            for attr in query.needed_columns
        }
        if query.group_by:
            # group_by's stable sort over rows in key order fixes both the
            # group order and each group's float summation order.
            columns = grouped(
                columns, query.group_by, query.aggregates, self.db.recorder
            )
            aggregates = {}
            row_count = len(next(iter(columns.values())))
        else:
            aggregates = compute_aggregates(query.aggregates, columns)
            row_count = len(selected.keys)
            columns = {attr: columns[attr] for attr in query.projections}
        checkpoint_query()
        return ServedResult(
            columns=columns,
            aggregates=aggregates,
            row_count=row_count,
            path=selected.path,
            data_version=version,
            fault_recovered=selected.recovered,
            degraded=selected.degraded,
        )

    # -- updates ---------------------------------------------------------------

    def insert(self, table: str, rows: dict[str, object]) -> np.ndarray:
        """Route an insert through the database and the partitioned shards.

        The version bump (inside ``db.insert``) and the shard routing both
        happen under the table's write lock, so no query can observe the
        new version while a shard still lacks its pending rows: queries
        take the table's read lock first.
        """
        with self.registry.lock_for(table).write():
            keys = self.db.insert(table, rows)
            racesan.note_access(
                f"{table}.data_version", "write", seed=self.db.crack_seed
            )
            relation = self.db.table(table)
            for attr, column in self._partitioned_for(table):
                column.add_insertions(relation.values(attr)[keys], keys)
        return keys

    def delete(self, table: str, keys: np.ndarray) -> None:
        with self.registry.lock_for(table).write():
            keys = np.asarray(keys, dtype=np.int64)
            relation = self.db.table(table)
            partitioned = self._partitioned_for(table)
            values = {
                attr: relation.values(attr)[keys] for attr, _ in partitioned
            }
            self.db.delete(table, keys)
            racesan.note_access(
                f"{table}.data_version", "write", seed=self.db.crack_seed
            )
            for attr, column in partitioned:
                column.add_deletions(values[attr], keys)

    # -- introspection ---------------------------------------------------------

    def health(self) -> dict[str, object]:
        """Readiness for load balancers and supervisors (the wire
        ``{"op": "health"}``): admission pressure, breaker states, and
        shard-worker liveness.  ``ready`` means the executor accepts new
        requests; ``degraded`` warns that some shard is currently served
        by its breaker's scan fallback (answers stay exact but slower).
        """
        with self._admission_mutex:
            draining = self._draining or self._closed
            queue_depth = len(self._queued)
            inflight = self._inflight
            shed = self.shed
        with self._stats_mutex:
            abandoned = self.abandoned
        breakers: dict[str, str] = {}
        workers_alive: dict[str, bool] = {}
        with self._partition_mutex:
            partitioned = list(self._partitioned.values())
        for column in partitioned:
            report = column.health()
            breakers.update(report["breakers"])
            workers_alive.update(report["workers_alive"])
        degraded = any(state != "closed" for state in breakers.values()) \
            or not all(workers_alive.values())
        return {
            "ready": not draining,
            "draining": draining,
            "degraded": degraded,
            "queue_depth": queue_depth,
            "inflight": inflight,
            "shed": shed,
            "abandoned": abandoned,
            "breakers": breakers,
            "workers_alive": workers_alive,
        }

    def stats(self) -> dict[str, object]:
        with self._stats_mutex:
            latencies = list(self.latencies)
            served = self.queries_served
            hits = self.cache_hits
            paths = dict(self.path_counts)
            abandoned = self.abandoned
            degraded = self.degraded_served
        with self._admission_mutex:
            shed = self.shed
            queue_depth = len(self._queued)
            inflight = self._inflight
        latencies.sort()  # a bounded window, sorted outside both mutexes

        def pct(p: float) -> float:
            if not latencies:
                return 0.0
            return latencies[min(len(latencies) - 1, int(p * len(latencies)))]

        lock_stats = self.registry.stats()
        with self._partition_mutex:
            partitioned = dict(self._partitioned)
        with self._cache_mutex:
            cache_stats = self._cache.stats()
        return {
            "workers": self.workers,
            "processes": self.processes,
            "engine_mode": "process" if self.processes > 0 else "thread",
            "queries_served": served,
            "cache_hits": hits,
            "cache_hit_rate": (hits / served) if served else 0.0,
            "cache": cache_stats,
            "paths": paths,
            "shed": shed,
            "abandoned": abandoned,
            "degraded": degraded,
            "budget_trims": sum(col.budget_trims for col in partitioned.values()),
            "queue_depth": queue_depth,
            "inflight": inflight,
            "admission": {
                "max_queue": self.max_queue,
                "max_inflight": self.max_inflight,
                "shed_policy": self.shed_policy,
            },
            "latency_p50": pct(0.50),
            "latency_p99": pct(0.99),
            "locks": lock_stats,
            "budget_holds": [
                hold for col in partitioned.values() for hold in col.budget_holds()
            ],
            "partitioned": {
                f"{t}.{a}": col.stats() for (t, a), col in partitioned.items()
            },
        }
