"""Process-parallel shard workers over shared memory.

In-process shards keep every shard crack inside one GIL: shards interleave,
they do not overlap.  This module supplies the *worker-process* shard kind
of :class:`~repro.server.partition.ShardedColumn` — the same layout,
pruning, scatter, gather and update routing, with each shard's cracker on
its own core:

* one **long-lived worker process per shard**.  At startup the worker maps
  its shard's value/key payload from :class:`~repro.storage.shared.SharedBAT`
  segments (zero-copy; no payload pickling) and builds an ordinary
  :class:`~repro.cracking.column.CrackerColumn` over it, seeded exactly like
  the thread-mode shard (``policy_rng(seed, "shard", table, attr, i)``) so
  the two backends crack identically;
* a compact **command protocol** over one duplex pipe per worker —
  ``select`` / ``update`` / ``apply_pending`` / ``replay`` /
  ``snapshot``, plus the transport-only ``remap`` / ``shutdown``.
  Commands and replies are small tuples; qualifying keys come back
  through a per-worker **shared result buffer** (the parent reads
  ``result[:n]``), so result payloads never cross the pipe either;
* **per-request deadlines**: the parent bounds every dispatch with
  ``conn.poll(deadline)``.  A worker that misses its deadline is killed and
  deterministically respawned; the caller sees the serving layer's ordinary
  :class:`~repro.errors.QueryTimeout` — one error contract across thread
  and process paths;
* **crash detection + respawn-and-replay**: every state-mutating command
  (a ``select`` that actually cracked, every ``update``) is appended to the
  parent-side *tape* of its shard after the worker acknowledged it.  The
  tape holds shard state only — never transport details such as which
  result buffer was current — and is the one record of routed updates:
  replay and the scan fallback both read it.  When a worker dies
  mid-command — a real crash, a deadline kill, or the ``procpool.worker``
  FaultSan failpoint — the parent spawns a fresh process over the same
  shared segments, replays the tape (deterministic: same seeded RNG, same
  command order), retries the in-flight command once, and marks the
  result ``fault_recovered``;
* **retry with backoff + per-shard circuit breakers**: when even the
  respawn-retried dispatch fails, the shard's ``select`` retries the whole
  dispatch under the request's remaining
  :class:`~repro.server.resilience.Deadline` budget, pausing with seeded,
  tape-recorded decorrelated jitter.  Each shard worker carries a
  :class:`~repro.server.resilience.CircuitBreaker`; once it opens, the
  parent stops dispatching and serves the shard's range itself from the
  *pristine shared base segment* (``CrackerColumn`` copies its inputs, so
  the segment is never cracked in place) merged with the ``update``
  entries of the shard's tape — an exact answer, marked ``degraded``
  because it scanned instead of cracking.  A half-open probe after the
  cooldown recloses the breaker when the shard recovers.

Lock discipline: the parent serializes each worker's request/response pairs
under a per-worker leaf :class:`~repro.server.locks.Mutex`; the executor
holds the table's read lock around the whole scatter (as for in-process
shards), so updates can never interleave with a scatter.  Workers themselves
are single-threaded and own their shard exclusively — the in-process lock
hierarchy does not extend into them (``docs/locksan.md``).
"""

from __future__ import annotations

import multiprocessing
import os
import time
import zlib

import numpy as np

from repro.cracking.bounds import Interval
from repro.cracking.column import CrackerColumn
from repro.cracking.stochastic import policy_rng, resolve_policy
from repro.errors import (
    InjectedFault,
    QueryTimeout,
    ReproError,
    ServerError,
)
from repro.faults.plan import fault_hook
from repro.server.locks import Mutex
from repro.server.partition import (
    DEFAULT_DEADLINE,
    ShardedColumn,
    ShardReply,
    probe_shard,
    queue_update,
)
from repro.server.resilience import (
    PROBE,
    SHED,
    CircuitBreaker,
    Deadline,
    DecorrelatedJitter,
    ResilienceConfig,
)
from repro.stats.counters import StatsRecorder, global_recorder
from repro.storage.bat import BAT
from repro.storage.shared import SharedArray, SharedBAT

#: Environment override for the multiprocessing start method.  ``fork`` is
#: the default where available (workers inherit the imported interpreter,
#: so spawning a shard worker is milliseconds, not a fresh numpy import);
#: ``spawn`` is the portable fallback.
START_METHOD_ENV = "REPRO_PROCPOOL_START"

#: Exceptions a worker reports as structured error replies.  Anything
#: outside this tuple crashes the worker — deliberately: an unexpected
#: failure mode *is* a worker death, and the parent's respawn-and-replay
#: path is the recovery story for it.
_WORKER_REPORTABLE = (
    ReproError,
    InjectedFault,
    MemoryError,
    ValueError,
    IndexError,
    KeyError,
    OSError,
)


def _mp_context() -> multiprocessing.context.BaseContext:
    methods = multiprocessing.get_all_start_methods()
    preferred = os.environ.get(START_METHOD_ENV, "").strip()
    if not preferred:
        preferred = "fork" if "fork" in methods else "spawn"
    if preferred not in methods:
        raise ServerError(
            f"start method {preferred!r} unavailable; have {methods}"
        )
    return multiprocessing.get_context(preferred)


# ---------------------------------------------------------------------------
# The worker process body.
# ---------------------------------------------------------------------------


def _reset_inherited_state() -> None:
    """Detach a fresh worker from parent-process instrumentation.

    Fork-started workers inherit the parent's armed FaultSan plan, active
    CrackSan sanitizers, and RaceSan detectors.  All three must stay
    parent-side: fault hit counts are only deterministic when every visit
    happens in one process (the ``procpool.worker`` site fires in the
    parent *about* workers), and the sanitizer/detector registries refer to
    parent structures a worker never sees.
    """
    from repro.analysis.racesan import active_detectors
    from repro.analysis.sanitizer import active_sanitizers
    from repro.faults.plan import install_plan

    install_plan(None)
    for sanitizer in active_sanitizers():
        sanitizer.deactivate()
    for detector in active_detectors():
        detector.deactivate()


def _shard_worker_main(spec: dict, conn) -> None:
    """Long-lived worker loop: map the shard, serve commands until shutdown.

    Replies are ``("ok", rows, meta)`` — ``rows`` qualifying keys sit in
    ``result[:rows]`` when the command produces keys — or
    ``("err", kind, message)`` for reportable failures.  The loop exits on
    ``shutdown``, EOF (parent died), or an unreportable exception (which
    the parent observes as a crash).
    """
    _reset_inherited_state()
    base = SharedBAT.attach(spec["base"])
    result = SharedArray.attach(spec["result"])
    cracker = CrackerColumn(
        base.as_bat(),
        global_recorder(),
        policy=resolve_policy(*spec["policy"]),
        budget=spec["budget"],
        rng=policy_rng(spec["seed"], "shard", spec["table"], spec["attr"],
                       spec["index"]),
        label=f"shard[{spec['table']}.{spec['attr']}#{spec['index']}]",
    )
    try:
        while True:
            try:
                command = conn.recv()
            except (EOFError, OSError):
                break
            op = command[0]
            if op == "shutdown":
                conn.send(("ok", 0, {}))
                break
            if op == "remap":
                # The parent grew the result buffer for incoming rows;
                # switch attachments before the shard can produce a larger
                # result.  (The old segment is unlinked parent-side.)
                result.close()
                result = SharedArray.attach(command[1])
                conn.send(("ok", 0, {}))
                continue
            started = time.perf_counter()
            try:
                reply = _apply_command(cracker, command, result)
            except _WORKER_REPORTABLE as exc:
                conn.send(("err", type(exc).__name__, str(exc)))
                continue
            if reply[0] == "ok":
                reply[2]["seconds"] = time.perf_counter() - started
            conn.send(reply)
    finally:
        result.close()
        base.close()
        conn.close()


def _apply_command(
    cracker: CrackerColumn, command: tuple, result: SharedArray
) -> tuple:
    """Execute one protocol command against the worker's cracker column."""
    op = command[0]
    if op == "select":
        interval = command[1]
        keys, path = probe_shard(cracker, interval)
        if keys is None:
            keys = cracker.select(interval)
        n = _write_result(keys, result)
        return ("ok", n, {"path": path, "rows": len(cracker)})
    if op == "update":
        queue_update(cracker, *command[1:])
        return ("ok", 0, {"rows": len(cracker)})
    if op == "apply_pending":
        cracker.apply_pending()
        return ("ok", 0, {"rows": len(cracker)})
    if op == "replay":
        for entry in command[1]:
            _apply_command(cracker, entry, result)
        return ("ok", 0, {"replayed": len(command[1])})
    if op == "snapshot":
        return ("ok", 0, _snapshot(cracker))
    raise ServerError(f"unknown shard-worker command {op!r}")


def _write_result(keys: np.ndarray, result: SharedArray) -> int:
    n = len(keys)
    if n > len(result):
        raise ServerError(
            f"shard result ({n} keys) exceeds the shared result buffer "
            f"({len(result)}); the parent under-sized a result remap"
        )
    result.view[:n] = keys
    return n


def _snapshot(cracker: CrackerColumn) -> dict:
    """A deterministic state fingerprint for respawn/replay verification."""
    return {
        "rows": len(cracker),
        "pieces": cracker.index.piece_count,
        "head_crc": zlib.crc32(np.ascontiguousarray(cracker.head).tobytes()),
        "keys_crc": zlib.crc32(np.ascontiguousarray(cracker.keys).tobytes()),
        "pending_insertions": cracker.pending.insertion_count,
        "pending_deletions": cracker.pending.deletion_count,
        "stochastic_cuts": cracker.stochastic_cuts,
    }


# ---------------------------------------------------------------------------
# Parent-side handles.
# ---------------------------------------------------------------------------


class _ShardWorker:
    """The worker-process shard: parent-side handle of one worker's
    process, pipe, tape and result buffer."""

    def __init__(
        self,
        pool: "ProcessShardPool",
        index: int,
        lo: float,
        hi: float,
        base: SharedBAT,
    ) -> None:
        self.pool = pool
        self.index = index
        self.lo = lo  # inclusive lower value bound (-inf for the first shard)
        self.hi = hi  # exclusive upper value bound (+inf for the last shard)
        self.base = base
        self.rows = len(base)  # refreshed from every worker acknowledgement
        # Max rows any future select can return: initial rows plus every
        # routed insertion (deletions only shrink).  Governs result sizing.
        self.capacity = max(1, self.rows)
        self.result = SharedArray.zeros(self.capacity, np.int64)
        #: The shard's mutation tape: every acknowledged state-mutating
        #: command, in dispatch order.  Replaying it over a fresh worker
        #: reproduces the cracked state exactly (same seeded RNG), and its
        #: ``update`` entries over the pristine base segment are an exact
        #: picture of the shard's rows (the worker's CrackerColumn copies
        #: the segment, never mutates it) — what the scan fallback reads.
        self.tape: list[tuple] = []
        self.mutex = Mutex(f"procworker[{pool.table}.{pool.attr}#{index}]")
        self.process: multiprocessing.process.BaseProcess | None = None
        self.conn = None
        self.respawns = 0
        self.commands = 0
        self.closed = False
        config = pool.resilience
        self.breaker = CircuitBreaker.from_config(
            f"{pool.table}.{pool.attr}#{index}", config
        )
        # Retry pauses come from a generator seeded exactly like the
        # shard's cracker RNG family, so a chaos run's backoff schedule
        # replays bit for bit under the same crack seed.
        self.backoff = DecorrelatedJitter(
            policy_rng(pool.crack_seed, "retry", pool.table, pool.attr, index),
            base=config.backoff_base,
            cap=config.backoff_cap,
        )
        self.retries = 0
        self.degraded_serves = 0
        self._spawn()

    # -- process lifecycle ---------------------------------------------------

    def _spec(self) -> dict:
        return {
            "base": self.base.meta(),
            "result": self.result.meta,
            "table": self.pool.table,
            "attr": self.pool.attr,
            "index": self.index,
            "seed": self.pool.crack_seed,
            "policy": self.pool.policy_spec,
            "budget": self.pool.budget,
        }

    def _spawn(self) -> None:
        parent_conn, child_conn = self.pool.context.Pipe(duplex=True)
        process = self.pool.context.Process(
            target=_shard_worker_main,
            args=(self._spec(), child_conn),
            name=f"repro-shard-{self.pool.table}.{self.pool.attr}#{self.index}",
            daemon=True,
        )
        process.start()
        child_conn.close()
        self.process = process
        self.conn = parent_conn

    def _kill(self) -> None:
        if self.process is not None and self.process.is_alive():
            self.process.kill()
        if self.process is not None:
            self.process.join(timeout=5.0)
        if self.conn is not None:
            self.conn.close()
        self.conn = None

    def _respawn_and_replay(self) -> None:
        """Deterministic recovery: fresh process, same segments, same tape."""
        self._kill()
        self.respawns += 1
        self._spawn()
        if self.tape:
            reply = self._roundtrip(("replay", list(self.tape)), None)
            if reply[0] != "ok":
                raise ServerError(
                    f"shard {self.index} replay failed after respawn: "
                    f"{reply[1]}: {reply[2]}"
                )

    # -- dispatch ------------------------------------------------------------

    def _roundtrip(self, command: tuple, deadline: float | None) -> tuple:
        """One raw send/recv (caller holds ``self.mutex``).  Raises
        ``ConnectionError``-family on a dead worker, ``QueryTimeout`` on a
        missed deadline (after killing the straggler so its late reply can
        never corrupt the next request/response pairing).

        The deadline is a wall-clock budget measured from before the send:
        a reply that lands after the budget elapsed is still an expiry,
        even if it is sitting in the pipe by the time we look.  Anything
        weaker would make tiny deadlines depend on scheduler timing.
        """
        expires_at = (
            None if deadline is None else time.perf_counter() + deadline
        )
        self.conn.send(command)
        if command[0] not in ("replay", "remap"):
            # The internal recovery replay and the result-buffer switch are
            # exempt: shots must count client-visible dispatches only, or a
            # multi-shot plan's hit arithmetic would depend on tape length
            # and buffer growth (and an injected death mid-replay would
            # escape the recovery path itself).
            try:
                fault_hook("procpool.worker")
            except InjectedFault as exc:
                # The armed worker-death failpoint: SIGKILL the worker
                # mid-command and surface the crash the way an organic
                # death would, so the ordinary respawn-and-replay path
                # recovers.
                self._kill()
                raise BrokenPipeError("injected shard-worker death") from exc
        if expires_at is not None:
            remaining = expires_at - time.perf_counter()
            if not self.conn.poll(max(0.0, remaining)) \
                    or time.perf_counter() > expires_at:
                self._respawn_and_replay()
                raise QueryTimeout(
                    f"shard worker {self.pool.table}.{self.pool.attr}#"
                    f"{self.index} missed its deadline",
                    seconds=deadline,
                )
        return self.conn.recv()

    def dispatch(self, command: tuple, deadline: float | None) -> ShardReply:
        """Send one command; handle crash recovery, deadlines, and the tape.

        Serialized per worker under ``self.mutex`` so concurrent queries
        can never interleave one worker's request/response pairs.
        """
        mutating = command[0] in ("update", "apply_pending")
        started = time.perf_counter()
        with self.mutex:
            if self.closed:
                raise ServerError("shard worker pool is closed")
            self.commands += 1
            recovered = False
            try:
                if self.conn is None:
                    # A prior dispatch killed the worker and gave up (the
                    # "died twice" path below): revive it before sending so
                    # a caller-level retry reaches a live worker.
                    self._respawn_and_replay()
                    recovered = True
                reply = self._roundtrip(command, deadline)
            except (EOFError, BrokenPipeError, ConnectionResetError, OSError):
                # Worker death (organic or injected): rebuild and retry the
                # in-flight command exactly once.
                self._respawn_and_replay()
                try:
                    reply = self._roundtrip(command, deadline)
                except (EOFError, BrokenPipeError, ConnectionResetError,
                        OSError) as exc:
                    # The respawned worker died on the same command: a
                    # deterministic crash, not a transient fault.
                    raise ServerError(
                        f"shard worker {self.index} died twice running "
                        f"{command[0]!r}; giving up after one respawn"
                    ) from exc
                recovered = True
            if reply[0] == "err":
                raise ServerError(
                    f"shard worker {self.index} failed {command[0]!r}: "
                    f"{reply[1]}: {reply[2]}"
                )
            _, rows, meta = reply
            if mutating or meta.get("path") == "crack":
                self.tape.append(command)
            self.rows = meta.get("rows", self.rows)
            keys = None
            if command[0] == "select":
                keys = np.array(self.result.view[:rows])
            return ShardReply(
                keys=keys,
                meta=meta,
                recovered=recovered,
                dispatch_seconds=time.perf_counter() - started,
            )

    # -- the shard contract ----------------------------------------------------

    def select(self, interval: Interval, deadline: Deadline) -> ShardReply:
        """This shard's select under the full resilience machinery.

        The inner ``dispatch`` already absorbs a *single* worker death via
        respawn-and-replay; this loop handles everything beyond that —
        a worker that died twice (``ServerError``), an injected fault from
        the retry/breaker failpoints — by retrying under the remaining
        deadline budget with decorrelated-jitter pauses, and by consulting
        the shard's circuit breaker before every dispatch.  When the
        breaker says shed (or retries are exhausted), the shard's range is
        answered by :meth:`_fallback_scan` and marked ``degraded``.
        """
        command = ("select", interval)
        attempts = 0
        while True:
            if deadline.cancelled:
                raise QueryTimeout(
                    f"request cancelled before shard "
                    f"{self.pool.table}.{self.pool.attr}#{self.index} dispatched"
                )
            gate = self.breaker.admit()
            if gate == SHED:
                return self._fallback_scan(interval)
            try:
                if attempts:
                    # Armed in chaos plans to fail the retry itself.
                    fault_hook("procpool.retry")
                if gate == PROBE:
                    # Armed in chaos plans to fail the half-open probe.
                    fault_hook("procpool.breaker")
                reply = self.dispatch(command, deadline.remaining())
            except QueryTimeout:
                self.breaker.record_failure()
                raise
            except (ServerError, InjectedFault, MemoryError, EOFError, OSError):
                self.breaker.record_failure()
                attempts += 1
                if attempts > self.pool.resilience.retry_attempts:
                    return self._fallback_scan(interval)
                pause = self.backoff.next_pause()
                remaining = deadline.remaining()
                if remaining is not None and pause >= remaining:
                    return self._fallback_scan(interval)
                self.retries += 1
                time.sleep(pause)
                continue
            self.breaker.record_success()
            self.backoff.reset()
            return reply

    def _fallback_scan(self, interval: Interval) -> ShardReply:
        """Answer this shard's range without its worker: scan the pristine
        shared base segment, merge the tape's ``update`` entries.

        Exact — base segment + tape = shard — but *degraded*: it scanned
        O(shard) instead of cracking, and it must never be cached (a
        recovered worker would then serve stale hits).
        """
        started = time.perf_counter()
        with self.mutex:
            bat = self.base.as_bat()
            keys = bat.materialized_keys()[interval.mask(bat.values)]
            updates = [entry for entry in self.tape if entry[0] == "update"]
            if updates:
                ins_values = np.concatenate([u[1] for u in updates])
                ins_keys = np.concatenate([u[2] for u in updates])
                deleted = np.concatenate([u[4] for u in updates])
                keys = np.concatenate([keys, ins_keys[interval.mask(ins_values)]])
                keys = keys[~np.isin(keys, deleted)]
            self.degraded_serves += 1
        return ShardReply(
            keys=keys,
            meta={"path": "fallback"},
            degraded=True,
            dispatch_seconds=time.perf_counter() - started,
        )

    def update(
        self,
        ins_values: np.ndarray,
        ins_keys: np.ndarray,
        del_values: np.ndarray,
        del_keys: np.ndarray,
    ) -> None:
        self._reserve_result(len(ins_values))
        self.dispatch(
            ("update", ins_values, ins_keys, del_values, del_keys),
            DEFAULT_DEADLINE,
        )

    def _reserve_result(self, extra_rows: int) -> None:
        """Grow the result buffer ahead of routed insertions.

        The caller holds the table's write lock, so no select is reading
        the buffer.  The switch is a transport command of its own — never
        taped: a respawned worker attaches whatever buffer is current from
        :meth:`_spec` — and the old segment is unlinked once the worker
        acknowledged it (or died, in which case its successor never sees
        the old one).
        """
        self.capacity += extra_rows
        if self.capacity <= len(self.result):
            return
        stale = self.result
        self.result = SharedArray.zeros(
            max(self.capacity, int(len(stale) * 1.5) + 1), np.int64
        )
        try:
            self.dispatch(("remap", self.result.meta), DEFAULT_DEADLINE)
        finally:
            stale.close()

    def apply_pending(self) -> None:
        self.dispatch(("apply_pending",), DEFAULT_DEADLINE)

    def health(self) -> dict[str, object]:
        return {
            "breaker": self.breaker.state,
            "alive": self.process is not None and self.process.is_alive(),
        }

    def close(self) -> None:
        """Shut the worker down and unlink the shard's shared segments."""
        with self.mutex:
            if self.closed:
                return
            self.closed = True
            try:
                if self.conn is not None and self.process is not None \
                        and self.process.is_alive():
                    self.conn.send(("shutdown",))
                    self.conn.poll(2.0)
            except (BrokenPipeError, ConnectionResetError, OSError):
                pass
            self._kill()
            self.result.close()
            self.base.release()


class ProcessShardPool(ShardedColumn):
    """The process backend: every shard is a :class:`_ShardWorker`.

    Same quantile layout, per-shard seeding, pruning, scatter-gather and
    update routing as :class:`~repro.server.partition.PartitionedColumn` —
    all inherited — but every shard's probe/crack runs on its own core.
    The executor calls :meth:`select` while holding the table's *read* lock
    and routes updates under the table's *write* lock — identical
    serialization to threads.
    """

    path = "process"

    def __init__(
        self,
        base: BAT,
        partitions: int,
        table: str,
        attr: str,
        recorder: StatsRecorder | None = None,
        budget: object = None,
        policy: object = None,
        crack_seed: int = 42,
        resilience: ResilienceConfig | None = None,
    ) -> None:
        self.crack_seed = crack_seed
        self.resilience = resilience if resilience is not None else ResilienceConfig()
        # Workers rebuild policy/budget from specs: policy objects carry
        # per-structure state that must live worker-side, so only the name
        # and the minimum piece size cross the process boundary.
        policy = resolve_policy(policy)
        self.policy_spec = (
            (None, None) if policy is None else (policy.name, policy.min_piece)
        )
        self.budget = budget
        self.context = _mp_context()
        self._stats_mutex = Mutex(f"procpool[{table}.{attr}].stats")
        self.dispatch_seconds = 0.0
        self.worker_seconds = 0.0
        self.gather_seconds = 0.0
        self.selects = 0
        self.probe_hits = 0
        self.recoveries = 0
        self.degraded = 0
        super().__init__(
            base, partitions, table, attr, recorder,
            lambda index, lo, hi, shard_bat: _ShardWorker(
                self, index, lo, hi, SharedBAT.from_bat(shard_bat)
            ),
        )

    def _note_gather(self, replies: list[ShardReply], seconds: float) -> None:
        with self._stats_mutex:
            self.selects += 1
            self.gather_seconds += seconds
            for r in replies:
                self.dispatch_seconds += r.dispatch_seconds
                self.worker_seconds += r.meta.get("seconds", 0.0)
                if r.meta.get("path") == "probe":
                    self.probe_hits += 1
                if r.recovered:
                    self.recoveries += 1
                if r.degraded:
                    self.degraded += 1

    def snapshot(self) -> list[dict]:
        """Per-shard state fingerprints (tests compare across respawns)."""
        out = []
        for worker in self.shards:
            meta = dict(worker.dispatch(("snapshot",), DEFAULT_DEADLINE).meta)
            meta.pop("seconds", None)  # wall time is not part of the state
            out.append(meta)
        return out

    def stats(self) -> dict[str, object]:
        with self._stats_mutex:
            timings = {
                "selects": self.selects,
                "probe_hits": self.probe_hits,
                "recoveries": self.recoveries,
                "degraded": self.degraded,
                "dispatch_seconds": self.dispatch_seconds,
                "worker_seconds": self.worker_seconds,
                "gather_seconds": self.gather_seconds,
            }
        common = super().stats()
        return {  # "engine" keeps its wire position between attr and partitions
            "table": common.pop("table"),
            "attr": common.pop("attr"),
            "engine": "process",
            **common,
            "respawns": [w.respawns for w in self.shards],
            "commands": [w.commands for w in self.shards],
            "tape_lengths": [len(w.tape) for w in self.shards],
            "retries": [w.retries for w in self.shards],
            "degraded_serves": [w.degraded_serves for w in self.shards],
            "breakers": {
                f"{self.table}.{self.attr}#{w.index}": w.breaker.stats()
                for w in self.shards
            },
            "jitter_tapes": [list(w.backoff.tape) for w in self.shards],
            **timings,
        }
