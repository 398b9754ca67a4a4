"""Resilience primitives and executor admission control under overload."""

import threading
import time

import numpy as np
import pytest

from repro.cracking.bounds import Interval
from repro.engine.query import Predicate, Query
from repro.errors import QueryTimeout, ServerError, ServerOverloaded
from repro.server.executor import (
    LATENCY_WINDOW,
    SHED_POLICIES,
    ServedQuery,
    ServerExecutor,
)
from repro.server.resilience import (
    CLOSED,
    DISPATCH,
    HALF_OPEN,
    OPEN,
    PROBE,
    SHED,
    CircuitBreaker,
    Deadline,
    DecorrelatedJitter,
    ResilienceConfig,
)


def _span(lo, hi, attr="A", **kwargs):
    return Query("R", (Predicate(attr, Interval.half_open(lo, hi)),), **kwargs)


def _blocked_query(lo=0, hi=1):
    """Multi-predicate: takes the classic engine path under the table
    write lock, so a lock holder makes it block for as long as we like."""
    return Query("R", (
        Predicate("C", Interval.half_open(lo, hi)),
        Predicate("D", Interval.half_open(lo, hi)),
    ))


# -- Deadline ----------------------------------------------------------------


class TestDeadline:
    def test_coerce_passthrough_float_and_none(self):
        deadline = Deadline(1.0)
        assert Deadline.coerce(deadline) is deadline
        assert Deadline.coerce(2.0).budget == 2.0
        assert Deadline.coerce(None).budget is None

    def test_budget_counts_from_the_enqueue_instant(self):
        enqueued = time.perf_counter() - 0.5
        deadline = Deadline(1.0, started=enqueued)
        remaining = deadline.remaining()
        assert 0.0 < remaining <= 0.5
        assert not deadline.expired()
        assert 0.5 <= deadline.consumed_fraction() <= 1.0

    def test_unbounded(self):
        deadline = Deadline(None)
        assert deadline.remaining() is None
        assert not deadline.expired()
        assert deadline.consumed_fraction() is None

    def test_expired_and_zero_budget(self):
        assert Deadline(0.0).expired()
        assert Deadline(0.0).consumed_fraction() == 1.0
        assert Deadline(1e-9, started=time.perf_counter() - 1.0).expired()

    def test_cancel_is_one_way(self):
        deadline = Deadline(10.0)
        assert not deadline.cancelled
        deadline.cancel()
        deadline.cancel()  # idempotent
        assert deadline.cancelled
        assert not deadline.expired()  # cancellation is not expiry


# -- DecorrelatedJitter ------------------------------------------------------


class TestDecorrelatedJitter:
    def test_identical_seeds_replay_the_same_tape(self):
        a = DecorrelatedJitter(np.random.default_rng(7))
        b = DecorrelatedJitter(np.random.default_rng(7))
        assert [a.next_pause() for _ in range(10)] == \
            [b.next_pause() for _ in range(10)]
        assert a.tape == b.tape and len(a.tape) == 10

    def test_pauses_stay_within_bounds(self):
        jitter = DecorrelatedJitter(
            np.random.default_rng(3), base=0.001, cap=0.01
        )
        for _ in range(50):
            assert 0.001 <= jitter.next_pause() <= 0.01

    def test_reset_restarts_from_base(self):
        jitter = DecorrelatedJitter(
            np.random.default_rng(5), base=0.001, cap=1.0
        )
        for _ in range(20):
            jitter.next_pause()  # let it climb
        jitter.reset()
        # Decorrelated jitter: the first post-reset draw is U(base, 3*base).
        assert jitter.next_pause() <= 0.003

    def test_validation(self):
        rng = np.random.default_rng(1)
        with pytest.raises(ServerError, match="base"):
            DecorrelatedJitter(rng, base=0.0, cap=1.0)
        with pytest.raises(ServerError, match="base"):
            DecorrelatedJitter(rng, base=0.5, cap=0.1)


# -- CircuitBreaker ----------------------------------------------------------


class FakeClock:
    def __init__(self):
        self.now = 100.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


@pytest.fixture
def clock():
    return FakeClock()


def _breaker(clock, **kwargs):
    defaults = dict(window=4, min_calls=2, threshold=0.5, cooldown=10.0)
    defaults.update(kwargs)
    return CircuitBreaker("t.A#0", clock=clock, **defaults)


class TestCircuitBreaker:
    def test_closed_below_min_calls_keeps_dispatching(self, clock):
        breaker = _breaker(clock)
        assert breaker.admit() == DISPATCH
        breaker.record_failure()  # one failure alone cannot open it
        assert breaker.state == CLOSED
        assert breaker.admit() == DISPATCH

    def test_opens_at_failure_rate_threshold(self, clock):
        breaker = _breaker(clock, min_calls=3)
        breaker.record_success()
        breaker.record_failure()
        assert breaker.state == CLOSED  # 1/2 failed but below min_calls
        breaker.record_failure()        # window [T,F,F]: 2/3 >= 0.5, open
        assert breaker.state == OPEN
        assert breaker.admit() == SHED
        assert breaker.stats()["opens"] == 1

    def test_successes_keep_a_sick_window_from_opening(self, clock):
        breaker = _breaker(clock, window=4)
        for _ in range(4):
            breaker.record_success()
        breaker.record_failure()  # window [T,T,T,F]: 1/4 < 0.5
        assert breaker.state == CLOSED

    def test_cooldown_admits_exactly_one_probe(self, clock):
        breaker = _breaker(clock, min_calls=1, threshold=1.0)
        breaker.record_failure()
        assert breaker.state == OPEN
        assert breaker.admit() == SHED  # inside the cooldown
        clock.advance(10.0)
        assert breaker.admit() == PROBE
        assert breaker.state == HALF_OPEN
        assert breaker.admit() == SHED  # the probe owns the half-open slot
        assert breaker.stats()["probes"] == 1

    def test_probe_failure_reopens_and_restarts_cooldown(self, clock):
        breaker = _breaker(clock, min_calls=1, threshold=1.0)
        breaker.record_failure()
        clock.advance(10.0)
        assert breaker.admit() == PROBE
        breaker.record_failure()
        assert breaker.state == OPEN
        clock.advance(9.0)
        assert breaker.admit() == SHED  # cooldown restarted at the failure
        clock.advance(1.0)
        assert breaker.admit() == PROBE

    def test_probe_success_recloses_and_clears_history(self, clock):
        breaker = _breaker(clock, min_calls=1, threshold=1.0)
        breaker.record_failure()
        clock.advance(10.0)
        assert breaker.admit() == PROBE
        breaker.record_success()
        assert breaker.state == CLOSED
        assert breaker.stats()["window"] == []  # the incident is over
        assert breaker.admit() == DISPATCH

    def test_from_config_and_stats_shape(self, clock):
        config = ResilienceConfig(
            breaker_window=6, breaker_min_calls=4,
            breaker_threshold=0.75, breaker_cooldown=2.5,
        )
        breaker = CircuitBreaker.from_config("t.A#1", config, clock=clock)
        assert breaker.min_calls == 4 and breaker.cooldown == 2.5
        stats = breaker.stats()
        assert set(stats) == {
            "state", "opens", "probes", "failures", "successes", "window"
        }
        assert stats["state"] == CLOSED

    def test_validation(self, clock):
        with pytest.raises(ServerError, match="window"):
            _breaker(clock, window=0)
        with pytest.raises(ServerError, match="threshold"):
            _breaker(clock, threshold=0.0)
        with pytest.raises(ServerError, match="threshold"):
            _breaker(clock, threshold=1.5)


# -- executor admission control ----------------------------------------------


class _LockHolder:
    """Hold a table's write lock from a helper thread so any query that
    needs it blocks until :meth:`release`."""

    def __init__(self, executor, table="R"):
        self._acquired = threading.Event()
        self._release = threading.Event()
        lock = executor.registry.lock_for(table)

        def holder():
            with lock.write():
                self._acquired.set()
                self._release.wait(timeout=30)

        self._thread = threading.Thread(target=holder)
        self._thread.start()
        assert self._acquired.wait(timeout=5)

    def release(self):
        self._release.set()
        self._thread.join(timeout=10)


def _wait_inflight(executor, count, timeout=10.0):
    """Block until ``count`` requests left the queue and started executing
    — admission decisions below must not race the worker pickup."""
    deadline = time.perf_counter() + timeout
    while time.perf_counter() < deadline:
        with executor._admission_mutex:
            if executor._inflight >= count and not executor._queued:
                return
        time.sleep(0.005)
    raise AssertionError(f"never saw {count} in-flight requests")


def test_admission_knob_validation(db):
    with pytest.raises(ServerError, match="max_queue"):
        ServerExecutor(db, max_queue=-1)
    with pytest.raises(ServerError, match="max_inflight"):
        ServerExecutor(db, max_inflight=0)
    with pytest.raises(ServerError, match="shed policy"):
        ServerExecutor(db, shed_policy="coin-flip")
    assert set(SHED_POLICIES) == {
        "reject-newest", "reject-oldest", "deadline-aware"
    }


def test_reject_newest_sheds_the_incoming_request(db):
    with ServerExecutor(
        db, workers=1, max_inflight=1, shed_policy="reject-newest"
    ) as executor:
        holder = _LockHolder(executor)
        try:
            stuck = executor.admit(_blocked_query()).future
            _wait_inflight(executor, 1)
            with pytest.raises(ServerOverloaded) as caught:
                executor.run(_blocked_query(1, 2))
            assert caught.value.policy == "reject-newest"
        finally:
            holder.release()
        assert stuck.result(timeout=30) is not None
        stats = executor.stats()
        assert stats["shed"] == 1
        assert stats["queue_depth"] == 0


def test_reject_oldest_cancels_the_queued_victim(db):
    with ServerExecutor(
        db, workers=1, max_inflight=2, shed_policy="reject-oldest"
    ) as executor:
        holder = _LockHolder(executor)
        try:
            running = executor.admit(_blocked_query()).future       # occupies worker
            _wait_inflight(executor, 1)
            victim = executor.admit(_blocked_query(1, 2)).future   # waits in queue
            survivor = executor.admit(_blocked_query(2, 3)).future  # evicts victim
            assert victim.cancelled()
            assert not survivor.cancelled()
        finally:
            holder.release()
        assert running.result(timeout=30) is not None
        assert survivor.result(timeout=30) is not None
        assert executor.stats()["shed"] == 1


@pytest.mark.parametrize("served_before", [1, LATENCY_WINDOW + 50])
def test_deadline_aware_sheds_the_hopeless_victim(db, served_before):
    """The p50 service-time estimate comes from a fixed-size window of
    recent latencies: serving more queries than it holds must neither grow
    it nor starve the shed decision or the reported percentiles."""
    with ServerExecutor(
        db, workers=1, max_inflight=2, shed_policy="deadline-aware"
    ) as executor:
        for _ in range(served_before):  # seed the p50 service-time estimate
            executor.run(_span(0, 50_000))
        assert len(executor.latencies) == min(served_before, LATENCY_WINDOW)
        stats = executor.stats()
        assert stats["queries_served"] == served_before
        assert stats["latency_p99"] >= stats["latency_p50"] > 0.0
        holder = _LockHolder(executor)
        try:
            running = executor.admit(_blocked_query()).future
            _wait_inflight(executor, 1)
            # Queued with (effectively) no budget left: by the time a slot
            # frees up this request cannot possibly finish in time.
            hopeless = executor.admit(ServedQuery(_blocked_query(1, 2), timeout=1e-6)).future
            healthy = executor.admit(_blocked_query(2, 3)).future
            assert hopeless.cancelled()
            assert not healthy.cancelled()
        finally:
            holder.release()
        assert running.result(timeout=30) is not None
        assert healthy.result(timeout=30) is not None
        assert executor.stats()["shed"] == 1


def test_deadline_aware_falls_back_to_reject_newest(db):
    # No queued victim is hopeless: the incoming request is shed instead.
    with ServerExecutor(
        db, workers=1, max_inflight=2, shed_policy="deadline-aware"
    ) as executor:
        executor.run(_span(0, 50_000))
        holder = _LockHolder(executor)
        try:
            executor.admit(_blocked_query())
            _wait_inflight(executor, 1)
            queued = executor.admit(ServedQuery(_blocked_query(1, 2), timeout=60)).future
            with pytest.raises(ServerOverloaded):
                executor.run(_blocked_query(2, 3))
            assert not queued.cancelled()
        finally:
            holder.release()


def test_queue_wait_counts_against_the_budget(db):
    """A request admitted with a budget that elapses while it is still
    queued must fail with QueryTimeout — not run anyway."""
    with ServerExecutor(db, workers=1, max_inflight=4) as executor:
        holder = _LockHolder(executor)
        try:
            executor.admit(_blocked_query())
            _wait_inflight(executor, 1)
            doomed = executor.admit(ServedQuery(_blocked_query(1, 2), timeout=0.05)).future
            time.sleep(0.2)  # budget expires in the queue
        finally:
            holder.release()
        with pytest.raises(QueryTimeout):
            doomed.result(timeout=30)


def test_health_reports_readiness_and_drain(db):
    executor = ServerExecutor(db, workers=2)
    health = executor.health()
    assert health["ready"] is True
    assert health["draining"] is False
    assert health["queue_depth"] == 0
    assert health["inflight"] == 0
    assert health["breakers"] == {}  # no process shards attached
    executor.close()
    assert executor.health()["ready"] is False
    assert executor.health()["draining"] is True


def test_close_sheds_the_queue_and_refuses_new_work(db):
    with ServerExecutor(db, workers=1) as executor:
        holder = _LockHolder(executor)
        try:
            executor.admit(_blocked_query())
            _wait_inflight(executor, 1)
            queued = executor.admit(_blocked_query(1, 2)).future
            closer = threading.Thread(target=executor.close)
            closer.start()
            time.sleep(0.1)  # close() is draining, waiting on the runner
        finally:
            holder.release()
        closer.join(timeout=30)
        assert queued.cancelled()
        assert executor.stats()["shed"] == 1
        with pytest.raises(ServerError, match="closed"):
            executor.run(_span(0, 10))
