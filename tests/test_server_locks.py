"""RWLock semantics and the LockRegistry's structure bindings."""

import threading
import time

import numpy as np
import pytest

from repro.errors import ServerError
from repro.server.locks import LockRegistry, RWLock


def test_readers_share():
    lock = RWLock("t")
    entered = threading.Barrier(3, timeout=5)

    def reader():
        with lock.read():
            entered.wait()  # all three inside the read section at once

    threads = [threading.Thread(target=reader) for _ in range(3)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=5)
    assert not any(t.is_alive() for t in threads)
    assert lock.read_acquires == 3


def test_write_excludes_readers_and_writers():
    lock = RWLock("t")
    order: list[str] = []
    ready = threading.Event()

    def writer():
        with lock.write():
            ready.set()
            time.sleep(0.05)
            order.append("writer-done")

    def reader():
        ready.wait(timeout=5)
        with lock.read():
            order.append("reader")

    w = threading.Thread(target=writer)
    r = threading.Thread(target=reader)
    w.start()
    r.start()
    w.join(timeout=5)
    r.join(timeout=5)
    assert order == ["writer-done", "reader"]


def test_write_reentrant_and_read_passthrough():
    lock = RWLock("t")
    with lock.write():
        with lock.write():  # re-entering our own write section is fine
            with lock.read():  # so is reading while owning the write side
                pass
    # Fully released: another thread can take the write side immediately.
    assert lock.acquire_write(timeout=1)
    lock.release_write()


def test_upgrade_rejected():
    lock = RWLock("t")
    with lock.read():
        with pytest.raises(ServerError, match="upgrade"):
            lock.acquire_write()


def test_writer_preference_queues_new_readers():
    lock = RWLock("t")
    first_reading = threading.Event()
    writer_waiting = threading.Event()
    release_first = threading.Event()
    late_reader_got = []

    def first_reader():
        with lock.read():
            first_reading.set()
            release_first.wait(timeout=5)

    def writer():
        writer_waiting.set()
        with lock.write():
            pass

    r1 = threading.Thread(target=first_reader)
    r1.start()
    first_reading.wait(timeout=5)
    w = threading.Thread(target=writer)
    w.start()
    writer_waiting.wait(timeout=5)
    time.sleep(0.05)  # let the writer reach its wait loop
    # A new reader must queue behind the waiting writer: its timed attempt
    # fails while the first reader still blocks the writer.
    late_reader_got.append(lock.acquire_read(timeout=0.05))
    release_first.set()
    r1.join(timeout=5)
    w.join(timeout=5)
    assert late_reader_got == [False]
    # Once the writer is through, readers proceed again.
    assert lock.acquire_read(timeout=1)
    lock.release_read()


def test_try_read_skips_busy_structure():
    lock = RWLock("t")
    holding = threading.Event()
    release = threading.Event()

    def writer():
        with lock.write():
            holding.set()
            release.wait(timeout=5)

    w = threading.Thread(target=writer)
    w.start()
    holding.wait(timeout=5)
    with lock.try_read(deadline=0.02) as got:
        assert got is False
    assert lock.read_skips == 1
    release.set()
    w.join(timeout=5)
    with lock.try_read(deadline=0.02) as got:
        assert got is True


def test_release_errors():
    lock = RWLock("t")
    with pytest.raises(ServerError, match="release_read"):
        lock.release_read()
    with pytest.raises(ServerError, match="non-owner"):
        lock.release_write()


def test_guard_timeout_raises():
    lock = RWLock("t")
    holding = threading.Event()
    release = threading.Event()

    def writer():
        with lock.write():
            holding.set()
            release.wait(timeout=5)

    w = threading.Thread(target=writer)
    w.start()
    holding.wait(timeout=5)
    with pytest.raises(ServerError, match="timed out"):
        with lock.read(timeout=0.02):
            pass
    release.set()
    w.join(timeout=5)


def test_registry_keys_and_bindings():
    registry = LockRegistry()
    assert registry.lock_for("R") is registry.lock_for("R")
    assert registry.lock_for("R") is not registry.lock_for("R", "A", 0)

    obj = np.arange(4)
    lock = registry.lock_for("R")
    assert registry.lock_of(obj) is None
    registry.bind(obj, lock)
    assert registry.lock_of(obj) is lock

    # Unbound structures always proceed under the sweep guard.
    with registry.structure_guard(object()) as proceed:
        assert proceed is True
    with registry.structure_guard(obj) as proceed:
        assert proceed is True


def test_registry_binding_is_weak():
    registry = LockRegistry()
    lock = registry.lock_for("R")

    class Structure:
        pass

    obj = Structure()
    registry.bind(obj, lock)
    assert registry.lock_of(obj) is lock
    del obj
    import gc

    gc.collect()
    assert registry._by_obj == {}


def test_registry_guard_honors_busy_lock():
    registry = LockRegistry()
    lock = registry.lock_for("R")

    class Structure:
        pass

    obj = Structure()
    registry.bind(obj, lock)
    holding = threading.Event()
    release = threading.Event()

    def writer():
        with lock.write():
            holding.set()
            release.wait(timeout=5)

    w = threading.Thread(target=writer)
    w.start()
    holding.wait(timeout=5)
    with registry.structure_guard(obj) as proceed:
        assert proceed is False  # busy under another thread's write lock
    release.set()
    w.join(timeout=5)
    stats = {s["name"]: s for s in registry.stats()}
    assert stats["R"]["read_skips"] == 1
    assert stats["R"]["write_acquires"] == 1


def test_writer_preference_bounds_starvation():
    """A writer arriving under a continuous reader stream gets through:
    once it queues, fresh read attempts wait rather than pile in."""
    lock = RWLock("t")
    stop = threading.Event()
    wrote = threading.Event()

    def reader_stream():
        while not stop.is_set():
            with lock.read():
                time.sleep(0.001)

    readers = [threading.Thread(target=reader_stream) for _ in range(4)]
    for t in readers:
        t.start()
    try:
        time.sleep(0.02)  # the stream is saturating the read side

        def writer():
            with lock.write():
                wrote.set()

        w = threading.Thread(target=writer)
        w.start()
        assert wrote.wait(timeout=5), "writer starved by the reader stream"
        w.join(timeout=5)
    finally:
        stop.set()
        for t in readers:
            t.join(timeout=5)
    assert not any(t.is_alive() for t in readers)
    assert lock.write_acquires == 1


def test_racesan_reports_rwlock_order_cycle():
    """Opposite table-lock acquisition orders across threads show up in
    RaceSan's lock-order graph as a cycle with both acquisition stacks."""
    from repro.analysis.checks import Checks
    from repro.analysis.racesan import RaceSan

    registry = LockRegistry()
    r_lock = registry.lock_for("R")
    s_lock = registry.lock_for("S")
    # racesan=False pauses the suite-wide --racesan detector, which must
    # not be fed the deliberate cycle.
    with Checks(racesan=False).armed(), RaceSan(strict=False).activated() as rs:
        with r_lock.read():
            with s_lock.read():
                pass

        def inverted():
            with s_lock.write():
                with r_lock.write():
                    pass

        t = threading.Thread(target=inverted)
        t.start()
        t.join(timeout=5)
        assert not t.is_alive()
    cycles = [v for v in rs.violations if v.kind == "lock-order-cycle"]
    assert len(cycles) == 1
    assert "R" in cycles[0].subject and "S" in cycles[0].subject
    edges = rs.order_edges()
    assert ("R", "S") in edges and ("S", "R") in edges
