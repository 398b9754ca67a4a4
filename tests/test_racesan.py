"""RaceSan: lockset race detection, the lock-order graph, and plumbing."""

import json
import threading

import numpy as np
import pytest

from repro.analysis import racesan
from repro.analysis.checks import Checks
from repro.analysis.racesan import RaceSan, resolve_mode
from repro.engine.database import Database
from repro.errors import PlanError, RaceError
from repro.server.executor import ServerExecutor
from repro.server.locks import Mutex, RWLock


@pytest.fixture(autouse=True)
def _isolate(_checks):
    """These tests seed deliberate races and cycles; pause the suite-wide
    ``--racesan`` detector so it does not fail them at teardown."""
    with Checks(racesan=False).armed():
        yield


def _on_thread(fn):
    thread = threading.Thread(target=fn)
    thread.start()
    thread.join(timeout=5)
    assert not thread.is_alive()


# -- the Eraser state machine -------------------------------------------------


def test_consistently_locked_accesses_are_clean():
    guard = Mutex("guard")
    with RaceSan(strict=False).activated() as rs:
        with guard:
            racesan.note_access("var", "write")

        def other():
            with guard:
                racesan.note_access("var", "read")
                racesan.note_access("var", "write")

        _on_thread(other)
    assert rs.violations == []
    assert rs.accesses == 3


def test_empty_lockset_write_reports_a_data_race():
    guard = Mutex("guard")
    with RaceSan(strict=False).activated() as rs:
        with guard:
            racesan.note_access("var", "write")

        def other():
            racesan.note_access("var", "write")  # no lock held

        _on_thread(other)
    assert len(rs.violations) == 1
    violation = rs.violations[0]
    assert violation.kind == "data-race"
    assert violation.subject == "var"
    assert "lockset is empty" in violation.detail
    titles = [title for title, _stack in violation.stacks]
    assert any(title.startswith("racing write") for title in titles)
    assert any(title.startswith("last write") for title in titles)
    assert all(stack for _title, stack in violation.stacks)


def test_single_thread_access_never_reports():
    with RaceSan(strict=False).activated() as rs:
        racesan.note_access("var", "write")
        racesan.note_access("var", "read")
        racesan.note_access("var", "write")
    assert rs.violations == []


def test_cross_thread_reads_without_write_are_clean():
    with RaceSan(strict=False).activated() as rs:
        racesan.note_access("var", "read")
        _on_thread(lambda: racesan.note_access("var", "read"))
    assert rs.violations == []


def test_strict_mode_raises_race_error():
    with RaceSan(strict=True).activated():
        _on_thread(lambda: racesan.note_access("x", "write"))
        with pytest.raises(RaceError, match="concurrency violation"):
            racesan.note_access("x", "write")


def test_violation_carries_the_crack_seed():
    with RaceSan(strict=False, seed=777).activated() as rs:
        _on_thread(lambda: racesan.note_access("x", "write"))
        racesan.note_access("x", "write")
    assert rs.violations[0].seed == 777


# -- held-lock tracking --------------------------------------------------------


def test_held_lock_names_track_acquire_and_release():
    lock = RWLock("R")
    mutex = Mutex("m")
    with RaceSan(strict=False).activated():
        with lock.write():
            with lock.write():  # re-entrant: depth 2, one entry
                with mutex:
                    assert racesan.held_lock_names() == {"R", "m"}
                assert racesan.held_lock_names() == {"R"}
            assert racesan.held_lock_names() == {"R"}
        assert racesan.held_lock_names() == frozenset()


def test_note_access_snapshots_the_lockset():
    lock = RWLock("R")
    seen = {}

    class Probe(RaceSan):
        def _note_access(self, subject, kind, lockset, seed):
            seen[subject] = lockset
            super()._note_access(subject, kind, lockset, seed)

    with Probe(strict=False).activated():
        with lock.read():
            racesan.note_access("under", "read")
        racesan.note_access("outside", "read")
    assert seen["under"] == {"R"}
    assert seen["outside"] == frozenset()


# -- the lock-order graph ------------------------------------------------------


def test_opposite_acquisition_orders_report_a_cycle():
    a, b = Mutex("A"), Mutex("B")
    with RaceSan(strict=False).activated() as rs:
        with a:
            with b:
                pass

        def inverted():
            with b:
                with a:
                    pass

        _on_thread(inverted)
    cycles = [v for v in rs.violations if v.kind == "lock-order-cycle"]
    assert len(cycles) == 1
    violation = cycles[0]
    assert "A" in violation.subject and "->" in violation.subject
    assert "deadlock" in violation.detail
    # Both edges appear, each with the acquisition stack of its thread.
    assert len(violation.stacks) == 2
    assert all(stack for _title, stack in violation.stacks)
    edges = rs.order_edges()
    assert ("A", "B") in edges and ("B", "A") in edges


def test_consistent_acquisition_order_is_acyclic():
    a, b = Mutex("A2"), Mutex("B2")
    with RaceSan(strict=False).activated() as rs:
        for _ in range(3):
            with a:
                with b:
                    pass
        _on_thread(lambda: a.acquire() or b.acquire() or b.release() or a.release())
    assert rs.violations == []
    assert rs.order_edges() == {("A2", "B2"): rs.order_edges()[("A2", "B2")]}


# -- plumbing ------------------------------------------------------------------


def test_resolve_mode_spellings():
    assert resolve_mode("on") == "on"
    assert resolve_mode(True) == "on"
    assert resolve_mode(False) == "off"
    assert resolve_mode("") == "off"
    for retired in ("strict", "loud"):
        with pytest.raises(PlanError, match="racesan mode"):
            resolve_mode(retired)


def test_artifact_dump_on_violation(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_CHECK_ARTIFACTS", str(tmp_path))
    with RaceSan(strict=False, seed=99).activated():
        _on_thread(lambda: racesan.note_access("x", "write"))
        racesan.note_access("x", "write")
    artifacts = list(tmp_path.glob("racesan-repro-*.json"))
    assert len(artifacts) == 1
    payload = json.loads(artifacts[0].read_text())
    assert payload["kind"] == "data-race"
    assert payload["subject"] == "x"
    assert payload["crack_seed"] == 99
    assert payload["stacks"]


def test_report_counts_accesses_and_edges():
    with RaceSan(strict=False).activated() as rs:
        with Mutex("r1"):
            racesan.note_access("v", "read")
    report = rs.report()
    assert "1 accesses over 1 variable(s)" in report
    assert "0 violation(s)" in report


# -- the PR 6 regression: version capture outside the table lock ---------------


def _serving_db() -> Database:
    db = Database()
    rng = np.random.default_rng(7)
    db.create_table("R", {
        "A": rng.integers(0, 1000, size=2000).astype(np.int64),
        "B": rng.integers(0, 1000, size=2000).astype(np.int64),
    })
    return db


def test_racesan_redetects_unlocked_version_capture(monkeypatch):
    """Revert the PR 6 discipline (capture ``data_version`` before taking
    the table lock) and RaceSan must report the race on ``R.data_version``
    with the failing lockset and both stacks."""
    original = ServerExecutor._execute

    def racy_execute(self, query, *args, **kwargs):
        # The reverted discipline: sample the version with no lock held.
        self._capture_version(query.table)
        return original(self, query, *args, **kwargs)

    monkeypatch.setattr(ServerExecutor, "_execute", racy_execute)
    db = _serving_db()
    with RaceSan(strict=False, seed=db.crack_seed).activated() as rs:
        with ServerExecutor(db, workers=2, cache_bytes=0) as executor:
            executor.admit("SELECT A FROM R WHERE A < 100").future.result(timeout=10)
            executor.insert("R", {"A": [1], "B": [2]})
            executor.admit("SELECT A FROM R WHERE A < 200").future.result(timeout=10)
    races = [v for v in rs.violations if v.kind == "data-race"]
    assert races, rs.report()
    violation = races[0]
    assert violation.subject == "R.data_version"
    assert "lockset is empty" in violation.detail
    assert violation.seed == db.crack_seed
    titles = [title for title, _stack in violation.stacks]
    assert any("racing" in title for title in titles)
    assert any(stack for _title, stack in violation.stacks)


def test_disciplined_executor_is_race_free():
    """The shipped discipline under the same workload: zero violations."""
    db = _serving_db()
    with RaceSan(strict=False, seed=db.crack_seed).activated() as rs:
        with ServerExecutor(db, workers=2) as executor:
            for lo in (100, 300, 500):
                executor.admit(
                    f"SELECT A FROM R WHERE A < {lo}"
                ).future.result(timeout=10)
                executor.insert("R", {"A": [lo], "B": [lo]})
            executor.admit("SELECT A FROM R WHERE A < 100").future.result(timeout=10)
    assert rs.violations == [], rs.report()
