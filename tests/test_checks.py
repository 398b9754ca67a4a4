"""One ``Checks`` arms CrackSan, FaultSan and RaceSan for a scope.

Every test starts from an all-off outer scope, so the assertions hold under
any suite-wide ``--sanitize`` / ``--faults`` / ``--racesan`` option.
"""

import numpy as np
import pytest

from repro.analysis.checks import Checks, current
from repro.analysis.racesan import active_detectors
from repro.analysis.sanitizer import Sanitizer, active_sanitizers
from repro.cracking.bounds import Interval
from repro.engine.database import Database
from repro.engine.query import Predicate, Query
from repro.engine.selection_cracking import SelectionCrackingEngine
from repro.errors import PlanError
from repro.faults.plan import FaultPlanError, active_plan

EVERYTHING = Checks(sanitize="deep", faults="tape.append@1000=error", racesan=True)


@pytest.fixture(autouse=True)
def _all_off(_checks):
    with Checks(sanitize="off", faults="", racesan=False).armed():
        yield


def assert_nothing_armed():
    assert active_plan() is None
    assert active_sanitizers() == []
    assert active_detectors() == []


def _database():
    db = Database()
    rng = np.random.default_rng(3)
    db.create_table("R", {
        attr: rng.integers(0, 10_000, size=2_000).astype(np.int64)
        for attr in "AB"
    })
    return db


def _crack(db, lo):
    query = Query("R", (Predicate("A", Interval.open(lo, lo + 500)),),
                  projections=("B",))
    return SelectionCrackingEngine(db).run(query)


def test_armed_block_activates_exactly_its_checkers():
    with EVERYTHING.armed() as armed:
        assert active_sanitizers() == [armed.sanitizer]
        assert armed.sanitizer.level == "deep"
        assert active_detectors() == [armed.racesan]
        assert active_plan() is armed.plan
        assert current() is armed
    assert_nothing_armed()


def test_leaving_normally_disarms_even_with_a_closed_database():
    with EVERYTHING.armed():
        db = _database()
        _crack(db, 1_000)
        db.close()
    assert_nothing_armed()


def test_leaving_by_raising_disarms():
    with pytest.raises(RuntimeError):
        with EVERYTHING.armed():
            _crack(_database(), 1_000)
            raise RuntimeError("boom")
    assert_nothing_armed()


def test_nested_block_restores_the_outer_arming():
    with Checks(sanitize="post-crack", faults="tape.append@1000=error",
                racesan=True).armed() as outer:
        with Checks(sanitize="deep", faults="", racesan=False).armed() as inner:
            assert active_sanitizers() == [inner.sanitizer]
            assert active_plan() is None
            assert active_detectors() == []
        assert current() is outer
        assert active_sanitizers() == [outer.sanitizer]
        assert active_plan() is outer.plan
        assert active_detectors() == [outer.racesan]
    assert_nothing_armed()


def test_unset_fields_inherit_the_outer_checkers():
    """A nested scope that only sets faults keeps watching with the same
    sanitizer and detector: one CrackSan, the same structures."""
    with Checks(sanitize="post-query", racesan=True).armed() as outer:
        with Checks(faults="tape.append@1000=error").armed() as inner:
            assert inner.sanitizer is outer.sanitizer
            assert inner.racesan is outer.racesan
            assert inner.checks == Checks("post-query", "tape.append@1000=error", True)
            assert active_sanitizers() == [outer.sanitizer]
        with Checks(sanitize="post-query").armed() as same:
            assert same.sanitizer is outer.sanitizer
        assert active_plan() is None


def test_one_plan_counts_hits_across_databases():
    """``@2`` is the scope's second hit, not each database's second."""
    with Checks(faults="kernels.crack_three@2=error").armed() as armed:
        first, second = _database(), _database()
        assert not _crack(first, 1_000).fault_recovered
        assert _crack(second, 1_000).fault_recovered
        assert not _crack(_database(), 1_000).fault_recovered
    assert armed.plan.injected == ["kernels.crack_three@2=error"]


def test_environment_arms_nothing(monkeypatch):
    monkeypatch.setenv("REPRO_SANITIZE", "deep")
    monkeypatch.setenv("REPRO_FAULTS", "kernels.crack_three=error")
    monkeypatch.setenv("REPRO_RACESAN", "on")
    with Checks().armed():
        db = _database()
        assert not _crack(db, 1_000).fault_recovered
        assert_nothing_armed()


def test_seed_reaches_every_checker_the_scope_creates():
    with EVERYTHING.armed(seed=7) as armed:
        assert armed.sanitizer.seed == 7
        assert armed.racesan.seed == 7
        assert armed.plan.seed == 7
        with Checks(faults="tape.append=error").armed(seed=9) as inner:
            assert inner.plan.seed == 9
            assert inner.sanitizer.seed == 7  # inherited, not re-created


@pytest.mark.parametrize("bad, error", [
    (dict(sanitize="paranoid"), PlanError),
    (dict(faults="no.such.site=error"), FaultPlanError),
    (dict(racesan="strict"), PlanError),
])
def test_malformed_values_fail_at_construction(bad, error):
    with pytest.raises(error):
        Checks(**bad)


def test_exp15_leaves_no_plan_and_exp19_arms_its_default_chaos(monkeypatch):
    """exp15 arms each site's plan only around its faulted run, so exp19
    run next in the same process chaos-tests with its own default plan.
    Under CrackSan, exactly one sanitizer sweeps at every query checkpoint."""
    from repro.bench.exp19_overload import DEFAULT_CHAOS
    from repro.bench.registry import EXPERIMENTS

    sweeping = []
    on_query = Sanitizer.on_query

    def counted(self):
        sweeping.append(len(active_sanitizers()))
        on_query(self)

    monkeypatch.setattr(Sanitizer, "on_query", counted)
    with Checks(sanitize="post-query").armed():
        EXPERIMENTS.get("exp15").run(scale=0.05)
        assert active_plan() is None
        result = EXPERIMENTS.get("exp19").run(scale=0.05)
    assert result["chaos_spec"] == DEFAULT_CHAOS
    assert result["overload_chaos"]["injected"]
    assert sweeping and set(sweeping) == {1}
