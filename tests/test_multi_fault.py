"""Multi-shot fault plans: ``site@N..M`` parsing and recovery soundness.

A multi-shot spec keeps firing until its hit range is exhausted, modelling
several simultaneously armed failpoints.  The engine recovery loop retries
healing up to the plan's total shot budget, so once every shot is spent the
workload must run clean — a query failing past that bound is a real bug.
"""

import numpy as np
import pytest

from repro.analysis.checks import Checks
from repro.engine.scan import PlainEngine
from repro.errors import InjectedFault
from repro.faults.plan import FaultPlan, FaultPlanError, fault_hook, install_plan

from tests.test_faults import ENGINES, SEED, make_db, make_engine, run_workload


class TestMultiShotParsing:
    def test_range_spec_round_trips(self):
        plan = FaultPlan.parse("tape.append@2..5=error")
        (spec,) = plan.specs
        assert (spec.hit, spec.hit_end, spec.kind) == (2, 5, "error")
        assert spec.shots() == 4
        assert plan.total_shots() == 4
        assert FaultPlan.parse(plan.describe()).specs == plan.specs

    def test_matches_inclusive_range(self):
        (spec,) = FaultPlan.parse("mapset.align@3..4=error").specs
        assert [spec.matches(n) for n in (2, 3, 4, 5)] == [
            False, True, True, False
        ]

    def test_single_hit_still_one_shot(self):
        plan = FaultPlan.parse("tape.append@7=error,arena.alloc=oom")
        assert plan.total_shots() == 2

    @pytest.mark.parametrize("bad", [
        "tape.append@5..2=error",   # empty range
        "tape.append@0..3=error",   # hits are 1-based
        "tape.append@1..x=error",   # non-numeric end
    ])
    def test_malformed_ranges_rejected(self, bad):
        with pytest.raises(FaultPlanError):
            FaultPlan.parse(bad)

    def test_fires_on_every_hit_in_range(self):
        install_plan(FaultPlan.parse("tape.append@2..4=error"))
        fired = []
        for _ in range(6):
            try:
                fault_hook("tape.append")
                fired.append(False)
            except InjectedFault:
                fired.append(True)
        assert fired == [False, True, True, True, False, False]


class TestMultiShotRecovery:
    @pytest.mark.parametrize("engine_name", ENGINES)
    def test_workload_survives_multi_shot_plan(self, engine_name):
        with Checks(faults="kernels.crack_two@1..4=error").armed(seed=SEED) as armed:
            db = make_db()
            engine = make_engine(engine_name, db)
            baseline = PlainEngine(db)
            recovered = run_workload(engine, baseline, db)
        assert recovered >= 1
        assert len(armed.plan.injected) >= 1

    def test_recovery_rerun_survives_repeat_fire(self):
        # Arm a wide range so faults fire *during* the recovery rerun too:
        # the bounded retry loop must chew through every shot and converge.
        checks = Checks(faults="kernels.crack_two@1..6=error,tape.append@1..2=error")
        with checks.armed(seed=SEED):
            db = make_db()
            engine = make_engine("selection_cracking", db)
            baseline = PlainEngine(db)
            recovered = run_workload(engine, baseline, db)
        assert recovered >= 1

    def test_clean_after_all_shots_spent(self):
        with Checks(faults="kernels.crack_two@1..3=error").armed(seed=SEED) as armed:
            db = make_db()
            engine = make_engine("selection_cracking", db)
            baseline = PlainEngine(db)
            run_workload(engine, baseline, db)
            spent = list(armed.plan.injected)
            # Every further query runs clean: no recovery, no new injections.
            extra = run_workload(engine, baseline, db, with_updates=False)
            assert extra == 0
            assert armed.plan.injected == spent
            assert db.heal_faults() == []

    def test_multi_site_plan_under_deep_sanitize(self):
        checks = Checks(
            faults="mapset.align@1..2=error,kernels.crack_three@2=error",
            sanitize="deep",
        )
        with checks.armed(seed=SEED) as armed:
            db = make_db()
            engine = make_engine("sideways", db)
            baseline = PlainEngine(db)
            run_workload(engine, baseline, db, with_updates=False)
        assert armed.plan.hits  # the sites were actually visited

    def test_deterministic_injection_points(self):
        logs = []
        for _ in range(2):
            with Checks(faults="kernels.crack_two@2..3=error").armed(seed=SEED) as armed:
                db = make_db()
                engine = make_engine("selection_cracking", db)
                baseline = PlainEngine(db)
                run_workload(engine, baseline, db, with_updates=False)
            logs.append(list(armed.plan.injected))
        assert logs[0] == logs[1]


def test_hit_counting_is_thread_safe():
    import threading

    install_plan(FaultPlan.parse("tape.append@1000000=error"))
    plan = FaultPlan.parse("tape.append@1000000=error")
    install_plan(plan)
    visits = 500

    def worker():
        for _ in range(visits):
            fault_hook("tape.append")

    threads = [threading.Thread(target=worker) for _ in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=30)
    assert plan.hits["tape.append"] == 4 * visits
