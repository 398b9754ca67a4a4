"""FaultSan: plan parsing, deterministic injection, atomic rollback, recovery.

The contract under test (see docs/faults.md): with any single-fault plan
armed, every engine either answers each query correctly or raises a
structured :class:`FaultError` — never a silently wrong result — and every
structure still alive afterwards passes ``check_invariants(deep=True)``.
"""

import numpy as np
import pytest

from repro.analysis import invariants
from repro.analysis.checks import Checks
from repro.cracking.bounds import Interval
from repro.engine.database import Database
from repro.engine.query import Predicate, Query
from repro.engine.scan import PlainEngine
from repro.engine.selection_cracking import SelectionCrackingEngine
from repro.engine.sideways_engine import SidewaysEngine
from repro.errors import ArenaPressure, InjectedFault, InvariantError
from repro.faults import guard
from repro.faults.guard import is_quarantined, quarantine
from repro.faults.plan import (
    PAYLOAD_SITES,
    SITES,
    FaultPlan,
    FaultPlanError,
    active_plan,
    fault_hook,
    install_plan,
    resolve_plan,
)

ROWS = 1_200
DOMAIN = 10_000
N_QUERIES = 8
SELECTIVITY = 0.05

ENGINES = ("selection_cracking", "sideways", "partial_sideways")


SEED = 17


def make_db(policy="mdd1r"):
    rng = np.random.default_rng(7)
    arrays = {
        attr: rng.integers(1, DOMAIN + 1, size=ROWS).astype(np.int64)
        for attr in "ABC"
    }
    db = Database(crack_policy=policy, crack_seed=SEED)
    db.create_table("R", arrays)
    return db


def make_engine(name, db):
    if name == "selection_cracking":
        return SelectionCrackingEngine(db)
    if name == "sideways":
        return SidewaysEngine(db, partial=False)
    return SidewaysEngine(db, partial=True)


def query_for(lo):
    hi = lo + int(DOMAIN * SELECTIVITY)
    return Query(
        table="R",
        predicates=(Predicate("A", Interval.open(lo, hi)),),
        projections=("B", "C"),
    )


def run_workload(engine, baseline, db, with_updates=True):
    """Queries (interleaved with updates) asserting scan-identical results."""
    rng = np.random.default_rng(11)
    recovered = 0
    for i in range(N_QUERIES):
        if with_updates and i % 3 == 1:
            db.insert("R", {
                attr: rng.integers(1, DOMAIN + 1, size=25).astype(np.int64)
                for attr in "ABC"
            })
        if with_updates and i % 3 == 2:
            live = np.flatnonzero(~db.tombstones("R"))
            db.delete("R", rng.choice(live, size=10, replace=False))
        query = query_for(int(rng.integers(1, DOMAIN * 0.9)))
        got = engine.run(query)
        want = baseline.run(query)
        assert got.row_count == want.row_count
        for attr in ("B", "C"):
            assert np.array_equal(
                np.sort(got.columns[attr]), np.sort(want.columns[attr])
            ), f"{engine.name}: {attr} diverged from scan"
        recovered += int(got.fault_recovered)
    return recovered


# -- plan parsing ----------------------------------------------------------------


class TestPlanParsing:
    def test_single_site_defaults(self):
        plan = FaultPlan.parse("mapset.align=error")
        assert len(plan.specs) == 1
        spec = plan.specs[0]
        assert (spec.site, spec.hit, spec.kind) == ("mapset.align", 1, "error")

    def test_kind_defaults_to_error(self):
        plan = FaultPlan.parse("tape.append")
        assert plan.specs[0].kind == "error"

    def test_hit_count_and_multiple_specs(self):
        plan = FaultPlan.parse("arena.alloc@3=oom, chunkmap.fetch=corrupt")
        assert [s.describe() for s in plan.specs] == [
            "arena.alloc@3=oom", "chunkmap.fetch@1=corrupt",
        ]

    def test_describe_reparses_identically(self):
        plan = FaultPlan.parse("kernels.crack_two@2=corrupt,tape.append=error")
        again = FaultPlan.parse(plan.describe())
        assert again.specs == plan.specs

    def test_empty_segments_skipped(self):
        assert FaultPlan.parse(" , tape.append=error ,, ").specs[0].site == "tape.append"

    @pytest.mark.parametrize("bad", [
        "nonexistent.site=error",
        "tape.append=explode",
        "tape.append@zero=error",
        "tape.append@0=error",
        "tape.append=corrupt",  # no payload at this site
    ])
    def test_malformed_specs_rejected(self, bad):
        with pytest.raises(FaultPlanError):
            FaultPlan.parse(bad)

    def test_payload_sites_are_registered(self):
        assert PAYLOAD_SITES <= set(SITES)


# -- the hook --------------------------------------------------------------------


class TestFaultHook:
    def test_noop_without_plan(self):
        fault_hook("tape.append")  # must not raise

    def test_fires_on_exact_hit_only(self):
        install_plan(FaultPlan.parse("tape.append@3=error"))
        fault_hook("tape.append")
        fault_hook("tape.append")
        with pytest.raises(InjectedFault) as exc_info:
            fault_hook("tape.append")
        assert exc_info.value.site == "tape.append"
        assert exc_info.value.hit == 3
        fault_hook("tape.append")  # hit 4: the spec is spent
        assert active_plan().hits["tape.append"] == 4
        assert active_plan().injected == ["tape.append@3=error"]

    def test_oom_raises_arena_pressure(self):
        install_plan(FaultPlan.parse("arena.alloc=oom"))
        with pytest.raises(ArenaPressure):
            fault_hook("arena.alloc")

    def test_unregistered_site_rejected_when_armed(self):
        install_plan(FaultPlan.parse("tape.append=error"))
        with pytest.raises(FaultPlanError):
            fault_hook("not.a.site")

    def test_corrupt_flips_exactly_one_element(self):
        install_plan(FaultPlan.parse("chunkmap.fetch=corrupt"))
        payload = np.arange(64, dtype=np.int64)
        pristine = payload.copy()
        fault_hook("chunkmap.fetch", payload)
        assert active_plan().dirty
        assert (payload != pristine).sum() == 1

    def test_corrupt_is_deterministic_per_seed(self):
        flips = []
        for _ in range(2):
            install_plan(FaultPlan.parse("chunkmap.fetch=corrupt", seed=99))
            payload = np.arange(64, dtype=np.int64)
            fault_hook("chunkmap.fetch", payload)
            flips.append(int(np.flatnonzero(payload != np.arange(64))[0]))
        assert flips[0] == flips[1]

    def test_corrupt_tolerates_missing_payload(self):
        install_plan(FaultPlan.parse("chunkmap.fetch=corrupt"))
        fault_hook("chunkmap.fetch", None)  # site visited without a payload
        assert not active_plan().dirty


# -- resolution + plumbing -------------------------------------------------------


class TestResolvePlan:
    def test_explicit_plan_passthrough(self):
        plan = FaultPlan.parse("tape.append=error")
        assert resolve_plan(plan) is plan

    def test_string_and_empty_string(self):
        assert resolve_plan("tape.append=error").specs[0].site == "tape.append"
        assert resolve_plan("   ") is None

    def test_env_var(self, monkeypatch):
        # Plans come from Checks alone; the old variable is ignored.
        monkeypatch.setenv("REPRO_FAULTS", "arena.alloc=oom")
        assert resolve_plan() is None


class TestDatabasePlumbing:
    def test_armed_scope_installs_plan(self):
        with Checks(faults="tape.append=error").armed() as armed:
            make_db()
            assert armed.plan is not None
            assert active_plan() is armed.plan
        assert active_plan() is not armed.plan

    def test_database_env_var(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "tape.append@5=error")
        with Checks(faults="").armed():
            make_db()
            assert active_plan() is None

    def test_database_defaults_to_no_plan(self):
        with Checks(faults="").armed():
            make_db()
            assert active_plan() is None

    def test_cli_faults_flag(self, monkeypatch, capsys):
        from repro.cli import cmd_run, main

        # A malformed plan fails fast, before any experiment runs.
        with pytest.raises(FaultPlanError):
            main(["run", "exp99", "--faults", "bogus.site=error"])
        # A valid plan is armed around the command and disarmed after it
        # ("exp99" keeps the invocation cheap: it exits before running).
        seen = []

        def spy(args):
            seen.append(active_plan().describe())
            return cmd_run(args)

        monkeypatch.setattr("repro.cli.cmd_run", spy)
        before = active_plan()
        assert main(["run", "exp99", "--faults", "tape.append=error"]) == 2
        assert seen == ["tape.append@1=error"]
        assert active_plan() is before
        capsys.readouterr()


# -- atomic rollback (structure level) ------------------------------------------


class TestAtomicRollback:
    def test_injected_fault_rolls_back_column(self, db):
        column = db.cracker_column("R", "A")
        column.select(Interval.open(100, 900))  # warm: some cracked state
        head = column.head.copy()
        keys = column.keys.copy()
        install_plan(FaultPlan.parse(
            "kernels.crack_two=error,kernels.crack_three=error", seed=17
        ))
        with pytest.raises(InjectedFault):
            column.select(Interval.open(2_000, 2_600))
        assert np.array_equal(column.head, head)
        assert np.array_equal(column.keys, keys)
        assert invariants.check(column, "column", deep=True) == []
        # The spec is spent: the same select now succeeds and agrees with
        # a plain scan of the base column.
        got = np.sort(column.select(Interval.open(2_000, 2_600)))
        base = db.table("R").values("A")
        want = np.sort(np.flatnonzero((base > 2_000) & (base < 2_600)))
        assert np.array_equal(got, want)

    def test_detected_corruption_rolls_back_and_raises(self, db):
        column = db.cracker_column("R", "A")
        column.select(Interval.open(100, 900))
        install_plan(FaultPlan.parse(
            "kernels.crack_two=corrupt,kernels.crack_three=corrupt", seed=17
        ))
        with pytest.raises(InvariantError):
            column.select(Interval.open(2_000, 2_600))
        # Either the rollback fully undid the damage, or the column was
        # quarantined; it must never stay live-and-broken.
        if not is_quarantined(column):
            assert invariants.check(column, "column", deep=True) == []

    def test_atomic_is_noop_when_disarmed(self, db):
        column = db.cracker_column("R", "A")
        with guard.atomic(column, "column"):
            column.head[0] ^= 0x5A  # would be rolled back if journaled
        assert column.head[0] == (db.table("R").values("A")[0] ^ 0x5A)
        column.head[0] ^= 0x5A  # undo; the column is shared with other tests


class TestForceJournal:
    def test_journal_preserves_results_without_faults(self):
        guard.FORCE_JOURNAL = True
        try:
            db = make_db()
            engine = make_engine("sideways", db)
            baseline = PlainEngine(db)
            recovered = run_workload(engine, baseline, db)
        finally:
            guard.FORCE_JOURNAL = False
        assert recovered == 0
        assert db.heal_faults() == []


# -- engine-level recovery -------------------------------------------------------


class TestEngineRecovery:
    def test_recovers_and_matches_scan(self):
        with Checks(faults="kernels.crack_two=error").armed(seed=SEED) as armed:
            db = make_db()
            engine = make_engine("selection_cracking", db)
            baseline = PlainEngine(db)
            query = query_for(3_000)
            got = engine.run(query)
            assert got.fault_recovered
            want = baseline.run(query)
            assert np.array_equal(
                np.sort(got.columns["B"]), np.sort(want.columns["B"])
            )
            # The next query runs on rebuilt structures, without recovery.
            again = engine.run(query_for(5_000))
            assert not again.fault_recovered
        assert armed.plan.injected == ["kernels.crack_two@1=error"]

    def test_arena_oom_recovers_like_any_fault(self):
        with Checks(faults="arena.alloc=oom").armed(seed=SEED) as armed:
            db = make_db()
            engine = make_engine("selection_cracking", db)
            baseline = PlainEngine(db)
            query = query_for(3_000)
            got = engine.run(query)
            want = baseline.run(query)
            assert np.array_equal(
                np.sort(got.columns["B"]), np.sort(want.columns["B"])
            )
            # ArenaPressure is a MemoryError: it leaves the kernel, the
            # journal rolls back, and the engine heals and answers through
            # a scan.
            assert got.fault_recovered
            assert armed.plan.injected == ["arena.alloc@1=oom"]
            # The spec is spent: the next query cracks without recovery.
            again = engine.run(query_for(5_000))
            assert not again.fault_recovered
        assert armed.plan.injected == ["arena.alloc@1=oom"]

    def test_faults_off_exceptions_propagate(self, db):
        engine = make_engine("sideways", db)
        engine.run(query_for(3_000))
        mapset = next(iter(db._sideways["R"].sets.values()))
        original = mapset.align

        def boom(*args, **kwargs):
            raise InjectedFault("mapset.align", 1, "error")

        mapset.align = boom
        try:
            with pytest.raises(InjectedFault):
                engine.run(query_for(5_000))  # no plan: no silent fallback
        finally:
            mapset.align = original

    def test_heal_faults_drops_quarantined_structures(self):
        db = make_db()
        engine = make_engine("sideways", db)
        engine.run(query_for(3_000))
        mapset = next(iter(db._sideways["R"].sets.values()))
        quarantine(mapset, "test damage")
        healed = db.heal_faults()
        assert healed == ["mapset[R.B]"] or healed == ["mapset[R.A]"]
        assert not db._sideways["R"].sets
        # The next query lazily rebuilds the set and answers correctly.
        got = engine.run(query_for(3_000))
        want = PlainEngine(db).run(query_for(3_000))
        assert np.array_equal(
            np.sort(got.columns["B"]), np.sort(want.columns["B"])
        )

    def test_heal_faults_detects_unflagged_corruption(self):
        db = make_db()
        engine = make_engine("selection_cracking", db)
        engine.run(query_for(3_000))
        column = db._crackers[("R", "A")]
        column.head[len(column.head) // 2] ^= 0x5A  # silent in-place damage
        healed = db.heal_faults()
        assert healed == ["cracker_column[R.A]"]
        assert ("R", "A") not in db._crackers


# -- single-fault soundness (chaos matrix) --------------------------------------


SMOKE_CELLS = (
    ("kernels.crack_two", "error", "selection_cracking"),
    ("mapset.align", "error", "sideways"),
    ("tape.append", "error", "sideways"),
    ("chunkmap.fetch", "corrupt", "partial_sideways"),
    ("ripple.merge_insertions", "error", "selection_cracking"),
)


def _soundness_cell(site, kind, engine_name):
    with Checks(faults=f"{site}={kind}").armed(seed=SEED):
        db = make_db()
        engine = make_engine(engine_name, db)
        baseline = PlainEngine(db)
        run_workload(engine, baseline, db)
        # Whatever happened, no live structure may remain broken.
        assert db.heal_faults() == []


@pytest.mark.parametrize("site,kind,engine_name", SMOKE_CELLS)
def test_single_fault_soundness_smoke(site, kind, engine_name):
    _soundness_cell(site, kind, engine_name)


@pytest.mark.slow
@pytest.mark.parametrize("engine_name", ENGINES)
@pytest.mark.parametrize("site", SITES)
def test_single_fault_soundness_error(site, engine_name):
    _soundness_cell(site, "error", engine_name)


@pytest.mark.slow
@pytest.mark.parametrize("engine_name", ENGINES)
@pytest.mark.parametrize("site", sorted(PAYLOAD_SITES))
def test_single_fault_soundness_corrupt(site, engine_name):
    _soundness_cell(site, "corrupt", engine_name)


@pytest.mark.slow
@pytest.mark.parametrize("engine_name", ENGINES)
def test_single_fault_soundness_under_deep_sanitize(engine_name):
    """Recovery and CrackSan deep sweeps coexist (quarantine is skipped)."""
    checks = Checks(faults="kernels.crack_two=corrupt", sanitize="deep")
    with checks.armed(seed=SEED) as armed:
        db = make_db()
        engine = make_engine(engine_name, db)
        baseline = PlainEngine(db)
        run_workload(engine, baseline, db)
        assert db.heal_faults() == []
    assert armed.sanitizer.violations == []
