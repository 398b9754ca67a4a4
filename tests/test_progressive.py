"""Progressive cracking: budgets, pending cracks, resume equivalence."""

import numpy as np
import pytest

from repro.cracking.bounds import Bound, Interval, Side
from repro.cracking.column import CrackerColumn
from repro.cracking.index import CrackerIndex
from repro.cracking.progressive import (
    BudgetTracker,
    PendingCrack,
    ProgressiveBudget,
    parse_budget,
    progressive_step,
    resolve_area,
)
from repro.cracking.stochastic import resolve_policy
from repro.core.mapset import MapSet
from repro.errors import PlanError
from repro.stats.counters import StatsRecorder
from repro.storage.bat import BAT
from repro.storage.relation import Relation
from repro.workloads.synthetic import adversarial_intervals


class TestBudgetSpec:
    def test_parse_fraction_and_elements(self):
        assert parse_budget(0.05) == ProgressiveBudget(fraction=0.05)
        assert parse_budget(50_000) == ProgressiveBudget(elements=50_000)
        assert parse_budget("0.25") == ProgressiveBudget(fraction=0.25)
        assert parse_budget("512") == ProgressiveBudget(elements=512)

    def test_parse_passthrough(self):
        budget = ProgressiveBudget(elements=10)
        assert parse_budget(budget) is budget
        assert parse_budget(None) is None

    @pytest.mark.parametrize("bad", [0, -1, -0.5, "nonsense"])
    def test_parse_rejects(self, bad):
        with pytest.raises(PlanError):
            parse_budget(bad)

    def test_per_query_allowance(self):
        assert ProgressiveBudget(fraction=0.1).per_query(1_000) == 100
        assert ProgressiveBudget(elements=64).per_query(1_000_000) == 64
        # The allowance never rounds down to zero: every query progresses.
        assert ProgressiveBudget(fraction=0.001).per_query(10) == 1

    def test_tracker_accounting(self):
        tracker = BudgetTracker(ProgressiveBudget(elements=100))
        tracker.begin_query(1_000)
        assert tracker.remaining() == 100
        tracker.consume(30)
        tracker.consume(30)
        assert tracker.remaining() == 40
        assert tracker.spent_last_query == 60
        tracker.begin_query(1_000)
        assert tracker.remaining() == 100


class TestProgressiveStep:
    def test_step_narrows_and_classifies(self, rng):
        head = rng.integers(0, 10_000, size=2_000).astype(np.int64)
        keys = np.arange(2_000, dtype=np.int64)
        bound = Bound(5_000.0, Side.LE)
        p = PendingCrack(bound, 0, 2_000, 0, 2_000)
        total = 0
        while not p.done:
            touched = progressive_step(head, [keys], p, 64)
            assert touched <= 2 * 64
            total += touched
            assert 0 <= p.left <= p.right <= 2_000
            # The classified prefix/suffix are final the moment they form.
            assert np.all(head[: p.left] < 5_000)
            assert np.all(head[p.right:] >= 5_000)
        assert p.left == int((head < 5_000).sum())
        assert total <= 2 * 2_000

    def test_step_keeps_key_pairing(self, rng):
        values = rng.integers(0, 10_000, size=500).astype(np.int64)
        head = values.copy()
        keys = np.arange(500, dtype=np.int64)
        p = PendingCrack(Bound(4_000.0, Side.LE), 0, 500, 0, 500)
        while not p.done:
            progressive_step(head, [keys], p, 17)
        assert np.array_equal(values[keys], head)


class TestResolveArea:
    #: Both bounds of this interval are pre-registered boundaries.
    IV = Interval.open(100, 900)

    def _index(self, n=1_000):
        index = CrackerIndex()
        index.insert(self.IV.lower_bound(), 200)
        index.insert(self.IV.upper_bound(), 800)
        return index

    def test_no_pending_no_holes(self):
        index = self._index()
        lo, hi, holes = resolve_area(index, 1_000, self.IV, {})
        assert (lo, hi) == (200, 800)
        assert holes == []

    def test_in_flight_bound_holes_its_window(self):
        index = self._index()
        bound = Interval.open(100, 500).upper_bound()
        pending = {bound: PendingCrack(bound, 200, 800, 350, 600)}
        lo, hi, holes = resolve_area(
            index, 1_000, Interval.open(100, 500), pending
        )
        assert (lo, hi) == (200, 350)
        assert holes == [(350, 600)]

    def test_unstarted_bound_holes_whole_piece(self):
        index = self._index()
        _, _, holes = resolve_area(
            index, 1_000, Interval.open(100, 500), {}
        )
        assert holes == [(200, 800)]


def _oracle(values, interval):
    return np.flatnonzero(interval.mask(values))


class TestPartialPlusResumeEqualsFullCrack:
    """The tentpole property: budgeted cracking converges to the eager state."""

    @pytest.mark.parametrize("pattern", ["sequential", "zoom_in", "random"])
    @pytest.mark.parametrize("budget", [ProgressiveBudget(elements=150),
                                        ProgressiveBudget(fraction=0.05)])
    def test_boundaries_and_multisets_converge(self, rng, pattern, budget):
        values = rng.integers(1, 30_001, size=3_000).astype(np.int64)
        eager = CrackerColumn(BAT.from_values(values))
        budgeted = CrackerColumn(BAT.from_values(values), budget=budget)
        if pattern == "random":
            intervals = []
            for _ in range(25):
                lo = int(rng.integers(1, 28_000))
                intervals.append(Interval.open(lo, lo + 500))
        else:
            intervals = adversarial_intervals(pattern, 30_000, 25, 0.02, seed=7)
        for iv in intervals:
            expected = _oracle(values, iv)
            assert np.array_equal(np.sort(eager.select(iv)), expected)
            # Exactness during the transient: holes are filtered by value.
            assert np.array_equal(np.sort(budgeted.select(iv)), expected)
        # Resume everything still in flight.  A piece holds at most one
        # pending at a time, so under a tight budget many bounds are never
        # cracked at all (their queries were answered through holes) — the
        # budgeted boundary set is a *subset* of the eager one.  Every bound
        # that did complete must sit at the eager position, and the pieces it
        # delimits must hold the eager multisets.
        budgeted.finish_pending_cracks()
        assert not budgeted.pending_cracks
        budget_cuts = list(budgeted.index.inorder())
        assert budget_cuts  # the workload cracked something
        for bound, pos in budget_cuts:
            assert eager.index.position_of(bound) == pos
        edges = [0] + [pos for _, pos in budget_cuts] + [len(values)]
        for lo, hi in zip(edges, edges[1:]):
            assert np.array_equal(np.sort(eager.head[lo:hi]),
                                  np.sort(budgeted.head[lo:hi]))
            assert np.array_equal(np.sort(eager.keys[lo:hi]),
                                  np.sort(budgeted.keys[lo:hi]))
        eager.check_invariants(deep=True)
        budgeted.check_invariants(deep=True)

    def test_single_bound_resume_equals_one_full_crack(self, rng):
        """Partial crack + resumes land bit-for-bit where one eager crack does
        (same boundary positions and per-piece multisets)."""
        values = rng.integers(1, 30_001, size=3_000).astype(np.int64)
        iv = Interval.open(10_000, 18_000)
        eager = CrackerColumn(BAT.from_values(values))
        eager.select(iv)
        budgeted = CrackerColumn(
            BAT.from_values(values), budget=ProgressiveBudget(elements=100)
        )
        rounds = 0
        while True:
            assert np.array_equal(np.sort(budgeted.select(iv)), _oracle(values, iv))
            rounds += 1
            if not budgeted.pending_cracks and all(
                budgeted.index.position_of(b) is not None
                for b in (iv.lower_bound(), iv.upper_bound())
            ):
                break
            assert rounds < 200  # progress every round
        assert rounds > 1  # the budget actually forced a multi-query resume
        eager_cuts = list(eager.index.inorder())
        assert eager_cuts == list(budgeted.index.inorder())
        edges = [0] + [pos for _, pos in eager_cuts] + [len(values)]
        for lo, hi in zip(edges, edges[1:]):
            assert np.array_equal(np.sort(eager.head[lo:hi]),
                                  np.sort(budgeted.head[lo:hi]))
        eager.check_invariants(deep=True)
        budgeted.check_invariants(deep=True)

    def test_per_query_writes_stay_under_cap(self):
        rng = np.random.default_rng(99)
        values = rng.integers(1, 50_001, size=5_000).astype(np.int64)
        recorder = StatsRecorder()
        budget = ProgressiveBudget(elements=200)
        column = CrackerColumn(
            BAT.from_values(values), recorder=recorder, budget=budget
        )
        cap = 2 * budget.per_query(len(values)) * 2  # 2k per array, 2 arrays
        for iv in adversarial_intervals("sequential", 50_000, 30, 0.01, seed=3):
            with recorder.frame() as stats:
                column.select(iv)
            assert stats.writes <= cap
        column.check_invariants(deep=True)

    def test_select_area_force_finishes(self, rng):
        values = rng.integers(1, 30_001, size=3_000).astype(np.int64)
        column = CrackerColumn(
            BAT.from_values(values), budget=ProgressiveBudget(elements=50)
        )
        column.select(Interval.open(10_000, 11_000))
        assert column.pending_cracks  # the budget is far too small to finish
        lo, hi = column.select_area(Interval.open(10_000, 11_000))
        # The contiguous-area contract admits no holes for these bounds.
        assert hi - lo == int(Interval.open(10_000, 11_000).mask(values).sum())
        assert np.array_equal(
            np.sort(column.keys[lo:hi]),
            _oracle(values, Interval.open(10_000, 11_000)),
        )

    def test_updates_force_finish_in_flight_cracks(self, rng):
        values = rng.integers(1, 30_001, size=3_000).astype(np.int64)
        column = CrackerColumn(
            BAT.from_values(values), budget=ProgressiveBudget(elements=50)
        )
        column.select(Interval.open(10_000, 11_000))
        assert column.pending_cracks
        column.add_insertions(np.array([10_500]), np.array([len(values)]))
        keys = column.select(Interval.open(10_000, 11_000))
        assert len(values) in keys  # the insert is visible
        column.check_invariants(deep=True)

    def test_stochastic_budgeted_column_stays_exact(self, rng):
        values = rng.integers(1, 30_001, size=3_000).astype(np.int64)
        column = CrackerColumn(
            BAT.from_values(values),
            policy=resolve_policy("mdd1r"),
            rng=np.random.default_rng(11),
            budget=ProgressiveBudget(elements=120),
        )
        for iv in adversarial_intervals("sequential", 30_000, 30, 0.02, seed=5):
            assert np.array_equal(np.sort(column.select(iv)), _oracle(values, iv))
        # The follow-up cuts of completed pendings queue further pendings in
        # the large remnants — the mechanism that lets budgeted MDD1R
        # converge — and every one of them must satisfy the catalog.
        column.check_invariants(deep=True)
        column.finish_pending_cracks()
        column.check_invariants(deep=True)


class TestMapSetBudget:
    """Gang replay under a budget: one budget per query, identical siblings."""

    def _relation(self, rng, n=2_000):
        return Relation.from_arrays(
            "R",
            {c: rng.integers(0, 10_000, size=n).astype(np.int64) for c in "ABC"},
        )

    def test_leader_and_follower_agree_on_windows_and_holes(self, rng):
        rel = self._relation(rng)
        mapset = MapSet(rel, "A")
        mapset.set_budget(ProgressiveBudget(elements=100))
        for iv in adversarial_intervals("sequential", 10_000, 12, 0.05, seed=9):
            map_b, lo_b, hi_b, holes_b = mapset.select_window("B", iv)
            map_c, lo_c, hi_c, holes_c = mapset.window_of("C", iv)
            assert (lo_b, hi_b) == (lo_c, hi_c)
            assert holes_b == holes_c
            assert np.array_equal(map_b.head, map_c.head)
        mapset.check_invariants(deep=True)

    def test_late_map_replays_partial_tape(self, rng):
        rel = self._relation(rng)
        mapset = MapSet(rel, "A")
        mapset.set_budget(ProgressiveBudget(elements=100))
        for iv in adversarial_intervals("sequential", 10_000, 10, 0.05, seed=9):
            mapset.select_window("B", iv)
        # C's map is created now: it replays the whole tape — including the
        # ProgressiveCrackEntry records — and lands in B's exact state, with
        # the same cracks still open.
        map_b = mapset.get_map("B", align=True)
        map_c = mapset.get_map("C", align=True)
        assert np.array_equal(map_b.head, map_c.head)
        assert set(map_b.pending_cracks) == set(map_c.pending_cracks)
        for bound, p in map_b.pending_cracks.items():
            q = map_c.pending_cracks[bound]
            assert (p.lo, p.hi, p.left, p.right) == (q.lo, q.hi, q.left, q.right)
        mapset.check_invariants(deep=True)

    def test_budgeted_select_results_exact(self, rng):
        rel = self._relation(rng)
        mapset = MapSet(rel, "A")
        mapset.set_budget(ProgressiveBudget(fraction=0.05))
        a, b = rel.values("A"), rel.values("B")
        for iv in adversarial_intervals("zoom_in", 10_000, 12, 0.05, seed=13):
            cmap, lo, hi, holes = mapset.select_window("B", iv)
            got = list(cmap.tail[lo:hi])
            for h_lo, h_hi in holes:
                mask = iv.mask(cmap.head[h_lo:h_hi])
                got.extend(cmap.tail[h_lo:h_hi][mask])
            assert sorted(got) == sorted(b[iv.mask(a)].tolist())
        mapset.check_invariants(deep=True)
