"""The ``auto`` crack policy: workload monitoring and selection boundaries."""

import numpy as np
import pytest

from repro.cracking.adaptive import AdaptivePolicy
from repro.cracking.bounds import Interval
from repro.cracking.column import CrackerColumn
from repro.cracking.index import CrackerIndex
from repro.cracking.progressive import ProgressiveBudget
from repro.cracking.stochastic import POLICY_NAMES, resolve_policy
from repro.stats.counters import StatsRecorder
from repro.storage.bat import BAT
from repro.workloads.synthetic import ADVERSARIAL_PATTERNS, adversarial_intervals


class TestResolution:
    def test_auto_is_a_registered_policy_name(self):
        assert "auto" in POLICY_NAMES

    @pytest.mark.parametrize("name", ["auto", "AUTO"])
    def test_resolve_returns_adaptive(self, name):
        policy = resolve_policy(name)
        assert isinstance(policy, AdaptivePolicy)
        assert policy.name == "auto"

    def test_min_piece_passthrough(self):
        policy = resolve_policy("auto", min_piece=128)
        assert policy.min_piece == 128
        assert policy._mdd1r.min_piece == 128

    def test_describe_names_both_arms(self):
        text = resolve_policy("auto").describe()
        assert "mdd1r" in text and "query-driven" in text


def _observe_values(policy, index, values, n=10_000):
    for v in values:
        bound = Interval.open(v, v + 1).lower_bound()
        policy.observe(index, bound, 0, n, n)


class TestDecisionBoundaries:
    def test_warmup_defaults_to_adversarial(self):
        policy = AdaptivePolicy(warmup=4)
        index = CrackerIndex()
        _observe_values(policy, index, [100, 5_000, 9_000])
        # Three observations < warmup: the free random cut is insurance.
        assert policy._adversarial(index, 0, 10_000, n=10_000)

    def test_clustered_bounds_trigger_mdd1r(self):
        policy = AdaptivePolicy()
        index = CrackerIndex()
        # A sequential sweep: consecutive bounds a tiny step apart.
        _observe_values(policy, index, [1_000 + 10 * i for i in range(8)])
        assert policy._adversarial(index, 0, 200, n=10_000)

    def test_identical_bounds_trigger_mdd1r(self):
        policy = AdaptivePolicy()
        index = CrackerIndex()
        _observe_values(policy, index, [5_000] * 8)
        assert policy._adversarial(index, 0, 200, n=10_000)

    def test_spread_bounds_on_converged_piece_stay_query_driven(self):
        policy = AdaptivePolicy()
        index = CrackerIndex()
        # Bounds jump across the whole domain: median delta ~ the span.
        _observe_values(policy, index, [100, 9_000, 2_500, 7_000, 4_800,
                                        600, 8_200, 3_300])
        # A small enclosing piece (the steady state a spread workload of
        # this length produces) does not look adversarial.
        assert not policy._adversarial(index, 0, 200, n=10_000)

    def test_spread_bounds_on_bloated_piece_trigger_mdd1r(self):
        policy = AdaptivePolicy(min_piece=64)
        index = CrackerIndex()
        _observe_values(policy, index, [100, 9_000, 2_500, 7_000, 4_800,
                                        600, 8_200, 3_300], n=100_000)
        # Same healthy workload, but this crack hits a piece far larger
        # than the steady state (and the min-piece floor): the
        # non-convergence insurance kicks in.
        assert policy._adversarial(index, 0, 100_000, n=100_000)
        assert not policy._adversarial(index, 0, 200, n=100_000)

    def test_monitors_are_per_structure(self):
        policy = AdaptivePolicy()
        clustered, spread = CrackerIndex(), CrackerIndex()
        _observe_values(policy, clustered, [1_000 + 5 * i for i in range(8)])
        _observe_values(policy, spread, [100, 9_000, 2_500, 7_000, 4_800,
                                         600, 8_200, 3_300])
        assert policy._adversarial(clustered, 0, 200, n=10_000)
        assert not policy._adversarial(spread, 0, 200, n=10_000)


def _run_workload(policy, values, intervals):
    recorder = StatsRecorder()
    column = CrackerColumn(
        BAT.from_values(values), recorder=recorder,
        policy=policy, rng=np.random.default_rng(17),
    )
    for iv in intervals:
        keys = column.select(iv)
        assert np.array_equal(np.sort(keys), np.flatnonzero(iv.mask(values)))
    column.check_invariants(deep=True)
    return recorder.root.total_touches


class TestEndToEnd:
    """Selection behaviour on the exp14 adversarial generators."""

    @pytest.mark.parametrize("pattern", ADVERSARIAL_PATTERNS)
    def test_adversarial_patterns_engage_mdd1r_and_stay_competitive(
        self, rng, pattern
    ):
        values = rng.integers(1, 30_001, size=4_000).astype(np.int64)
        intervals = adversarial_intervals(pattern, 30_000, 40, 0.01, seed=21)
        policy = resolve_policy("auto", min_piece=256)
        auto_touches = _run_workload(policy, values, intervals)
        # The stochastic arm must have engaged on the big unconverged pieces
        # (cracks behind a sweep front land in small pieces and are cheap
        # query-driven cuts — a high mdd1r *ratio* is not the goal).
        assert policy.decisions["mdd1r"] > 0
        # The acceptance property at test scale: never meaningfully worse
        # than plain query-driven cracking on the pattern built to defeat it.
        qd_touches = _run_workload(None, values, intervals)
        assert auto_touches <= 1.1 * qd_touches

    def test_random_workload_routes_to_query_driven(self, rng):
        values = rng.integers(1, 30_001, size=4_000).astype(np.int64)
        policy = resolve_policy("auto", min_piece=256)
        intervals = []
        for _ in range(60):
            lo = int(rng.integers(1, 28_000))
            intervals.append(Interval.open(lo, lo + 300))
        _run_workload(policy, values, intervals)
        # Once the monitor warms up and pieces converge, the cheap arm wins.
        assert policy.decisions["query_driven"] > policy.decisions["mdd1r"]

    def test_auto_composes_with_a_budget(self, rng):
        values = rng.integers(1, 30_001, size=4_000).astype(np.int64)
        column = CrackerColumn(
            BAT.from_values(values),
            policy=resolve_policy("auto", min_piece=256),
            rng=np.random.default_rng(23),
            budget=ProgressiveBudget(elements=150),
        )
        for iv in adversarial_intervals("sequential", 30_000, 40, 0.01, seed=29):
            keys = column.select(iv)
            assert np.array_equal(np.sort(keys), np.flatnonzero(iv.mask(values)))
        column.check_invariants(deep=True)
        column.finish_pending_cracks()
        column.check_invariants(deep=True)
