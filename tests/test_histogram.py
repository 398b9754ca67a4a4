"""Cracker indices as self-organizing histograms."""

import numpy as np

from repro.core.histogram import estimate_result_size
from repro.cracking.bounds import Interval
from repro.cracking.crack import crack_into
from repro.cracking.index import CrackerIndex


def build(rng, n=2_000, domain=10_000, cracks=6):
    values = rng.integers(0, domain, size=n).astype(np.int64)
    head = values.copy()
    index = CrackerIndex()
    for _ in range(cracks):
        lo = int(rng.integers(0, domain - 1_000))
        crack_into(index, head, [], Interval.open(lo, lo + 1_000))
    return values, head, index


class TestEstimates:
    def test_exact_when_bounds_exist(self, rng):
        values, head, index = build(rng)
        iv = Interval.open(3_000, 4_000)
        crack_into(index, head, [], iv)
        est = estimate_result_size(index, len(head), iv, 0, 10_000)
        assert est.exact
        assert est.value == est.low == est.high == int(iv.mask(values).sum())

    def test_bounds_bracket_truth(self, rng):
        values, head, index = build(rng)
        for _ in range(20):
            lo = int(rng.integers(0, 9_000))
            iv = Interval.open(lo, lo + 800)
            est = estimate_result_size(index, len(head), iv, 0, 10_000)
            truth = int(iv.mask(values).sum())
            assert est.low <= truth <= est.high
            assert est.low <= est.value <= est.high

    def test_interpolation_beats_worst_case(self, rng):
        values, head, index = build(rng, cracks=2)
        iv = Interval.open(2_500, 2_600)
        est = estimate_result_size(index, len(head), iv, 0, 10_000)
        truth = int(iv.mask(values).sum())
        worst = max(abs(truth - est.low), abs(truth - est.high))
        assert abs(truth - est.value) <= worst

    def test_empty_index_uses_domain_interpolation(self):
        index = CrackerIndex()
        est = estimate_result_size(index, 1_000, Interval.open(0, 5_000), 0, 10_000)
        assert 0 <= est.value <= 1_000
        assert est.low == 0
        assert est.high == 1_000

    def test_unbounded_interval(self, rng):
        values, head, index = build(rng)
        est = estimate_result_size(index, len(head), Interval(), 0, 10_000)
        assert est.exact
        assert est.value == len(head)

    def test_estimates_sharpen_with_more_cracks(self, rng):
        values = rng.integers(0, 10_000, size=2_000).astype(np.int64)
        head = values.copy()
        index = CrackerIndex()
        iv = Interval.open(4_200, 4_700)
        errors = []
        for step in range(6):
            est = estimate_result_size(index, len(head), iv, 0, 10_000)
            truth = int(iv.mask(values).sum())
            errors.append(est.high - est.low)
            lo = 1_000 * step
            crack_into(index, head, [], Interval.open(lo, lo + 700))
        assert errors[-1] <= errors[0]
