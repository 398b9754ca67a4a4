"""The shared crack_into routine against a mask oracle."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cracking.bounds import Interval
from repro.cracking.crack import crack_bound, crack_into
from repro.cracking.bounds import Bound, Side
from repro.cracking.index import CrackerIndex


def check_area(values, head, tails, interval, area):
    lo, hi = area
    assert np.array_equal(np.sort(head[lo:hi]), np.sort(values[interval.mask(values)]))


class TestCrackInto:
    def test_two_sided_fresh(self, rng):
        values = rng.integers(0, 1000, size=500).astype(np.int64)
        head = values.copy()
        index = CrackerIndex()
        iv = Interval.open(100, 600)
        area = crack_into(index, head, [], iv)
        check_area(values, head, [], iv, area)
        # crack-in-three: exactly two new boundaries
        assert len(index) == 2

    def test_one_sided(self, rng):
        values = rng.integers(0, 1000, size=300).astype(np.int64)
        head = values.copy()
        index = CrackerIndex()
        iv = Interval.at_least(500)
        lo, hi = crack_into(index, head, [], iv)
        assert hi == len(head)
        check_area(values, head, [], iv, (lo, hi))

    def test_reuse_existing_bounds_no_new_cracks(self, rng):
        values = rng.integers(0, 1000, size=300).astype(np.int64)
        head = values.copy()
        index = CrackerIndex()
        iv = Interval.open(200, 700)
        first = crack_into(index, head, [], iv)
        before = head.copy()
        second = crack_into(index, head, [], iv)
        assert first == second
        assert np.array_equal(before, head)

    def test_overlapping_intervals_accumulate_pieces(self, rng):
        values = rng.integers(0, 1000, size=400).astype(np.int64)
        head = values.copy()
        index = CrackerIndex()
        for iv in (Interval.open(100, 500), Interval.open(300, 800), Interval.open(50, 350)):
            area = crack_into(index, head, [], iv)
            check_area(values, head, [], iv, area)
        index.validate(len(head))

    def test_crack_bound_returns_position(self, rng):
        values = rng.integers(0, 100, size=200).astype(np.int64)
        head = values.copy()
        index = CrackerIndex()
        pos = crack_bound(index, head, [], Bound(50, Side.LT))
        assert pos == int((values < 50).sum())
        # Idempotent.
        assert crack_bound(index, head, [], Bound(50, Side.LT)) == pos


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    cuts=st.lists(
        st.tuples(st.integers(0, 200), st.integers(1, 60), st.booleans(), st.booleans()),
        min_size=1, max_size=12,
    ),
)
def test_random_interval_sequence_matches_oracle(seed, cuts):
    rng = np.random.default_rng(seed)
    values = rng.integers(0, 250, size=300).astype(np.int64)
    head = values.copy()
    tail = np.arange(300)
    index = CrackerIndex()
    for lo, width, lo_inc, hi_inc in cuts:
        iv = Interval(lo, lo + width, lo_inclusive=lo_inc, hi_inclusive=hi_inc)
        area = crack_into(index, head, [tail], iv)
        check_area(values, head, [tail], iv, area)
        # Tail stays consistent with head (same permutation).
        assert np.array_equal(values[tail], head)
    index.validate(len(head))
