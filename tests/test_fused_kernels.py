"""Golden-permutation tests of the crack kernels against their specification,
arena reuse/resize behavior, progressive-step properties, and gang replay
equivalence."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.map import CrackerMap
from repro.core.mapset import MapSet
from repro.cracking.arena import KernelArena, default_arena
from repro.cracking.bounds import Bound, Interval, Side
from repro.cracking.crack import gang_replay_crack, gang_replay_sort
from repro.cracking.kernels import (
    crack_three,
    crack_two,
    progressive_step_kernel,
    sort_piece,
)
from repro.errors import CrackError
from repro.stats.counters import StatsRecorder
from repro.storage.relation import Relation


@pytest.fixture
def rng():
    return np.random.default_rng(7)


def _arrays(rng, n, lo=0, hi=1000):
    head = rng.integers(lo, hi, size=n).astype(np.int64)
    keys = np.arange(n, dtype=np.int64)
    tail = rng.integers(0, 10**6, size=n).astype(np.int64)
    return head, keys, tail


def _spec_partition(arrays, lo, hi, group_id):
    """The reference every kernel must equal: a stable partition of
    ``[lo, hi)`` gathers every array through a stable argsort of group ids."""
    order = np.argsort(group_id, kind="stable")
    for arr in arrays:
        arr[lo:hi] = arr[lo:hi][order]


def _spec_crack_two(arrays, lo, hi, bound):
    below = bound.below_mask(arrays[0][lo:hi])
    _spec_partition(arrays, lo, hi, ~below)
    return lo + int(below.sum())


def _spec_crack_three(arrays, lo, hi, lower, upper):
    seg = arrays[0][lo:hi]
    group = np.where(lower.below_mask(seg), 0, np.where(upper.below_mask(seg), 1, 2))
    _spec_partition(arrays, lo, hi, group)
    return lo + int((group == 0).sum()), lo + int((group <= 1).sum())


# -- golden equivalence -----------------------------------------------------------


BOUNDS = [
    Bound(500, Side.LT),
    Bound(500, Side.LE),
    Bound(500.5, Side.LT),     # non-integral pivot exercises the int fast path
    Bound(-1, Side.LT),        # all-above
    Bound(10**9, Side.LE),     # all-below
    Bound(0, Side.LT),         # empty below side
]


@pytest.mark.parametrize("bound", BOUNDS, ids=repr)
@pytest.mark.parametrize("n", [0, 1, 2, 257, 5000])
def test_crack_two_matches_reference(rng, bound, n):
    head, keys, tail = _arrays(rng, n)
    spec = [head.copy(), keys.copy(), tail.copy()]
    split_spec = _spec_crack_two(spec, 0, n, bound)
    split = crack_two(head, [keys, tail], 0, n, bound)
    assert split == split_spec
    assert np.array_equal(head, spec[0])
    assert np.array_equal(keys, spec[1])
    assert np.array_equal(tail, spec[2])


@pytest.mark.parametrize(
    "lower,upper",
    [
        (Bound(200, Side.LE), Bound(700, Side.LT)),
        (Bound(200, Side.LT), Bound(200, Side.LE)),   # point range
        (Bound(-5, Side.LT), Bound(-1, Side.LT)),     # fully below the data
        (Bound(10**8, Side.LE), Bound(10**9, Side.LE)),  # fully above
        (Bound(-1, Side.LT), Bound(10**9, Side.LE)),  # everything in the middle
        (Bound(250.5, Side.LT), Bound(749.5, Side.LE)),  # non-integral pivots
    ],
    ids=str,
)
@pytest.mark.parametrize("n", [0, 3, 1000])
def test_crack_three_matches_reference(rng, lower, upper, n):
    head, keys, tail = _arrays(rng, n)
    spec = [head.copy(), keys.copy(), tail.copy()]
    p_spec = _spec_crack_three(spec, 0, n, lower, upper)
    p = crack_three(head, [keys, tail], 0, n, lower, upper)
    assert p == p_spec
    assert np.array_equal(head, spec[0])
    assert np.array_equal(keys, spec[1])
    assert np.array_equal(tail, spec[2])


@pytest.mark.parametrize("n", [0, 1, 257, 5000])
def test_sort_piece_matches_reference(rng, n):
    head, keys, tail = _arrays(rng, n)
    lo, hi = n // 8, n - n // 8
    spec = [head.copy(), keys.copy(), tail.copy()]
    _spec_partition(spec, lo, hi, spec[0][lo:hi])
    sort_piece(head, [keys, tail], lo, hi)
    assert np.array_equal(head, spec[0])
    assert np.array_equal(keys, spec[1])
    assert np.array_equal(tail, spec[2])


def test_subrange_and_float_dtype_match(rng):
    n = 4000
    head = rng.normal(size=n)  # float payload skips the int fast path
    keys = np.arange(n, dtype=np.int64)
    bound = Bound(0.25, Side.LE)
    spec = [head.copy(), keys.copy()]
    split_spec = _spec_crack_two(spec, 1000, 3000, bound)
    h, k = head.copy(), keys.copy()
    split = crack_two(h, [k], 1000, 3000, bound)
    assert split == split_spec
    assert np.array_equal(h, spec[0])
    assert np.array_equal(k, spec[1])
    # Outside the subrange nothing moved.
    assert np.array_equal(h[:1000], head[:1000])
    assert np.array_equal(h[3000:], head[3000:])


def test_multi_tail_gang_equivalence(rng):
    """One call over 2k arrays == k independent crack_twos == the spec."""
    n = 3000
    head, keys, _ = _arrays(rng, n)
    bound = Bound(500, Side.LT)
    pairs = [(head.copy(), keys.copy()) for _ in range(4)]
    for h, k in pairs:
        crack_two(h, [k], 0, n, bound)
    spec = [head.copy(), keys.copy()]
    _spec_crack_two(spec, 0, n, bound)
    assert np.array_equal(pairs[0][0], spec[0])
    assert np.array_equal(pairs[0][1], spec[1])
    gang_head, gang_keys = head.copy(), keys.copy()
    extra = [arr for _ in range(3) for arr in (head.copy(), keys.copy())]
    crack_two(gang_head, [gang_keys, *extra], 0, n, bound)
    assert np.array_equal(gang_head, pairs[0][0])
    assert np.array_equal(gang_keys, pairs[0][1])
    for i in range(3):
        assert np.array_equal(extra[2 * i], pairs[i + 1][0])
        assert np.array_equal(extra[2 * i + 1], pairs[i + 1][1])


def test_fused_raises_like_reference(rng):
    head, keys, _ = _arrays(rng, 10)
    with pytest.raises(CrackError):
        crack_two(head, [keys], 5, 20, Bound(1, Side.LT))
    with pytest.raises(CrackError):
        crack_three(
            head, [keys], 0, 10, Bound(9, Side.LT), Bound(1, Side.LT)
        )


# -- progressive step -------------------------------------------------------------


STEP_BOUNDS = [Bound(500, Side.LT), Bound(499, Side.LE), Bound(499.5, Side.LT)]


@st.composite
def _step_inputs(draw):
    """A window ``[left, right)`` whose first ``k`` elements hold exactly
    ``na`` aboves, shaped to land in the named branch of the step kernel."""
    branch = draw(st.sampled_from(["final", "overlap", "disjoint"]))
    if branch == "final":
        m = draw(st.integers(1, 40))
        k = m
        na = draw(st.integers(1, k))
    elif branch == "overlap":
        m = draw(st.integers(3, 40))
        k = draw(st.integers(m // 2 + 1, m - 1))
        na = draw(st.integers(m - k + 1, k))
    else:
        m = draw(st.integers(2, 40))
        k = draw(st.integers(1, m - 1))
        na = draw(st.integers(1, min(k, m - k)))
    above = draw(st.permutations([True] * na + [False] * (k - na)))
    pad = (draw(st.integers(0, 5)), draw(st.integers(0, 5)))
    seed = draw(st.integers(0, 2**32 - 1))
    bound = draw(st.sampled_from(STEP_BOUNDS))
    return branch, m, k, np.array(above, dtype=bool), pad, seed, bound


def _step_arrays(m, k, above, pad, seed):
    rng = np.random.default_rng(seed)
    window = np.concatenate([
        np.where(above, rng.integers(500, 1000, size=k), rng.integers(0, 500, size=k)),
        rng.integers(0, 1000, size=m - k),
    ])
    head = np.concatenate([
        rng.integers(0, 1000, size=pad[0]), window, rng.integers(0, 1000, size=pad[1]),
    ]).astype(np.int64)
    return head, np.arange(len(head), dtype=np.int64), head * 0.5


@settings(max_examples=150, deadline=None)
@given(_step_inputs())
@example(("final", 4, 4, np.array([True, False, True, False]), (1, 2), 3, STEP_BOUNDS[0]))
@example(("overlap", 6, 4, np.array([True, True, False, True]), (0, 0), 5, STEP_BOUNDS[1]))
@example(("disjoint", 9, 3, np.array([False, True, False]), (2, 1), 8, STEP_BOUNDS[2]))
def test_progressive_step_kernel_properties(inputs):
    branch, m, k, above, pad, seed, bound = inputs
    head, keys, tail = _step_arrays(m, k, above, pad, seed)
    original = head.copy()
    left, right = pad[0], pad[0] + m
    na = int(above.sum())

    runs = []
    for _ in range(2):
        h, ky, t = head.copy(), keys.copy(), tail.copy()
        got = progressive_step_kernel(h, [ky, t], bound, left, right, k)
        runs.append((got, h, ky, t))
    (new_left, new_right, touched), h, ky, t = runs[0]

    # Each branch leaves its own signature.
    if branch == "final":
        assert new_left == new_right == left + (k - na) and touched == k
    elif branch == "overlap":
        assert (new_left, new_right, touched) == (left + k - na, right - na, m)
    else:
        assert (new_left, new_right, touched) == (left + k - na, right - na, k + na)
    assert left <= new_left <= new_right <= right
    assert bound.below_mask(h[left:new_left]).all()
    assert not bound.below_mask(h[new_right:right]).any()
    assert touched <= 2 * k
    # Only the window moved, and it is a permutation of itself.
    assert np.array_equal(h[:left], original[:left])
    assert np.array_equal(h[right:], original[right:])
    assert np.array_equal(np.sort(h[left:right]), np.sort(original[left:right]))
    # Exactly: the window's belows and aboves keep their order, and the run
    # past the window moves as one block (rotated when the aboves land
    # disjoint from the window).
    win, rest = original[left:left + k], original[left + k:right]
    below = bound.below_mask(win)
    middle = np.concatenate([rest[-na:], rest[:-na]]) if branch == "disjoint" else rest
    assert np.array_equal(h[left:right], np.concatenate([win[below], middle, win[~below]]))
    # Every tail still pairs with its head.
    assert np.array_equal(original[ky], h)
    assert np.array_equal(t, h * 0.5)
    # Deterministic: a second run on copies is bit-identical.
    got2, h2, ky2, t2 = runs[1]
    assert got2 == (new_left, new_right, touched)
    assert np.array_equal(h2, h) and np.array_equal(ky2, ky)
    assert np.array_equal(t2, t)


# -- arena ------------------------------------------------------------------------


def test_arena_reuse_and_resize():
    arena = KernelArena()
    m1 = arena.mask(100)
    assert len(m1) == 100 and arena.resizes == 1
    m2 = arena.mask(50)
    assert len(m2) == 50 and arena.resizes == 1  # shrink reuses the buffer
    assert m2.base is m1.base or m2.base is m1  # same backing storage
    arena.mask(150)  # grow: doubles from 100
    assert arena.resizes == 2
    assert arena.capacity()["mask"] == 200
    arena.mask(190)
    assert arena.resizes == 2  # within doubled capacity

    s1 = arena.scratch(np.int64, 64)
    s2 = arena.scratch(np.float64, 64)
    assert s1.dtype == np.int64 and s2.dtype == np.float64
    before = arena.resizes
    arena.scratch(np.int64, 32)
    assert arena.resizes == before  # per-dtype buffers are independent
    assert arena.peak_request == 190

    arena.clear()
    assert arena.capacity()["mask"] == 0


def test_arena_isolation_from_default(rng):
    head, keys, _ = _arrays(rng, 500)
    arena = KernelArena()
    before = default_arena().resizes
    crack_two(head, [keys], 0, 500, Bound(500, Side.LT), arena)
    assert arena.resizes > 0
    assert default_arena().resizes == before


# -- gang replay over real structures ---------------------------------------------


def _make_mapset(rng, n=1200):
    arrays = {
        c: rng.integers(0, 5000, size=n).astype(np.int64) for c in "ABC"
    }
    relation = Relation.from_arrays("R", arrays)
    return MapSet(relation, "A", recorder=StatsRecorder())


def test_gang_replay_crack_matches_individual_replay(rng):
    mapset = _make_mapset(rng)
    for lo in (100, 900, 2500, 1700):
        mapset.select("B", Interval.half_open(lo, lo + 300))
    # Two fresh maps at cursor 0: replay one individually, gang the other
    # against a third, and compare.
    solo = mapset.get_map("C")
    mapset.align(solo)

    fresh = mapset._snapshot_arrays("C")
    gang_members = [
        CrackerMap("A", f"g{i}", fresh[0].copy(), fresh[1].copy(),
                   lambda keys: np.asarray(keys), StatsRecorder())
        for i in range(3)
    ]
    for entry in mapset.tape.entries:
        gang_replay_crack(gang_members, entry.interval)
        for member in gang_members:
            member.cursor += 1
    for member in gang_members:
        assert np.array_equal(member.head, solo.head)
        assert np.array_equal(member.tail, solo.tail)
        assert [b for b, _ in member.index.inorder()] == [
            b for b, _ in solo.index.inorder()
        ]


def test_mapset_align_gangs_same_cursor_maps(rng):
    mapset = _make_mapset(rng)
    for lo in (200, 1400, 3100):
        mapset.select("B", Interval.half_open(lo, lo + 250))
    # Create two stale maps; both sit at cursor 0.
    c_map = mapset.get_map("C")
    key_map = mapset.get_map("@key")
    assert c_map.cursor == 0 and key_map.cursor == 0
    mapset.align(c_map)  # drags the same-cursor sibling along
    assert c_map.cursor == len(mapset.tape)
    assert key_map.cursor == len(mapset.tape)
    assert np.array_equal(c_map.head, mapset.get_map("B", align=True).head)
    assert np.array_equal(c_map.head, key_map.head)
    mapset.check_invariants(deep=True)


def test_gang_replay_sort_matches_individual(rng):
    n = 800
    head, keys, _ = _arrays(rng, n)
    solo_h, solo_k = head.copy(), keys.copy()
    sort_piece(solo_h, [solo_k], 100, 700)

    members = [
        CrackerMap("A", f"s{i}", head.copy(), keys.copy(),
                   lambda k: np.asarray(k), StatsRecorder())
        for i in range(3)
    ]
    gang_replay_sort(members, 100, 700, StatsRecorder())
    for member in members:
        assert np.array_equal(member.head, solo_h)
        assert np.array_equal(member.tail, solo_k)
