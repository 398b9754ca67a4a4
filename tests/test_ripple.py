"""The vectorized Ripple merge."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cracking import ripple
from repro.cracking.bounds import Bound, Interval, Side
from repro.cracking.crack import crack_into
from repro.cracking.index import CrackerIndex
from repro.cracking.ripple import (
    delete_positions,
    locate_deletions,
    merge_insertions,
)
from repro.stats.counters import StatsRecorder


def cracked_state(rng, n=400, cracks=4):
    values = rng.integers(0, 1000, size=n).astype(np.int64)
    head = values.copy()
    keys = np.arange(n, dtype=np.int64)
    index = CrackerIndex()
    for _ in range(cracks):
        lo = int(rng.integers(0, 800))
        crack_into(index, head, [keys], Interval.open(lo, lo + 150))
    return head, keys, index


class TestPieceIds:
    def test_empty_index_single_piece(self):
        index = CrackerIndex()
        ids = index.piece_ids(np.array([1, 50, 999]))
        assert ids.tolist() == [0, 0, 0]

    def test_values_route_to_correct_piece(self, rng):
        head, keys, index = cracked_state(rng)
        probes = np.array([0, 100, 500, 999])
        ids = index.piece_ids(probes)
        pieces = list(index.pieces(len(head)))
        for probe, pid in zip(probes, ids):
            piece = pieces[pid]
            if piece.lo_bound is not None:
                assert not piece.lo_bound.below_mask(np.array([probe]))[0]
            if piece.hi_bound is not None:
                assert piece.hi_bound.below_mask(np.array([probe]))[0]


class TestMergeInsertions:
    def test_preserves_piece_invariants(self, rng):
        head, keys, index = cracked_state(rng)
        ins_vals = rng.integers(0, 1000, size=40).astype(np.int64)
        ins_keys = np.arange(10_000, 10_040, dtype=np.int64)
        head, tails = merge_insertions(index, head, [keys], ins_vals, [ins_keys])
        keys = tails[0]
        assert len(head) == 440
        index.validate(len(head))
        for piece in index.pieces(len(head)):
            seg = head[piece.lo_pos:piece.hi_pos]
            if piece.lo_bound is not None and len(seg):
                assert not piece.lo_bound.below_mask(seg).any()
            if piece.hi_bound is not None and len(seg):
                assert piece.hi_bound.below_mask(seg).all()

    def test_deterministic_placement(self, rng):
        head1, keys1, index1 = cracked_state(rng)
        rng2 = np.random.default_rng(1234)
        head2, keys2, index2 = cracked_state(rng2)
        assert np.array_equal(head1, head2)
        ins_vals = np.array([5, 500, 995, 500], dtype=np.int64)
        ins_keys = np.array([1000, 1001, 1002, 1003], dtype=np.int64)
        h1, t1 = merge_insertions(index1, head1, [keys1], ins_vals, [ins_keys])
        h2, t2 = merge_insertions(index2, head2, [keys2], ins_vals, [ins_keys])
        assert np.array_equal(h1, h2)
        assert np.array_equal(t1[0], t2[0])

    def test_empty_batch_noop(self, rng):
        head, keys, index = cracked_state(rng)
        h, t = merge_insertions(index, head, [keys],
                                np.empty(0, np.int64), [np.empty(0, np.int64)])
        assert h is head and t[0] is keys


class TestDeletions:
    def test_locate_and_delete(self, rng):
        head, keys, index = cracked_state(rng)
        victims = rng.choice(len(head), size=20, replace=False).astype(np.int64)
        victim_keys = keys[victims].copy()
        victim_values = head[victims].copy()
        positions = locate_deletions(index, head, keys, victim_values, victim_keys)
        assert np.array_equal(np.sort(keys[positions]), np.sort(victim_keys))
        head, tails = delete_positions(index, head, [keys], positions)
        keys = tails[0]
        assert len(head) == 380
        assert not np.isin(victim_keys, keys).any()
        index.validate(len(head))

    def test_delete_keeps_piece_invariants(self, rng):
        head, keys, index = cracked_state(rng)
        positions = np.arange(0, len(head), 10, dtype=np.int64)
        head, tails = delete_positions(index, head, [keys], positions)
        for piece in index.pieces(len(head)):
            seg = head[piece.lo_pos:piece.hi_pos]
            if piece.lo_bound is not None and len(seg):
                assert not piece.lo_bound.below_mask(seg).any()
            if piece.hi_bound is not None and len(seg):
                assert piece.hi_bound.below_mask(seg).all()


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 9999), batch=st.integers(1, 60))
def test_merge_then_select_matches_oracle(seed, batch):
    rng = np.random.default_rng(seed)
    values = rng.integers(0, 500, size=200).astype(np.int64)
    head = values.copy()
    keys = np.arange(200, dtype=np.int64)
    index = CrackerIndex()
    crack_into(index, head, [keys], Interval.open(100, 300))
    ins_vals = rng.integers(0, 500, size=batch).astype(np.int64)
    ins_keys = np.arange(1000, 1000 + batch, dtype=np.int64)
    head, tails = merge_insertions(index, head, [keys], ins_vals, [ins_keys])
    keys = tails[0]
    iv = Interval.open(100, 300)
    lo, hi = crack_into(index, head, [keys], iv)
    got = sorted(keys[lo:hi].tolist())
    all_vals = np.concatenate([values, ins_vals])
    all_keys = np.concatenate([np.arange(200), ins_keys])
    expected = sorted(all_keys[iv.mask(all_vals)].tolist())
    assert got == expected


# -- equivalence with a per-element reference ---------------------------------
#
# The bulk passes must return the arrays, leave the index positions and
# charge the recorder exactly as moving one row at a time would.  The domain
# is tiny on purpose: duplicates sit on LT/LE boundary pairs, neighbouring
# boundaries leave empty pieces, and batches hit position 0, position n-1
# and runs of adjacent rows.


def _ref_piece(bounds: list[Bound], value: int) -> int:
    for rank, bound in enumerate(bounds):
        if bound.below_mask(np.array([value]))[0]:
            return rank
    return len(bounds)


@st.composite
def cracked_states(draw):
    """``(head, keys, bounds, positions)`` of a consistently cracked array."""
    values = draw(st.lists(st.integers(0, 12), min_size=1, max_size=40))
    bounds = sorted(draw(st.sets(
        st.builds(Bound, st.integers(-1, 13), st.sampled_from([Side.LT, Side.LE])),
        max_size=8,
    )))
    pieces = [_ref_piece(bounds, v) for v in values]
    order = sorted(range(len(values)), key=pieces.__getitem__)
    head = np.array([values[i] for i in order], dtype=np.int64)
    keys = np.array(draw(st.permutations(range(100, 100 + len(values)))), dtype=np.int64)
    positions = [sum(p <= rank for p in pieces) for rank in range(len(bounds))]
    return head, keys, bounds, positions


def _index_of(bounds, positions) -> CrackerIndex:
    index = CrackerIndex()
    for bound, pos in zip(bounds, positions):
        index.insert(bound, pos)
    return index


def _ref_merge(bounds, positions, head, tail, ins_head, ins_tail):
    head, tail, positions = head.tolist(), tail.tolist(), list(positions)
    n, starts, first = len(head), [0, *positions], len(head)
    for value, payload in zip(ins_head.tolist(), ins_tail.tolist()):
        piece = _ref_piece(bounds, value)
        first = min(first, starts[piece])
        at = positions[piece] if piece < len(positions) else len(head)
        head.insert(at, value)  # the end of its piece, after earlier arrivals
        tail.insert(at, payload)
        for rank in range(piece, len(positions)):
            positions[rank] += 1
    moved = (n - first + len(ins_head)) * 2
    return head, tail, positions, moved


def _ref_locate(bounds, positions, head, keys, del_values, del_keys):
    edges = [0, *positions, len(head)]
    hits, scanned = set(), {}
    for value, key in zip(del_values.tolist(), del_keys.tolist()):
        piece = _ref_piece(bounds, value)
        scanned[piece] = edges[piece + 1] - edges[piece]
        hits.update(
            p for p in range(edges[piece], edges[piece + 1]) if keys[p] == key
        )
    return sorted(hits), sum(scanned.values())


def _ref_delete(positions, head, tail, victims):
    head, tail = head.tolist(), tail.tolist()
    victims = sorted(set(victims))
    moved = (len(head) - victims[0]) * 2
    for p in reversed(victims):
        del head[p], tail[p]
    positions = [pos - sum(v < pos for v in victims) for pos in positions]
    return head, tail, positions, moved


def _charges(recorder: StatsRecorder) -> tuple[int, int]:
    return recorder.root.sequential, recorder.root.writes


@settings(max_examples=150, deadline=None)
@given(state=cracked_states(),
       batch=st.lists(st.integers(-1, 13), min_size=1, max_size=30))
def test_merge_insertions_matches_per_row_reference(state, batch):
    head, keys, bounds, positions = state
    index = _index_of(bounds, positions)
    ins_head = np.array(batch, dtype=np.int64)
    ins_keys = np.arange(1000, 1000 + len(batch), dtype=np.int64)
    recorder = StatsRecorder()
    new_head, (new_keys,) = merge_insertions(
        index, head, [keys], ins_head, [ins_keys], recorder
    )
    want_head, want_keys, want_pos, moved = _ref_merge(
        bounds, positions, head, keys, ins_head, ins_keys
    )
    assert new_head.tolist() == want_head and new_head.dtype == head.dtype
    assert new_keys.tolist() == want_keys
    assert [pos for _, pos in index.inorder()] == want_pos
    assert _charges(recorder) == (moved, moved)


@settings(max_examples=150, deadline=None)
@given(state=cracked_states(), picks=st.sets(st.integers(0, 39), min_size=1),
       edge_rows=st.sets(st.sampled_from(["first", "last"])),
       rows_per_hole=st.sampled_from([0, ripple._ROWS_PER_HOLE, 10**9]))
def test_deletions_match_per_row_reference(state, picks, edge_rows, rows_per_hole):
    head, keys, bounds, positions = state
    n = len(head)
    victims = {p % n for p in picks}
    victims |= {0} if "first" in edge_rows else set()
    victims |= {n - 1} if "last" in edge_rows else set()
    victims = np.array(sorted(victims), dtype=np.int64)
    index = _index_of(bounds, positions)

    recorder = StatsRecorder()
    located = locate_deletions(
        index, head, keys, head[victims][::-1], keys[victims][::-1], recorder
    )
    want_located, scanned = _ref_locate(
        bounds, positions, head, keys, head[victims][::-1], keys[victims][::-1]
    )
    assert located.tolist() == want_located == victims.tolist()
    assert located.dtype == np.int64
    assert _charges(recorder) == (scanned, 0)

    # 0 always closes holes by slice copies, 10**9 always by the mask: the
    # two sides of the cut-over must be indistinguishable.
    recorder = StatsRecorder()
    with mock.patch.object(ripple, "_ROWS_PER_HOLE", rows_per_hole):
        new_head, (new_keys,) = delete_positions(
            index, head, [keys], located[::-1], recorder
        )
    want_head, want_keys, want_pos, moved = _ref_delete(positions, head, keys, victims)
    assert new_head.tolist() == want_head and new_head.dtype == head.dtype
    assert new_keys.tolist() == want_keys
    assert [pos for _, pos in index.inorder()] == want_pos
    assert _charges(recorder) == (moved, moved)


@pytest.mark.parametrize("holes", [3, 2_000])
def test_delete_positions_on_both_sides_of_the_cut_over(holes, rng):
    """At the shipped cut-over: few holes in many rows (slice copies) and
    more holes than any slice path would take (mask) agree with np.delete."""
    n = 4_000
    assert (3 * ripple._ROWS_PER_HOLE <= n) and (2_000 * ripple._ROWS_PER_HOLE > n)
    head = rng.integers(0, 1000, size=n).astype(np.int64)
    keys = np.arange(n, dtype=np.int64)
    index = CrackerIndex()
    crack_into(index, head, [keys], Interval.open(200, 700))
    before = [pos for _, pos in index.inorder()]
    victims = np.sort(rng.choice(n, size=holes, replace=False)).astype(np.int64)
    new_head, (new_keys,) = delete_positions(index, head, [keys], victims)
    assert np.array_equal(new_head, np.delete(head, victims))
    assert np.array_equal(new_keys, np.delete(keys, victims))
    assert [pos for _, pos in index.inorder()] == [
        pos - int((victims < pos).sum()) for pos in before
    ]
