"""The vectorized Ripple merge."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cracking import ripple
from repro.cracking.bounds import Bound, Interval, Side, interval_from_bounds
from repro.cracking.crack import crack_into
from repro.cracking.index import CrackerIndex
from repro.cracking.ripple import (
    delete_positions,
    locate_deletions,
    merge_insertions,
)
from repro.engine import (
    Database, Predicate, Query, SelectionCrackingEngine, SidewaysEngine,
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


# -- chained merges against the allocate-and-concatenate merge ----------------
#
# The per-row references above hand every call a fresh array, so they never
# reach the in-place branch.  Here cracks, insert batches and delete batches
# chain on the arrays each merge returned, against the merge as it was before
# it reused buffers: one fresh array per call.


def _concatenating_merge(index, head, tails, ins_head, ins_tails, recorder):
    n = len(head)
    order, affected, offsets = ripple._group_by_piece(index, ins_head)
    edges = index.piece_edges(n)
    first_touched = edges.item(affected[0])
    cuts = [0, *edges[affected + 1].tolist()]

    def grown(old, new):
        new = new[order]
        parts = []
        for j in range(len(affected)):
            parts += (old[cuts[j]:cuts[j + 1]], new[offsets[j]:offsets[j + 1]])
        parts.append(old[cuts[-1]:])
        return np.concatenate(parts)

    merged = grown(head, ins_head), [
        grown(tail, ins) for tail, ins in zip(tails, ins_tails)
    ]
    moved = (n - first_touched + len(ins_head)) * (1 + len(tails))
    recorder.sequential(moved)
    recorder.write(moved)
    index.apply_order_shifts(list(zip(affected.tolist(), np.diff(offsets).tolist())))
    return merged


def _concatenating_delete(index, head, tails, positions, recorder):
    positions = np.unique(np.asarray(positions, dtype=np.int64))
    n = len(head)
    holes = positions.tolist()
    kept = list(zip([0, *(p + 1 for p in holes)], [*holes, n]))

    def shrunk(arr):
        return np.concatenate([arr[lo:hi] for lo, hi in kept])

    moved = (n - positions.item(0)) * (1 + len(tails))
    recorder.sequential(moved)
    recorder.write(moved)
    index.apply_shifts([(p + 1, -1) for p in positions.tolist()])
    return shrunk(head), [shrunk(t) for t in tails]


_chain_steps = st.lists(
    st.one_of(
        st.tuples(st.just("crack"), st.integers(-1, 13),
                  st.sampled_from([Side.LT, Side.LE])),
        # Repeated batches outgrow the headroom within a few steps.
        st.tuples(st.just("insert"),
                  st.lists(st.integers(-1, 13), min_size=1, max_size=12),
                  st.sampled_from([1, 10])),
        st.tuples(st.just("delete"), st.sets(st.integers(0, 10**6), min_size=1),
                  st.sets(st.sampled_from(["first", "last"]))),
    ),
    min_size=1, max_size=25,
)


@settings(max_examples=150, deadline=None)
@given(values=st.lists(st.integers(0, 12), min_size=1, max_size=60),
       foreign=st.sampled_from(["fresh", "prefix view"]),
       steps=_chain_steps,
       rows_per_hole=st.sampled_from([0, ripple._ROWS_PER_HOLE, 10**9]))
def test_chained_merges_match_the_concatenating_merge(
    values, foreign, steps, rows_per_hole
):
    n = len(values)
    head = np.array(values, dtype=np.int64)
    start = [head, np.arange(100, 100 + n, dtype=np.int64), head * 0.5]
    want = [arr.copy() for arr in start]
    if foreign == "fresh":
        got = [arr.copy() for arr in start]
    else:
        got = [np.concatenate([arr, arr[:7]])[:n] for arr in start]
    got_index, want_index = CrackerIndex(), CrackerIndex()
    got_rec, want_rec = StatsRecorder(), StatsRecorder()
    next_key = 10_000

    with mock.patch.object(ripple, "_ROWS_PER_HOLE", rows_per_hole):
        for step in steps:
            if step[0] == "crack":
                interval = interval_from_bounds(Bound(step[1], step[2]), None)
                crack_into(got_index, got[0], got[1:], interval, got_rec)
                crack_into(want_index, want[0], want[1:], interval, want_rec)
            elif step[0] == "insert":
                ins_head = np.array(step[1] * step[2], dtype=np.int64)
                ins_tails = [
                    np.arange(next_key, next_key + len(ins_head), dtype=np.int64),
                    ins_head * 0.5,
                ]
                next_key += len(ins_head)
                head, tails = merge_insertions(
                    got_index, got[0], got[1:], ins_head, ins_tails, got_rec
                )
                got = [head, *tails]
                head, tails = _concatenating_merge(
                    want_index, want[0], want[1:], ins_head, ins_tails, want_rec
                )
                want = [head, *tails]
            elif len(want[0]):
                size = len(want[0])
                victims = {p % size for p in step[1]}
                victims |= {0} if "first" in step[2] else set()
                victims |= {size - 1} if "last" in step[2] else set()
                positions = np.array(sorted(victims), dtype=np.int64)[::-1]
                head, tails = delete_positions(
                    got_index, got[0], got[1:], positions, got_rec
                )
                got = [head, *tails]
                head, tails = _concatenating_delete(
                    want_index, want[0], want[1:], positions, want_rec
                )
                want = [head, *tails]
            for g, w in zip(got, want):
                assert g.dtype == w.dtype and g.tobytes() == w.tobytes()
            assert list(got_index.inorder()) == list(want_index.inorder())
            assert _charges(got_rec) == _charges(want_rec)


# -- nothing but the view ripple handed out is ever written -------------------


def _batch(rng, size, first_key):
    return (rng.integers(0, 1000, size=size).astype(np.int64),
            np.arange(first_key, first_key + size, dtype=np.int64))


@pytest.mark.parametrize("first", ["merge", "delete"])
@pytest.mark.parametrize("foreign", ["head", "tail"])
def test_a_foreign_prefix_view_is_never_written(foreign, first, rng):
    n = 400
    head, keys, index = cracked_state(rng, n=n)
    big = np.concatenate([head if foreign == "head" else keys, np.arange(50)])
    before = big.copy()
    arrays = {"head": head, "tail": keys, foreign: big[:n]}
    head, tails = arrays["head"], [arrays["tail"]]
    for step in (["merge", "delete"] if first == "merge" else ["delete", "merge"]) * 2:
        if step == "merge":
            ins_vals, ins_keys = _batch(rng, 30, 10_000 + len(head))
            head, tails = merge_insertions(index, head, tails, ins_vals, [ins_keys])
        else:
            head, tails = delete_positions(
                index, head, tails, np.arange(0, len(head), 9, dtype=np.int64)
            )
    assert big.tobytes() == before.tobytes()
    assert not np.shares_memory(head, big) and not np.shares_memory(tails[0], big)


def test_only_the_exact_view_handed_out_is_merged_in_place(rng):
    head, keys, index = cracked_state(rng)
    ins_vals, ins_keys = _batch(rng, 5, 10_000)
    head, (keys,) = merge_insertions(index, head, [keys], ins_vals, [ins_keys])
    ins_vals, ins_keys = _batch(rng, 5, 20_000)
    grown, (grown_keys,) = merge_insertions(index, head, [keys], ins_vals, [ins_keys])
    assert np.shares_memory(grown, head) and np.shares_memory(grown_keys, keys)

    # A second view object of the same buffer is somebody else's array.
    snapshot = grown.tobytes(), grown_keys.tobytes()
    ins_vals, ins_keys = _batch(rng, 5, 30_000)
    merged, (merged_keys,) = merge_insertions(
        index, grown[:], [grown_keys[:]], ins_vals, [ins_keys]
    )
    assert (grown.tobytes(), grown_keys.tobytes()) == snapshot
    assert not np.shares_memory(merged, grown)
    assert not np.shares_memory(merged_keys, grown_keys)
    shrunk, (shrunk_keys,) = delete_positions(
        index, merged[:], [merged_keys[:]], np.array([0, 7, 9], dtype=np.int64)
    )
    assert not np.shares_memory(shrunk, merged)
    assert not np.shares_memory(shrunk_keys, merged_keys)


@pytest.mark.parametrize("make_engine", [
    SelectionCrackingEngine,
    SidewaysEngine,
    lambda db: SidewaysEngine(db, partial=True),
], ids=["selection_cracking", "sideways", "partial_sideways"])
def test_results_survive_later_in_place_merges(make_engine, rng):
    """Columns a query returned before an update batch stay byte-identical
    while later queries merge that batch into the buffers behind them."""
    db = Database()
    n = 3_000
    db.create_table("T", {c: rng.integers(1, 10_001, size=n) for c in "ABC"})
    engine = make_engine(db)
    victims = iter(rng.permutation(n).tolist())
    buffer_for, in_place = ripple._buffer_for, []

    def spy(arr, rows, dtype):
        buf, reused = buffer_for(arr, rows, dtype)
        in_place.append(reused)
        return buf, reused

    held = []
    with mock.patch.object(ripple, "_buffer_for", spy):
        for _ in range(4):
            for lo in range(1, 10_001, 2_000):
                query = Query(
                    "T", predicates=(Predicate("A", Interval.open(lo, lo + 3_000)),),
                    projections=("B", "C"),
                )
                columns = engine.run(query).columns
                held.append((columns, {a: c.tobytes() for a, c in columns.items()}))
            for columns, snapshot in held:
                assert {a: c.tobytes() for a, c in columns.items()} == snapshot
            db.insert("T", {c: rng.integers(1, 10_001, size=40) for c in "ABC"})
            db.delete("T", np.array([next(victims) for _ in range(30)]))
    assert any(in_place)
