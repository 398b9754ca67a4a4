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


# -- equivalence with a per-row reference of the paper's Ripple ---------------
#
# The bulk passes must return the arrays, leave the index positions and
# charge the recorder exactly as the paper's Ripple moving one boundary row
# per later piece per row would, with the batch applied in the order the
# bulk merge defines.  The domain is tiny on purpose: duplicates sit on
# LT/LE boundary pairs, neighbouring boundaries leave empty pieces, and
# batches hit position 0, position n-1 and runs of adjacent rows.


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


def _ref_merge(bounds, positions, arrays, new_arrays, frozen=()):
    """The paper's Ripple insert, one new row at a time.

    Rows go in ascending piece order, batch order within a piece.  For each
    row, every later piece, back to front, moves one boundary row into the
    free slot at its end: its first row not yet moved by this batch, or,
    once all of them have moved (or when it is frozen), the whole piece
    slides up by one, in order.  The new row then fills the slot at the end
    of its own piece.  Returns ``(arrays, positions, charge)``.
    """
    arrays = [arr.tolist() for arr in arrays]
    new_arrays = [new.tolist() for new in new_arrays]
    n = len(arrays[0])
    starts, ends = [0, *positions], [*positions, n]
    moved = [0] * len(starts)
    pieces = [_ref_piece(bounds, v) for v in new_arrays[0]]
    charge = (n - min(starts[p] for p in pieces) + len(pieces)) * len(arrays)
    for i in sorted(range(len(pieces)), key=pieces.__getitem__):
        for arr in arrays:
            arr.append(None)
        for k in range(len(starts) - 1, pieces[i], -1):
            lo, hi = starts[k], ends[k]
            slide = k in frozen or moved[k] == hi - lo
            for arr in arrays:
                if slide:
                    arr[lo + 1:hi + 1] = arr[lo:hi]
                else:
                    arr[hi] = arr[lo]
            moved[k] += not slide
            starts[k], ends[k] = lo + 1, hi + 1
        for arr, new in zip(arrays, new_arrays):
            arr[ends[pieces[i]]] = new[i]
        ends[pieces[i]] += 1
    return arrays, starts[1:], charge


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


def _ref_delete(positions, arrays, victims, frozen=()):
    """The paper's Ripple delete, one victim at a time.

    Pieces go back to front, and a piece's victims front to back.  While the
    piece's last row is a victim, that row leaves; then the victim's slot
    takes the piece's last row.  Every row leaving a piece frees the slot at
    its end, and every later piece, front to back, moves one boundary row
    into the free slot in front of it: its last row not yet moved by this
    batch, or, once all of them have moved (or when it is frozen), the whole
    piece slides down by one, in order.  Returns ``(arrays, positions,
    charge)``.
    """
    arrays = [arr.tolist() for arr in arrays]
    n = len(arrays[0])
    starts, ends = [0, *positions], [*positions, n]
    moved = [0] * len(starts)
    victims = sorted(set(victims))

    def piece_of(p):
        return max(k for k, start in enumerate(starts) if start <= p)

    def leave(j, p):
        ends[j] -= 1
        for arr in arrays:
            arr[p] = arr[ends[j]]
        for k in range(j + 1, len(starts)):
            lo, hi = starts[k], ends[k]
            slide = k in frozen or moved[k] == hi - lo
            for arr in arrays:
                if slide:
                    arr[lo - 1:hi - 1] = arr[lo:hi]
                else:
                    arr[lo - 1] = arr[hi - 1]
            moved[k] += not slide
            starts[k], ends[k] = lo - 1, hi - 1
        for arr in arrays:
            del arr[-1]

    charge = (n - starts[piece_of(victims[0])]) * len(arrays)
    for j in reversed(range(len(starts))):
        pending = {p for p in victims if piece_of(p) == j}
        for p in sorted(pending):
            if p not in pending:
                continue  # it left from the end already
            while ends[j] - 1 in pending and ends[j] - 1 != p:
                pending.remove(ends[j] - 1)
                leave(j, ends[j] - 1)
            pending.remove(p)
            leave(j, p)
    return arrays, starts[1:], charge


def _charges(recorder: StatsRecorder) -> tuple[int, int]:
    return recorder.root.sequential, recorder.root.writes


def _untouched(bits, count, touched):
    """Pieces to freeze: the ones ``bits`` picks that the batch leaves alone."""
    return [k for k in range(count) if bits[k] and k not in touched]


@settings(max_examples=200, deadline=None)
@given(state=cracked_states(),
       batch=st.lists(st.integers(-1, 13), min_size=1, max_size=30),
       freeze=st.lists(st.booleans(), min_size=9, max_size=9))
def test_merge_insertions_matches_per_row_reference(state, batch, freeze):
    head, keys, bounds, positions = state
    index = _index_of(bounds, positions)
    ins_head = np.array(batch, dtype=np.int64)
    ins_keys = np.arange(1000, 1000 + len(batch), dtype=np.int64)
    frozen = _untouched(freeze, len(bounds) + 1, {_ref_piece(bounds, v) for v in batch})
    recorder = StatsRecorder()
    new_head, (new_keys,) = merge_insertions(
        index, head, [keys], ins_head, [ins_keys], recorder, frozen=frozen
    )
    (want_head, want_keys), want_pos, moved = _ref_merge(
        bounds, positions, [head, keys], [ins_head, ins_keys], frozen
    )
    assert new_head.tolist() == want_head and new_head.dtype == head.dtype
    assert new_keys.tolist() == want_keys
    assert [pos for _, pos in index.inorder()] == want_pos
    assert _charges(recorder) == (moved, moved)


@settings(max_examples=200, deadline=None)
@given(state=cracked_states(), picks=st.sets(st.integers(0, 39), min_size=1),
       edge_rows=st.sets(st.sampled_from(["first", "last"])),
       freeze=st.lists(st.booleans(), min_size=9, max_size=9))
def test_deletions_match_per_row_reference(state, picks, edge_rows, freeze):
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

    frozen = _untouched(
        freeze, len(bounds) + 1, {_ref_piece(bounds, v) for v in head[victims].tolist()}
    )
    recorder = StatsRecorder()
    # Unsorted, with a repeat: positions are a set.
    new_head, (new_keys,) = delete_positions(
        index, head, [keys], np.concatenate((located[::-1], located[:1])), recorder,
        frozen=frozen,
    )
    (want_head, want_keys), want_pos, moved = _ref_delete(
        positions, [head, keys], victims.tolist(), frozen
    )
    assert new_head.tolist() == want_head and new_head.dtype == head.dtype
    assert new_keys.tolist() == want_keys
    assert [pos for _, pos in index.inorder()] == want_pos
    assert _charges(recorder) == (moved, moved)


def _cracked_4000(rng):
    n = 4_000
    head = rng.integers(0, 1000, size=n).astype(np.int64)
    keys = np.arange(n, dtype=np.int64)
    index = CrackerIndex()
    for lo in (100, 300, 500, 700, 850):
        crack_into(index, head, [keys], Interval.open(lo, lo + 60))
    return head, keys, index


@pytest.mark.parametrize("rows", [3, 2_000])
def test_merge_insertions_few_and_many_rows(rows, rng):
    """A few new rows (boundary rows move) and a batch of half the rows
    (whole pieces move as slices) both match the per-row reference."""
    head, keys, index = _cracked_4000(rng)
    bounds, before = index.bounds(), [pos for _, pos in index.inorder()]
    ins_head = rng.integers(0, 1000, size=rows).astype(np.int64)
    ins_keys = np.arange(10_000, 10_000 + rows, dtype=np.int64)
    new_head, (new_keys,) = merge_insertions(index, head, [keys], ins_head, [ins_keys])
    (want_head, want_keys), want_pos, _ = _ref_merge(
        bounds, before, [head, keys], [ins_head, ins_keys]
    )
    assert new_head.tolist() == want_head and new_keys.tolist() == want_keys
    assert [pos for _, pos in index.inorder()] == want_pos


@pytest.mark.parametrize("holes", [3, 2_000])
def test_delete_positions_few_and_many_holes(holes, rng):
    """A few holes in many rows (boundary rows move) and holes in half the
    rows (whole pieces move as slices) both match the per-row reference."""
    head, keys, index = _cracked_4000(rng)
    before = [pos for _, pos in index.inorder()]
    victims = np.sort(rng.choice(len(head), size=holes, replace=False)).astype(np.int64)
    new_head, (new_keys,) = delete_positions(index, head, [keys], victims)
    (want_head, want_keys), want_pos, _ = _ref_delete(
        before, [head, keys], victims.tolist()
    )
    assert new_head.tolist() == want_head and new_keys.tolist() == want_keys
    assert [pos for _, pos in index.inorder()] == want_pos


# -- chained merges against the per-row reference chain ------------------------
#
# The per-row tests above hand every call a fresh array, so they never reach
# the in-place branch.  Here cracks, insert batches and delete batches chain
# on the arrays each merge returned, against the per-row reference chained
# on its own results.


def _ref_step(index, arrays, step, *args):
    """One reference merge on ``arrays`` (same dtypes out); returns the
    arrays, a fresh index at the merged positions, and the charge."""
    positions = [pos for _, pos in index.inorder()]
    if step == "insert":
        out, positions, charge = _ref_merge(index.bounds(), positions, arrays, *args)
    else:
        out, positions, charge = _ref_delete(positions, arrays, *args)
    out = [np.array(got, dtype=arr.dtype) for got, arr in zip(out, arrays)]
    return out, _index_of(index.bounds(), positions), charge


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
       steps=_chain_steps)
def test_chained_merges_match_the_per_row_reference(values, foreign, steps):
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

    for step in steps:
        if step[0] == "crack":
            interval = interval_from_bounds(Bound(step[1], step[2]), None)
            crack_into(got_index, got[0], got[1:], interval, got_rec)
            crack_into(want_index, want[0], want[1:], interval, want_rec)
            charge = 0
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
            want, want_index, charge = _ref_step(
                want_index, want, "insert", [ins_head, *ins_tails]
            )
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
            want, want_index, charge = _ref_step(
                want_index, want, "delete", sorted(victims)
            )
        else:
            charge = 0
        want_rec.sequential(charge)
        want_rec.write(charge)
        for g, w in zip(got, want):
            assert g.dtype == w.dtype and g.tobytes() == w.tobytes()
        assert list(got_index.inorder()) == list(want_index.inorder())
        assert _charges(got_rec) == _charges(want_rec)


def test_a_frozen_piece_takes_no_rows(rng):
    head, keys, index = cracked_state(rng)
    frozen = index.piece_ids(head[:1]).tolist()  # the piece holding row 0
    with pytest.raises(ValueError, match="frozen"):
        merge_insertions(index, head, [keys], head[:1], [np.array([9_999])],
                         frozen=frozen)
    with pytest.raises(ValueError, match="frozen"):
        delete_positions(index, head, [keys], np.array([0]), frozen=frozen)


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
