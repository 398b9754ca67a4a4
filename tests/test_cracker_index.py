"""Contract of the cracker index (flat sorted arrays behind the old interface)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cracking.bounds import Bound, Side
from repro.cracking.index import CrackerIndex
from repro.errors import CrackError, InvariantError


def b(value: float, side: Side = Side.LT) -> Bound:
    return Bound(value, side)


class TestInsertFind:
    def test_empty_index(self):
        index = CrackerIndex()
        assert len(index) == 0
        assert index.piece_count == 1
        assert index.position_of(b(5)) is None

    def test_insert_and_find(self):
        index = CrackerIndex()
        index.insert(b(5), 10)
        assert index.position_of(b(5)) == 10
        assert index.position_of(b(5, Side.LE)) is None
        assert len(index) == 1

    def test_reinsert_same_position_ok(self):
        index = CrackerIndex()
        index.insert(b(5), 10)
        index.insert(b(5), 10)
        assert len(index) == 1

    def test_reinsert_conflicting_position_raises(self):
        index = CrackerIndex()
        index.insert(b(5), 10)
        with pytest.raises(CrackError):
            index.insert(b(5), 11)

    def test_lt_and_le_are_distinct_keys(self):
        index = CrackerIndex()
        index.insert(b(5, Side.LT), 10)
        index.insert(b(5, Side.LE), 12)
        assert index.position_of(b(5, Side.LT)) == 10
        assert index.position_of(b(5, Side.LE)) == 12


class TestNeighbors:
    def _build(self) -> CrackerIndex:
        index = CrackerIndex()
        for value, pos in [(10, 5), (20, 12), (30, 20)]:
            index.insert(b(value), pos)
        return index

    def test_predecessor(self):
        index = self._build()
        assert index.predecessor(b(25)) == (b(20), 12)
        assert index.predecessor(b(10)) is None
        assert index.predecessor(b(10, Side.LE)) == (b(10), 5)

    def test_successor(self):
        index = self._build()
        assert index.successor(b(25)) == (b(30), 20)
        assert index.successor(b(30)) is None  # strict: not the bound itself
        assert index.successor(b(20)) == (b(30), 20)
        assert index.successor(b(35)) is None

    def test_enclosing_unknown_bound(self):
        index = self._build()
        assert index.enclosing(b(25), 100) == (12, 20)
        assert index.enclosing(b(5), 100) == (0, 5)
        assert index.enclosing(b(40), 100) == (20, 100)

    def test_enclosing_known_bound_degenerate(self):
        index = self._build()
        assert index.enclosing(b(20), 100) == (12, 12)


class TestPieces:
    def test_pieces_cover_whole_array(self):
        index = CrackerIndex()
        index.insert(b(10), 3)
        index.insert(b(20), 7)
        pieces = list(index.pieces(12))
        assert [(p.lo_pos, p.hi_pos) for p in pieces] == [(0, 3), (3, 7), (7, 12)]
        assert pieces[0].lo_bound is None
        assert pieces[-1].hi_bound is None
        assert sum(p.size for p in pieces) == 12

    def test_inorder_sorted(self):
        index = CrackerIndex()
        for value in (30, 10, 20, 25, 5):
            index.insert(b(value), int(value))
        bounds = [bd.value for bd, _ in index.inorder()]
        assert bounds == sorted(bounds)


class TestShifts:
    def test_shift_moves_later_bounds(self):
        index = CrackerIndex()
        index.insert(b(10), 5)
        index.insert(b(20), 10)
        index.apply_shifts([(6, 3)])
        assert index.position_of(b(10)) == 5
        assert index.position_of(b(20)) == 13

    def test_shift_at_exact_position_included(self):
        index = CrackerIndex()
        index.insert(b(10), 5)
        index.apply_shifts([(5, 2)])
        assert index.position_of(b(10)) == 7

    def test_negative_and_cumulative_shifts(self):
        index = CrackerIndex()
        index.insert(b(10), 10)
        index.insert(b(20), 20)
        index.apply_shifts([(5, -2), (15, 4)])
        assert index.position_of(b(10)) == 8
        assert index.position_of(b(20)) == 22


class TestClone:
    def test_clone_is_independent(self):
        index = CrackerIndex()
        index.insert(b(10), 5)
        copy = index.clone()
        copy.insert(b(20), 9)
        assert index.position_of(b(20)) is None
        assert copy.position_of(b(10)) == 5
        assert len(copy) == 2


class TestOrderShifts:
    def test_stacked_boundaries_move_by_rank_not_position(self):
        """Three boundaries on one position (two empty pieces between them):
        rows appended to the middle piece move the upper two only."""
        index = CrackerIndex()
        for value in (10, 20, 30):
            index.insert(b(value), 7)
        index.apply_order_shifts([(1, 4)])
        assert [pos for _, pos in index.inorder()] == [7, 11, 11]
        index.apply_order_shifts([(0, 1), (2, -2)])
        assert [pos for _, pos in index.inorder()] == [8, 12, 10]

    def test_rank_of(self):
        index = CrackerIndex()
        for value in (10, 20, 30):
            index.insert(b(value), value)
        assert index.rank_of(b(20)) == 1
        assert index.rank_of(b(20, Side.LE)) == 2
        assert index.rank_of(b(5)) == 0


class TestValidate:
    def test_flags_non_monotone_and_out_of_range_positions(self):
        index = CrackerIndex()
        index.insert(b(10), 8)
        index.insert(b(20), 3)
        with pytest.raises(InvariantError) as err:
            index.validate(n=5)
        names = {v.invariant for v in err.value.violations}
        assert names == {"index-monotone", "index-position-range"}

    def test_flags_keys_out_of_order(self):
        index = CrackerIndex()
        index.insert(b(10), 1)
        index.insert(b(20), 2)
        index._keys.reverse()
        with pytest.raises(InvariantError) as err:
            index.validate()
        assert {v.invariant for v in err.value.violations} == {"index-sorted"}


# -- model test ---------------------------------------------------------------
#
# The oracle is a plain list of ``[Bound, pos]`` kept sorted by re-sorting;
# every answer is recomputed from it by linear scans.

_bounds = st.builds(Bound, st.integers(0, 12), st.sampled_from([Side.LT, Side.LE]))
_shifts = st.lists(st.tuples(st.integers(-2, 40), st.integers(-3, 5)), max_size=4)
_ops = st.one_of(
    st.tuples(st.just("insert"), _bounds, st.integers(0, 2)),
    st.tuples(st.just("conflict"), _bounds),
    st.tuples(st.just("lookup"), _bounds),
    st.tuples(st.just("shift"), _shifts),
    st.tuples(st.just("order_shift"), _shifts),
    st.tuples(st.just("clone")),
)


def _model_neighbours(model, bound):
    below = [(bd, pos) for bd, pos in model if bd < bound]
    above = [(bd, pos) for bd, pos in model if bd > bound]
    exact = [pos for bd, pos in model if bd == bound]
    return (below[-1] if below else None, above[0] if above else None,
            exact[0] if exact else None)


def _assert_matches(index, model, n=1000):
    entries = list(index.inorder())
    assert entries == [(bd, pos) for bd, pos in model]
    assert all(type(pos) is int for _, pos in entries)
    assert len(index) == len(model) and index.piece_count == len(model) + 1
    assert index.bounds() == [bd for bd, _ in model]
    edges = [0, *(pos for _, pos in model), n]
    assert [(p.lo_bound, p.hi_bound, p.lo_pos, p.hi_pos) for p in index.pieces(n)] == [
        (lo_b, hi_b, lo, hi)
        for lo_b, hi_b, lo, hi in zip(
            [None, *(bd for bd, _ in model)], [*(bd for bd, _ in model), None],
            edges, edges[1:],
        )
    ]
    assert index.piece_edges(n).tolist() == edges


@settings(max_examples=200, deadline=None)
@given(st.lists(_ops, max_size=40))
def test_index_matches_sorted_list_model(ops):
    index = CrackerIndex()
    model: list[list] = []
    clones: list[tuple[CrackerIndex, list]] = []
    for op in ops:
        if op[0] == "insert":
            _, bound, step = op
            pred, succ, exact = _model_neighbours(model, bound)
            if exact is not None:
                index.insert(bound, exact)  # same position: accepted, no-op
            else:
                # A small step past the predecessor, clipped to the
                # successor: stacks boundaries on one position often.
                pos = (pred[1] if pred else 0) + step
                if succ is not None:
                    pos = max(min(pos, succ[1]), pred[1] if pred else 0)
                index.insert(bound, pos)
                model.append([bound, pos])
                model.sort(key=lambda entry: entry[0])
        elif op[0] == "conflict":
            _, _, exact = _model_neighbours(model, op[1])
            if exact is not None:
                with pytest.raises(CrackError):
                    index.insert(op[1], exact + 1)
        elif op[0] == "lookup":
            bound = op[1]
            pred, succ, exact = _model_neighbours(model, bound)
            assert index.position_of(bound) == exact
            assert index.predecessor(bound) == pred
            assert index.successor(bound) == succ
            assert index.rank_of(bound) == sum(bd < bound for bd, _ in model)
            expected = (exact, exact) if exact is not None else (
                pred[1] if pred else 0, succ[1] if succ else 1000
            )
            got = index.enclosing(bound, 1000)
            assert got == expected and all(type(x) is int for x in got)
        elif op[0] == "shift":
            # Pre-shift semantics: every shift is judged against the
            # positions before any of them is applied.
            index.apply_shifts(op[1])
            for entry in model:
                entry[1] += sum(d for at, d in op[1] if entry[1] >= at)
        elif op[0] == "order_shift":
            index.apply_order_shifts(op[1])
            for rank, entry in enumerate(model):
                entry[1] += sum(d for at, d in op[1] if rank >= at)
        else:
            clones.append((index, [list(entry) for entry in model]))
            index = index.clone()
        _assert_matches(index, model)
        positions = [pos for _, pos in model]
        if positions == sorted(positions) and all(0 <= p <= 1000 for p in positions):
            index.validate(n=1000)
    for frozen, frozen_model in clones:
        _assert_matches(frozen, frozen_model)
