"""Map sets: adaptive alignment, late creation, deletions via M_Akey,
full-map storage management."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.mapset import KEY_TAIL, FullMapStorage, MapSet
from repro.cracking.bounds import Interval
from repro.storage.relation import Relation


def make_relation(rng, n=1_000):
    return Relation.from_arrays(
        "R", {c: rng.integers(0, 10_000, size=n).astype(np.int64) for c in "ABC"}
    )


class TestAlignment:
    def test_maps_used_together_are_aligned(self, rng):
        rel = make_relation(rng)
        mapset = MapSet(rel, "A")
        for _ in range(10):
            lo = int(rng.integers(0, 8_000))
            iv = Interval.open(lo, lo + 1_500)
            map_b, lo_b, hi_b = mapset.select("B", iv)
            map_c, lo_c, hi_c = mapset.select("C", iv)
            assert (lo_b, hi_b) == (lo_c, hi_c)
            assert np.array_equal(map_b.head, map_c.head)

    def test_late_map_creation_aligns_with_existing(self, rng):
        rel = make_relation(rng)
        mapset = MapSet(rel, "A")
        for _ in range(8):
            lo = int(rng.integers(0, 8_000))
            mapset.select("B", Interval.open(lo, lo + 1_000))
        # C's map is created now and must replay the whole tape.
        iv = Interval.open(2_000, 4_000)
        map_b, lo_b, hi_b = mapset.select("B", iv)
        map_c, lo_c, hi_c = mapset.select("C", iv)
        assert (lo_b, hi_b) == (lo_c, hi_c)
        assert np.array_equal(map_b.head, map_c.head)
        # Tuple-level alignment: same (A -> B, A -> C) pairing as the base.
        a, b, c = rel.values("A"), rel.values("B"), rel.values("C")
        expected = sorted(zip(b[iv.mask(a)].tolist(), c[iv.mask(a)].tolist()))
        got = sorted(zip(map_b.tail[lo_b:hi_b].tolist(), map_c.tail[lo_c:hi_c].tolist()))
        assert got == expected

    def test_alignment_distance(self, rng):
        rel = make_relation(rng)
        mapset = MapSet(rel, "A")
        mapset.select("B", Interval.open(100, 500))
        mapset.get_map("C")
        assert mapset.alignment_distance("C") == len(mapset.tape)
        assert mapset.alignment_distance("B") == 0
        assert mapset.alignment_distance("missing") is None

    def test_cursor_never_past_tape(self, rng):
        rel = make_relation(rng)
        mapset = MapSet(rel, "A")
        for _ in range(5):
            lo = int(rng.integers(0, 8_000))
            mapset.select("B", Interval.open(lo, lo + 500))
        assert mapset.maps["B"].cursor == len(mapset.tape)


class TestUpdates:
    def test_insert_flow(self, rng):
        rel = make_relation(rng)
        mapset = MapSet(rel, "A")
        mapset.select("B", Interval.open(0, 5_000))
        new = {c: rng.integers(0, 10_000, size=20).astype(np.int64) for c in "ABC"}
        keys = np.arange(len(rel), len(rel) + 20, dtype=np.int64)
        rel.append_rows(new)
        mapset.add_insertions(new["A"], keys)
        iv = Interval.closed(0, 10_001)
        map_b, lo, hi = mapset.select("B", iv)
        assert hi - lo == len(rel)
        map_b.check_invariants()

    def test_delete_flow_via_key_map(self, rng):
        rel = make_relation(rng)
        mapset = MapSet(rel, "A")
        mapset.select("B", Interval.closed(0, 10_001))
        victims = np.array([3, 17, 99], dtype=np.int64)
        mapset.add_deletions(rel.values("A")[victims], victims)
        map_b, lo, hi = mapset.select("B", Interval.closed(0, 10_001))
        assert hi - lo == len(rel) - 3
        # The key map exists and has applied the same deletions.
        assert mapset.has_map(KEY_TAIL)
        key_map = mapset.maps[KEY_TAIL]
        mapset.align(key_map)
        assert not np.isin(victims, key_map.tail).any()

    def test_pending_outside_range_not_merged(self, rng):
        rel = make_relation(rng)
        mapset = MapSet(rel, "A")
        mapset.select("B", Interval.open(0, 1_000))
        new_a = np.array([9_999], dtype=np.int64)
        rel.append_rows({c: np.array([9_999]) for c in "ABC"})
        mapset.add_insertions(new_a, np.array([len(rel) - 1], dtype=np.int64))
        mapset.select("B", Interval.open(0, 1_000))
        assert mapset.pending.insertion_count == 1


class TestSnapshot:
    def test_excluded_keys_absent_from_new_maps(self, rng):
        rel = make_relation(rng)
        mapset = MapSet(rel, "A")
        mapset.exclude_from_snapshot(np.array([0, 1, 2], dtype=np.int64))
        cmap = mapset.get_map(KEY_TAIL)
        assert not np.isin([0, 1, 2], cmap.tail).any()
        assert len(cmap) == len(rel) - 3

    def test_cannot_change_snapshot_after_maps_exist(self, rng):
        rel = make_relation(rng)
        mapset = MapSet(rel, "A")
        mapset.get_map("B")
        from repro.errors import AlignmentError

        with pytest.raises(AlignmentError):
            mapset.exclude_from_snapshot(np.array([0]))


class TestFullMapStorage:
    def test_eviction_drops_lfu(self, rng):
        rel = make_relation(rng)
        storage = FullMapStorage(budget_tuples=2 * len(rel))
        mapset = MapSet(rel, "A", storage=storage)
        hot = mapset.get_map("B")
        for _ in range(5):
            mapset.select("B", Interval.open(0, 5_000))
        mapset.get_map("C")
        assert storage.used_tuples == 2 * len(rel)
        # Creating a key map must evict the LFU map (C, 0 accesses).
        mapset.get_map(KEY_TAIL)
        assert not mapset.has_map("C")
        assert mapset.has_map("B")

    def test_pinned_maps_survive(self, rng):
        rel = make_relation(rng)
        storage = FullMapStorage(budget_tuples=2 * len(rel))
        mapset = MapSet(rel, "A", storage=storage)
        mapset.get_map("B")
        mapset.get_map("C")
        storage.pin({("A", "B"), ("A", "C")})
        mapset.get_map(KEY_TAIL)  # nothing evictable -> overshoot allowed
        assert mapset.has_map("B") and mapset.has_map("C")
        storage.unpin()

    def test_unlimited_budget_never_evicts(self, rng):
        rel = make_relation(rng)
        storage = FullMapStorage(budget_tuples=None)
        mapset = MapSet(rel, "A", storage=storage)
        for attr in ("B", "C", KEY_TAIL):
            mapset.get_map(attr)
        assert len(mapset.maps) == 3

    def test_recreated_map_realigns(self, rng):
        rel = make_relation(rng)
        storage = FullMapStorage(budget_tuples=None)
        mapset = MapSet(rel, "A", storage=storage)
        for _ in range(5):
            lo = int(rng.integers(0, 8_000))
            mapset.select("B", Interval.open(lo, lo + 1_000))
        mapset.drop_map("B")
        iv = Interval.open(1_000, 3_000)
        map_b, lo, hi = mapset.select("B", iv)
        a = rel.values("A")
        assert hi - lo == int(iv.mask(a).sum())

    @pytest.mark.parametrize("low_address_first", [True, False])
    def test_ties_between_sets_go_to_the_set_registered_first(
        self, rng, low_address_first
    ):
        """The tie-break used to be ``id(mapset)``: which of two equally
        accessed maps went first depended on where the sets were allocated."""
        rel = make_relation(rng)
        storage = FullMapStorage(budget_tuples=2 * len(rel))
        sets = sorted(
            (MapSet(rel, "A", storage=storage), MapSet(rel, "B", storage=storage)),
            key=id, reverse=not low_address_first,
        )
        first, second = sets
        first.get_map("C")
        second.get_map("C")  # same tail, same (zero) access count
        MapSet(rel, "C", storage=storage).get_map("A")  # needs one map's room
        assert not first.has_map("C")
        assert second.has_map("C")

    def test_evicting_key_map_with_pending_deletes_never_fails_a_query(self, rng):
        """``M_Akey`` is never cracked, so it is the evictor's first victim;
        dropping it while deletions wait on ``S_A`` must not fail a query on
        another attribute (a recreated ``M_Akey`` replays the retained tape,
        cached delete positions included)."""
        from repro.analysis.checks import Checks
        from repro.engine.database import Database
        from repro.engine.query import Predicate, Query
        from repro.engine.scan import PlainEngine
        from repro.engine.sideways_engine import SidewaysEngine

        with Checks(sanitize="deep").armed():
            db = Database(full_map_budget=3_000)
            db.create_table("R", {
                c: rng.integers(0, 1_000, size=1_000).astype(np.int64) for c in "ABCDE"
            })
            engine, scan = SidewaysEngine(db), PlainEngine(db)

            def ask(attr, lo, hi, *proj):
                query = Query(
                    "R", (Predicate(attr, Interval.open(lo, hi)),), projections=proj
                )
                got, want = engine.run(query), scan.run(query)
                rows = lambda res: sorted(zip(*(res.columns[p].tolist() for p in proj)))
                assert rows(got) == rows(want)

            ask("A", 100, 300, "C")
            db.delete("R", np.array([1, 2, 3]))
            ask("A", 0, 1_000, "C")  # merges the deletes, creates M_Akey
            db.delete("R", np.array([10, 11]))  # stay pending on S_A
            ask("B", 100, 300, "C", "D")  # needs room: evicts M_Akey
            assert not db.sideways("R").sets["A"].has_map(KEY_TAIL)
            ask("A", 50, 400, "C")
            ask("A", 0, 1_000, "C", "D")


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 9_999),
    plan=st.lists(
        st.tuples(st.sampled_from(["B", "C"]), st.integers(0, 80)),
        min_size=2, max_size=15,
    ),
)
def test_alignment_is_permutation_identical(seed, plan):
    """Whatever interleaving of per-map selections happens, any two maps
    brought to the same tape position hold identical head permutations."""
    rng = np.random.default_rng(seed)
    rel = Relation.from_arrays(
        "R", {c: rng.integers(0, 100, size=150).astype(np.int64) for c in "ABC"}
    )
    mapset = MapSet(rel, "A")
    for attr, lo in plan:
        mapset.select(attr, Interval.open(lo, lo + 15))
    map_b = mapset.get_map("B")
    map_c = mapset.get_map("C")
    mapset.align(map_b)
    mapset.align(map_c)
    assert np.array_equal(map_b.head, map_c.head)
    base_pairs = sorted(zip(rel.values("B").tolist(), rel.values("C").tolist()))
    assert sorted(zip(map_b.tail.tolist(), map_c.tail.tolist())) == base_pairs
