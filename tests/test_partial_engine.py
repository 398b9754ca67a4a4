"""Partial sideways cracking end to end: oracle equivalence, full-map
equivalence, storage budgets, head dropping, partial alignment, updates."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.partial import PartialConfig, PartialSidewaysCracker
from repro.core.sideways import SidewaysCracker
from repro.cracking.bounds import Interval
from repro.storage.relation import Relation


def make(rng, n=4_000, domain=50_000, **kwargs):
    arrays = {c: rng.integers(1, domain, size=n).astype(np.int64) for c in "ABCD"}
    rel = Relation.from_arrays("R", arrays)
    return arrays, rel, PartialSidewaysCracker(rel, **kwargs)


def oracle(arrays, preds, projs, conjunctive=True):
    masks = [iv.mask(arrays[a]) for a, iv in preds.items()]
    mask = np.logical_and.reduce(masks) if conjunctive else np.logical_or.reduce(masks)
    return {p: arrays[p][mask] for p in projs}


class TestOracleEquivalence:
    def test_select_project(self, rng):
        arrays, _, pw = make(rng)
        for _ in range(15):
            lo = int(rng.integers(0, 40_000))
            iv = Interval.open(lo, lo + int(rng.integers(1_000, 10_000)))
            res = pw.select_project("A", iv, ["B", "C"])
            exp = oracle(arrays, {"A": iv}, ["B", "C"])
            got = sorted(zip(res["B"].tolist(), res["C"].tolist()))
            want = sorted(zip(exp["B"].tolist(), exp["C"].tolist()))
            assert got == want

    def test_conjunctive(self, rng):
        arrays, _, pw = make(rng)
        for _ in range(10):
            preds = {
                "A": Interval.open(int(rng.integers(0, 20_000)), 45_000),
                "B": Interval.open(0, int(rng.integers(10_000, 40_000))),
            }
            res = pw.query(preds, ["D"])
            exp = oracle(arrays, preds, ["D"])
            assert np.array_equal(np.sort(res["D"]), np.sort(exp["D"]))

    def test_disjunctive(self, rng):
        arrays, _, pw = make(rng)
        for _ in range(6):
            preds = {
                "A": Interval.open(int(rng.integers(0, 30_000)), 49_000),
                "B": Interval.open(0, int(rng.integers(2_000, 10_000))),
            }
            res = pw.query(preds, ["C"], conjunctive=False)
            exp = oracle(arrays, preds, ["C"], conjunctive=False)
            assert np.array_equal(np.sort(res["C"]), np.sort(exp["C"]))


class TestFullMapEquivalence:
    def test_same_results_as_full_maps(self, rng):
        arrays, rel, pw = make(rng)
        sw = SidewaysCracker(rel)
        for _ in range(12):
            lo = int(rng.integers(0, 40_000))
            iv = Interval.open(lo, lo + 5_000)
            res_p = pw.select_project("A", iv, ["B", "C"])
            res_f = sw.select_project("A", iv, ["B", "C"])
            got = sorted(zip(res_p["B"].tolist(), res_p["C"].tolist()))
            want = sorted(zip(res_f["B"].tolist(), res_f["C"].tolist()))
            assert got == want

    def test_partial_materializes_less(self, rng):
        arrays, rel, pw = make(rng)
        sw = SidewaysCracker(rel)
        iv = Interval.open(10_000, 12_000)
        pw.select_project("A", iv, ["B"])
        sw.select_project("A", iv, ["B"])
        # Partial maps only materialized the needed chunk (plus H_A).
        pmap = pw.sets["A"].maps["B"]
        assert len(pmap) < len(rel)
        assert sw.sets["A"].maps["B"].storage_tuples == len(rel)


class TestStorageBudget:
    def test_budget_respected(self, rng):
        arrays, rel, pw = make(rng, budget_tuples=int(1.5 * 4_000))
        for i in range(30):
            lo = int(rng.integers(0, 45_000))
            proj = ["B", "C", "D"][i % 3]
            iv = Interval.open(lo, lo + 3_000)
            res = pw.select_project("A", iv, [proj])
            exp = oracle(arrays, {"A": iv}, [proj])
            assert np.array_equal(np.sort(res[proj]), np.sort(exp[proj]))
            assert pw.storage.used_tuples <= pw.storage.budget_tuples + 1
        assert pw.storage.used_tuples <= pw.storage.budget_tuples

    def test_eviction_recreates_on_demand(self, rng):
        arrays, rel, pw = make(rng, budget_tuples=2_500)
        iv1 = Interval.open(1_000, 9_000)
        iv2 = Interval.open(30_000, 38_000)
        pw.select_project("A", iv1, ["B"])
        pw.select_project("A", iv2, ["C"])  # may evict B chunks
        res = pw.select_project("A", iv1, ["B"])  # recreate if needed
        exp = oracle(arrays, {"A": iv1}, ["B"])
        assert np.array_equal(np.sort(res["B"]), np.sort(exp["B"]))


class TestHeadDropping:
    @pytest.mark.parametrize("mode", ["cold", "cache"])
    def test_results_correct_with_head_drops(self, rng, mode):
        config = PartialConfig(
            head_drop_mode=mode, cold_threshold=2, cache_piece_tuples=2_000
        )
        arrays, _, pw = make(rng, config=config)
        for _ in range(25):
            lo = int(rng.integers(0, 40_000))
            iv = Interval.open(lo, lo + 6_000)
            res = pw.select_project("A", iv, ["B", "C"])
            exp = oracle(arrays, {"A": iv}, ["B", "C"])
            got = sorted(zip(res["B"].tolist(), res["C"].tolist()))
            want = sorted(zip(exp["B"].tolist(), exp["C"].tolist()))
            assert got == want

    def test_cold_mode_actually_drops(self, rng):
        config = PartialConfig(head_drop_mode="cold", cold_threshold=1)
        arrays, _, pw = make(rng, config=config)
        iv = Interval.open(10_000, 30_000)
        for _ in range(6):
            pw.select_project("A", iv, ["B"])
        dropped = sum(
            chunk.head_dropped
            for pset in pw.sets.values()
            for pmap in pset.maps.values()
            for chunk in pmap.chunks.values()
        )
        assert dropped >= 1


class TestPartialAlignmentFlag:
    def test_disabled_partial_alignment_same_results(self, rng):
        config = PartialConfig(partial_alignment=False)
        arrays, _, pw = make(rng, config=config)
        for _ in range(10):
            lo = int(rng.integers(0, 40_000))
            iv = Interval.open(lo, lo + 4_000)
            res = pw.select_project("A", iv, ["B", "C"])
            exp = oracle(arrays, {"A": iv}, ["B", "C"])
            got = sorted(zip(res["B"].tolist(), res["C"].tolist()))
            assert got == sorted(zip(exp["B"].tolist(), exp["C"].tolist()))


class TestUpdatesPartial:
    def test_insert_and_delete_stream(self, rng):
        arrays, rel, pw = make(rng)
        live = {c: arrays[c].copy() for c in "ABCD"}
        deleted = np.zeros(len(rel), dtype=bool)

        def check(iv):
            res = pw.select_project("A", iv, ["B"])
            mask = iv.mask(live["A"]) & ~deleted
            assert np.array_equal(np.sort(res["B"]), np.sort(live["B"][mask]))

        check(Interval.open(5_000, 15_000))
        # Insert.
        new = {c: rng.integers(1, 50_000, size=100).astype(np.int64) for c in "ABCD"}
        keys = np.arange(len(rel), len(rel) + 100, dtype=np.int64)
        rel.append_rows(new)
        pw.notify_insertions(new, keys)
        for c in "ABCD":
            live[c] = np.concatenate([live[c], new[c]])
        deleted = np.concatenate([deleted, np.zeros(100, dtype=bool)])
        check(Interval.open(1, 49_999))
        # Delete.
        victims = rng.choice(4_000, size=50, replace=False).astype(np.int64)
        pw.notify_deletions({a: arrays[a][victims] for a in pw.sets}, victims)
        deleted[victims] = True
        check(Interval.open(1, 49_999))
        check(Interval.open(20_000, 30_000))
        for pset in pw.sets.values():
            if pset.chunkmap is not None:
                pset.chunkmap.check_invariants()
            for pmap in pset.maps.values():
                for chunk in pmap.chunks.values():
                    chunk.check_invariants()


class TestFrozenAreas:
    def test_updates_merged_into_h_a_leave_fetched_areas_in_order(self, rng):
        """Fetched areas are frozen in ``H_A``: an insert and a delete merged
        into an unfetched area in front of them shift them whole, so a chunk
        created afterwards starts from the rows an older chunk started from."""
        arrays, rel, pw = make(rng)
        pw.select_project("A", Interval.open(20_000, 30_000), ["B"])
        pw.select_project("A", Interval.open(22_000, 28_000), ["B"])  # crack the chunk
        pw.select_project("A", Interval.open(35_000, 45_000), ["B"])
        cmap = pw.sets["A"].chunkmap
        fetched = [area for area in cmap.areas if area.fetched]
        assert len(fetched) == 2

        def slices():
            return [tuple(a.tobytes() for a in cmap.area_slice(area)) for area in fetched]

        before, starts = slices(), [cmap.area_positions(area)[0] for area in fetched]
        live = {c: arrays[c].copy() for c in "ABCD"}
        new = {c: rng.integers(1, 50_000, size=100).astype(np.int64) for c in "ABCD"}
        new["A"] = rng.integers(1, 15_000, size=100).astype(np.int64)
        keys = np.arange(len(rel), len(rel) + 100, dtype=np.int64)
        rel.append_rows(new)
        pw.notify_insertions(new, keys)
        victims = np.flatnonzero(arrays["A"] < 15_000)[:50].astype(np.int64)
        pw.notify_deletions({a: arrays[a][victims] for a in pw.sets}, victims)
        live = {c: np.concatenate([live[c], new[c]]) for c in "ABCD"}
        deleted = np.zeros(len(rel), dtype=bool)
        deleted[victims] = True
        # Merging these updates ripples through both fetched areas.
        pw.select_project("A", Interval.open(1, 15_000), ["B"])
        assert [cmap.area_positions(area)[0] for area in fetched] == [s + 50 for s in starts]
        assert slices() == before

        iv = Interval.open(22_000, 28_000)
        res = pw.select_project("A", iv, ["B", "C"])  # a new C chunk beside B's
        mask = iv.mask(live["A"]) & ~deleted
        assert sorted(zip(res["B"].tolist(), res["C"].tolist())) == sorted(
            zip(live["B"][mask].tolist(), live["C"][mask].tolist())
        )
        older = pw.sets["A"].maps["B"].get_chunk(fetched[0])
        newer = pw.sets["A"].maps["C"].get_chunk(fetched[0])
        assert older.cursor == newer.cursor
        assert older.head.tobytes() == newer.head.tobytes()


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(0, 9_999),
    plan=st.lists(
        st.tuples(
            st.integers(0, 90),
            st.integers(2, 30),
            st.sampled_from(["B", "C", "D"]),
        ),
        min_size=2, max_size=10,
    ),
)
def test_partial_random_plans_match_oracle(seed, plan):
    rng = np.random.default_rng(seed)
    arrays = {c: rng.integers(0, 100, size=300).astype(np.int64) for c in "ABCD"}
    rel = Relation.from_arrays("R", arrays)
    pw = PartialSidewaysCracker(rel)
    for lo, width, proj in plan:
        iv = Interval.open(lo, lo + width)
        res = pw.select_project("A", iv, [proj])
        mask = iv.mask(arrays["A"])
        assert np.array_equal(np.sort(res[proj]), np.sort(arrays[proj][mask]))
