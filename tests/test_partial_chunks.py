"""Chunk maps, areas, chunks: the partial-map building blocks."""

import numpy as np
import pytest

from repro.core.partial.chunk import Chunk
from repro.core.partial.chunkmap import ChunkMap
from repro.core.partial.partial_map import PartialMap
from repro.core.tape import CrackEntry, CrackerTape, InsertEntry
from repro.cracking.bounds import Interval
from repro.cracking.index import CrackerIndex
from repro.errors import AlignmentError
from repro.storage.relation import Relation


@pytest.fixture
def rel(rng):
    return Relation.from_arrays(
        "R", {c: rng.integers(0, 10_000, size=2_000).astype(np.int64) for c in "AB"}
    )


@pytest.fixture
def chunkmap(rel):
    return ChunkMap(rel, "A", snapshot_rows=len(rel))


class TestCover:
    def test_initially_one_unfetched_area(self, chunkmap):
        assert len(chunkmap.areas) == 1
        assert not chunkmap.areas[0].fetched

    def test_cover_cracks_and_fetches_exact_range(self, chunkmap, rel):
        iv = Interval.open(2_000, 5_000)
        areas = chunkmap.cover(iv)
        assert len(areas) == 1
        area = areas[0]
        assert area.fetched
        lo, hi = chunkmap.area_positions(area)
        assert hi - lo == int(iv.mask(rel.values("A")).sum())
        chunkmap.check_invariants()

    def test_cover_reuses_fetched_areas(self, chunkmap):
        iv = Interval.open(2_000, 5_000)
        first = chunkmap.cover(iv)
        second = chunkmap.cover(iv)
        assert [a.area_id for a in first] == [a.area_id for a in second]

    def test_overlapping_covers_fetch_boundary_areas_whole(self, chunkmap, rel):
        chunkmap.cover(Interval.open(2_000, 5_000))
        areas = chunkmap.cover(Interval.open(4_000, 7_000))
        # The already-fetched [2k,5k) area is included whole (not re-cracked),
        # plus a freshly fetched [5k,7k) area.
        assert len(areas) == 2
        chunkmap.check_invariants()

    def test_unbounded_cover_fetches_everything(self, chunkmap):
        areas = chunkmap.cover(Interval())
        assert all(a.fetched for a in areas)
        total = sum(chunkmap.area_size(a) for a in areas)
        assert total == len(chunkmap)

    def test_area_clip(self, chunkmap):
        chunkmap.cover(Interval.open(2_000, 5_000))
        area = next(a for a in chunkmap.areas if a.fetched)
        # A predicate reaching beyond the area needs no clip bounds.
        lo, hi = area.clip(Interval.open(1_000, 6_000))
        assert lo is None and hi is None
        # A predicate cutting inside needs a chunk-level crack.
        lo, hi = area.clip(Interval.open(3_000, 6_000))
        assert lo is not None and hi is None


class TestRefsAndUnfetch:
    def test_last_ref_drop_unfetches(self, chunkmap):
        areas = chunkmap.cover(Interval.open(1_000, 2_000))
        area = areas[0]
        chunkmap.add_ref(area, "m1")
        chunkmap.add_ref(area, "m2")
        chunkmap.drop_ref(area, "m1")
        assert area.fetched
        chunkmap.drop_ref(area, "m2")
        assert not area.fetched
        assert area.tape is None

    def test_pinned_area_stays_fetched(self, chunkmap):
        areas = chunkmap.cover(Interval.open(1_000, 2_000))
        area = areas[0]
        area.pin_count = 1
        chunkmap.add_ref(area, "m1")
        chunkmap.drop_ref(area, "m1")
        assert area.fetched

    def test_fold_into_empty_area_keeps_its_lower_edge(self):
        """Both edges of an empty area share one position; folded inserts
        move the upper edge only (regression: a position-keyed shift moved
        the lower edge too, leaving the new row left of its own area)."""
        rel = Relation.from_arrays(
            "R", {"A": np.array([1, 2, 3, 50, 60, 70, 80], dtype=np.int64)}
        )
        chunkmap = ChunkMap(rel, "A", snapshot_rows=len(rel))
        (area,) = chunkmap.cover(Interval.open(10, 20))
        assert chunkmap.area_size(area) == 0
        area.tape.append(InsertEntry(np.array([15]), np.array([7])))
        chunkmap.add_ref(area, "m1")
        chunkmap.drop_ref(area, "m1")
        assert chunkmap.area_positions(area) == (3, 4)
        assert (chunkmap.head[3], chunkmap.keys[3]) == (15, 7)
        chunkmap.check_invariants()


class TestChunks:
    def _make_chunk(self, chunkmap, rel, interval) -> tuple[PartialMap, object, Chunk]:
        pmap = PartialMap(chunkmap, "B")
        area = chunkmap.cover(interval)[0]
        chunk = pmap.create_chunk(area)
        return pmap, area, chunk

    def test_create_chunk_fetches_tail(self, chunkmap, rel):
        iv = Interval.open(2_000, 5_000)
        pmap, area, chunk = self._make_chunk(chunkmap, rel, iv)
        a, b = rel.values("A"), rel.values("B")
        expected = sorted(b[iv.mask(a)].tolist())
        assert sorted(chunk.tail.tolist()) == expected
        assert np.array_equal(chunk.head, chunkmap.area_slice(area)[0])

    def test_chunk_crack_local_positions(self, chunkmap, rel):
        iv = Interval.open(0, 8_000)
        pmap, area, chunk = self._make_chunk(chunkmap, rel, iv)
        sub = Interval.open(3_000, 4_000)
        lo, hi = chunk.crack(sub)
        a, b = rel.values("A"), rel.values("B")
        assert sorted(chunk.tail[lo:hi].tolist()) == sorted(b[sub.mask(a)].tolist())
        chunk.check_invariants()

    def test_duplicate_chunk_rejected(self, chunkmap, rel):
        iv = Interval.open(2_000, 5_000)
        pmap, area, chunk = self._make_chunk(chunkmap, rel, iv)
        with pytest.raises(AlignmentError):
            pmap.create_chunk(area)

    def test_chunk_for_unfetched_area_rejected(self, chunkmap, rel):
        pmap = PartialMap(chunkmap, "B")
        with pytest.raises(AlignmentError):
            pmap.create_chunk(chunkmap.areas[0])


class TestHeadDropRecovery:
    def test_recover_from_chunkmap(self, chunkmap, rel, rng):
        iv = Interval.open(0, 9_000)
        pmap = PartialMap(chunkmap, "B")
        area = chunkmap.cover(iv)[0]
        chunk = pmap.create_chunk(area)
        # Crack a few times, logging to the area tape.
        for _ in range(4):
            lo = int(rng.integers(0, 8_000))
            sub = Interval.open(lo, lo + 500)
            chunk.crack(sub)
            area.tape.append_crack(sub)
            chunk.cursor = len(area.tape)
        before_head = chunk.head.copy()
        before_tail = chunk.tail.copy()
        chunk.drop_head()
        assert chunk.storage_cells == len(chunk)
        with pytest.raises(AlignmentError):
            chunk.crack(Interval.open(1, 2))
        head_slice, _ = chunkmap.area_slice(area)
        chunk.recover_head(area.tape, head_slice, CrackerIndex(), 0)
        assert np.array_equal(chunk.head, before_head)
        assert np.array_equal(chunk.tail, before_tail)

    def test_recover_from_less_aligned_sibling(self, chunkmap, rel, rng):
        iv = Interval.open(0, 9_000)
        pmap_b = PartialMap(chunkmap, "B")
        pmap_k = PartialMap(chunkmap, "@key")
        area = chunkmap.cover(iv)[0]
        chunk_b = pmap_b.create_chunk(area)
        chunk_k = pmap_k.create_chunk(area)
        subs = [Interval.open(int(l), int(l) + 700) for l in (1_000, 4_000, 6_500)]
        for sub in subs:
            chunk_b.crack(sub)
            area.tape.append_crack(sub)
            chunk_b.cursor = len(area.tape)
        # Sibling only partially aligned.
        pmap_k.align_chunk(chunk_k, area, upto=1)
        expected = chunk_b.head.copy()
        chunk_b.drop_head()
        chunk_b.recover_head(area.tape, chunk_k.head, chunk_k.index, chunk_k.cursor)
        assert np.array_equal(chunk_b.head, expected)

    def test_recovery_source_past_chunk_rejected(self, chunkmap, rel):
        iv = Interval.open(0, 9_000)
        pmap = PartialMap(chunkmap, "B")
        area = chunkmap.cover(iv)[0]
        chunk = pmap.create_chunk(area)
        chunk.drop_head()
        with pytest.raises(AlignmentError):
            chunk.recover_head(area.tape, np.arange(len(chunk)), CrackerIndex(), 5)

    def test_sort_all_pieces_logs_and_sorts(self, chunkmap, rel, rng):
        iv = Interval.open(0, 9_000)
        pmap = PartialMap(chunkmap, "B")
        area = chunkmap.cover(iv)[0]
        chunk = pmap.create_chunk(area)
        sub = Interval.open(3_000, 6_000)
        chunk.crack(sub)
        area.tape.append_crack(sub)
        chunk.cursor = len(area.tape)
        entries_before = len(area.tape)
        chunk.sort_all_pieces(area.tape)
        assert len(area.tape) > entries_before
        for piece in chunk.index.pieces(len(chunk)):
            seg = chunk.head[piece.lo_pos:piece.hi_pos]
            assert np.array_equal(seg, np.sort(seg))
        # A sibling replaying the tape ends up identical.
        sibling = PartialMap(chunkmap, "@key").create_chunk(area)
        while sibling.cursor < len(area.tape):
            sibling.replay_entry(area.tape[sibling.cursor])
        assert np.array_equal(sibling.head, chunk.head)
