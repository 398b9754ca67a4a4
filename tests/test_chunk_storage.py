"""The chunk storage manager: budgets, LFU eviction, pinning — and the
running count and victim queue that replaced its per-eviction rescans,
checked against the rescanning loop kept here as the oracle."""

import gc
import weakref
from collections import Counter
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.checks import Checks
from repro.analysis.sanitizer import checkpoint_query
from repro.core.partial import PartialConfig
from repro.core.partial.chunk import Chunk
from repro.core.partial.chunkmap import ChunkMap
from repro.core.partial.engine import PartialMapSet
from repro.core.partial.partial_map import PartialMap
from repro.core.partial.storage import ChunkStorage
from repro.cracking.bounds import Interval
from repro.engine.database import Database
from repro.engine.query import Predicate, Query
from repro.engine.scan import PlainEngine
from repro.engine.sideways_engine import SidewaysEngine
from repro.errors import InvariantError
from repro.faults.journal import take_snapshot
from repro.storage.relation import Relation


@pytest.fixture
def parts(rng):
    rel = Relation.from_arrays(
        "R", {c: rng.integers(0, 10_000, size=1_000).astype(np.int64) for c in "AB"}
    )
    chunkmap = ChunkMap(rel, "A", len(rel))
    pmap = PartialMap(chunkmap, "B")
    return chunkmap, pmap


def make_chunk(chunkmap, pmap, lo, hi):
    area = chunkmap.cover(Interval.open(lo, hi))[0]
    return area, pmap.create_chunk(area)


# -- the oracle ---------------------------------------------------------------------


def recount_cells(storage):
    """``used_cells`` as the parent commit computed it: sum every chunk."""
    return sum(
        chunk.storage_cells for pmap in storage.maps for chunk in pmap.chunks.values()
    )


def scan_evictions(storage, budget_tuples, new_tuples):
    """The parent commit's ``ChunkStorage.ensure_room`` loop, kept verbatim —
    re-sum every chunk, rescan every chunk per eviction — except that it
    evicts from shadow copies of the chunk dicts and returns its victims
    ``(map, area id)`` in order instead of dropping them."""
    chunks_of = {pmap: dict(pmap.chunks) for pmap in storage.maps}
    victims = []

    def used_tuples():
        return sum(
            c.storage_cells for chunks in chunks_of.values() for c in chunks.values()
        ) / 2

    if budget_tuples is None:
        return victims
    while used_tuples() + new_tuples > budget_tuples:
        victim = None
        for pmap, chunks in chunks_of.items():
            for area_id, chunk in chunks.items():
                if storage.is_pinned(pmap, area_id):
                    continue
                cand = (chunk.accesses, pmap, area_id)
                if victim is None or cand[0] < victim[0]:
                    victim = cand
        if victim is None:
            return victims  # nothing evictable; allow overshoot rather than fail
        _, pmap, area_id = victim
        del chunks_of[pmap][area_id]
        victims.append((pmap, area_id))
    return victims


@contextmanager
def checked_against_scan(storage):
    """Make every ``storage.ensure_room`` call — direct or from inside the
    engine — assert that it evicts exactly what :func:`scan_evictions` would,
    and that the running count is the recount before and after.  Yields the
    list of all evictions seen."""
    evictions = []
    ensure_room = storage.ensure_room
    drop_chunk = PartialMap.drop_chunk
    dropped = []

    def recording_drop(pmap, area_id):
        if area_id in pmap.chunks:
            dropped.append((pmap, area_id))
        drop_chunk(pmap, area_id)

    def checked(new_tuples):
        assert storage.used_cells == recount_cells(storage)
        expected = scan_evictions(storage, storage.budget_tuples, new_tuples)
        del dropped[:]
        ensure_room(new_tuples)
        assert dropped == expected
        assert storage.used_cells == recount_cells(storage)
        evictions.extend(expected)

    storage.ensure_room = checked
    PartialMap.drop_chunk = recording_drop
    try:
        yield evictions
    finally:
        PartialMap.drop_chunk = drop_chunk
        del storage.ensure_room


class TestAccounting:
    def test_usage_counts_chunks(self, parts):
        chunkmap, pmap = parts
        storage = ChunkStorage(budget_tuples=None)
        storage.register_map(pmap)
        assert storage.used_tuples == 0
        _, chunk = make_chunk(chunkmap, pmap, 1_000, 4_000)
        assert storage.used_tuples == len(chunk)

    def test_chunkmap_is_backbone_and_never_counted(self, parts):
        """The paper's thresholds are map tuples: ``H_A`` is not charged, so
        a budget smaller than the chunk map still holds a chunk."""
        chunkmap, pmap = parts
        storage = ChunkStorage(budget_tuples=len(chunkmap) // 2)
        storage.register_map(pmap)
        assert storage.used_tuples == 0
        area, chunk = make_chunk(chunkmap, pmap, 1_000, 4_000)
        assert storage.used_tuples == len(chunk) < len(chunkmap)
        storage.ensure_room(0)
        assert pmap.get_chunk(area) is chunk

    def test_head_drop_halves_footprint(self, parts):
        chunkmap, pmap = parts
        storage = ChunkStorage(budget_tuples=None)
        storage.register_map(pmap)
        _, chunk = make_chunk(chunkmap, pmap, 1_000, 4_000)
        full = storage.used_tuples
        chunk.drop_head()
        assert storage.used_tuples == pytest.approx(full / 2)

    def test_registering_a_map_counts_the_chunks_it_already_holds(self, parts):
        chunkmap, pmap = parts
        _, chunk = make_chunk(chunkmap, pmap, 1_000, 4_000)
        storage = ChunkStorage(budget_tuples=None)
        storage.register_map(pmap)
        assert storage.used_tuples == len(chunk)
        storage.unregister_map(pmap)
        assert storage.used_tuples == 0
        chunk.drop_head()  # no longer anybody's business
        assert storage.used_tuples == 0

    def test_dropping_an_absent_chunk_is_a_noop(self, parts):
        chunkmap, pmap = parts
        storage = ChunkStorage(budget_tuples=None)
        storage.register_map(pmap)
        area, chunk = make_chunk(chunkmap, pmap, 1_000, 4_000)
        other = PartialMap(chunkmap, "A")
        storage.register_map(other)
        drops = other._recorder.root.chunk_drops
        other.drop_chunk(area.area_id)  # ``other`` never held this area
        assert other._recorder.root.chunk_drops == drops
        assert area.fetched and area.refs == {pmap.name}
        assert storage.used_tuples == len(chunk)


class TestEviction:
    def test_lfu_victim(self, parts):
        chunkmap, pmap = parts
        storage = ChunkStorage(budget_tuples=None)
        storage.register_map(pmap)
        area_hot, hot = make_chunk(chunkmap, pmap, 1_000, 4_000)
        area_cold, cold = make_chunk(chunkmap, pmap, 6_000, 9_000)
        hot.touch()
        hot.touch()
        cold.touch()
        storage.budget_tuples = int(storage.used_tuples)  # full
        storage.ensure_room(10)
        assert pmap.get_chunk(area_cold) is None
        assert pmap.get_chunk(area_hot) is hot

    def test_pinned_chunk_survives(self, parts):
        chunkmap, pmap = parts
        storage = ChunkStorage(budget_tuples=None)
        storage.register_map(pmap)
        area, chunk = make_chunk(chunkmap, pmap, 1_000, 4_000)
        storage.pin(pmap, area.area_id)
        storage.budget_tuples = 1
        storage.ensure_room(10)  # nothing evictable -> overshoot
        assert pmap.get_chunk(area) is chunk
        storage.unpin_all()
        storage.ensure_room(10)
        assert pmap.get_chunk(area) is None

    def test_unlimited_budget_no_eviction(self, parts):
        chunkmap, pmap = parts
        storage = ChunkStorage(budget_tuples=None)
        storage.register_map(pmap)
        make_chunk(chunkmap, pmap, 1_000, 4_000)
        storage.ensure_room(10**9)
        assert len(pmap.chunks) == 1

    def test_register_idempotent(self, parts):
        chunkmap, pmap = parts
        storage = ChunkStorage(budget_tuples=None)
        storage.register_map(pmap)
        storage.register_map(pmap)
        make_chunk(chunkmap, pmap, 1_000, 4_000)
        single = storage.used_tuples
        assert single == len(pmap.chunks[next(iter(pmap.chunks))])
        assert storage.maps == [pmap]

    def test_ties_go_to_first_registered_map_then_first_created_chunk(self, parts):
        chunkmap, pmap = parts
        later = PartialMap(chunkmap, "A")
        storage = ChunkStorage(budget_tuples=None)
        storage.register_map(pmap)
        storage.register_map(later)
        first = chunkmap.cover(Interval.open(1_000, 4_000))[0]
        second = chunkmap.cover(Interval.open(6_000, 9_000))[0]
        # Created in the opposite of the expected eviction order.
        for owner, area in ((later, second), (later, first),
                            (pmap, second), (pmap, first)):
            owner.create_chunk(area)
        storage.budget_tuples = 0
        with checked_against_scan(storage) as evictions:
            storage.ensure_room(0)
        assert evictions == [
            (pmap, second.area_id), (pmap, first.area_id),
            (later, second.area_id), (later, first.area_id),
        ]


class TestSanitizerCatalog:
    """CrackSan's ``storage-accounting`` and ``storage-victim`` invariants."""

    def _warm_set(self, rng):
        rel = Relation.from_arrays(
            "R", {c: rng.integers(0, 10_000, size=600).astype(np.int64) for c in "AB"}
        )
        pset = PartialMapSet(rel, "A", ChunkStorage(None), PartialConfig())
        areas = pset.plan(Interval.open(2_000, 5_000))
        for area in areas:
            pset.acquire_chunk("B", area)
        pset.check_invariants()
        return pset

    def test_a_drifted_count_is_caught(self, rng):
        pset = self._warm_set(rng)
        pset.storage._cells += 2
        with pytest.raises(InvariantError) as err:
            pset.check_invariants()
        assert [v.invariant for v in err.value.violations] == ["storage-accounting"]

    def test_a_queue_that_lost_its_victim_is_caught(self, rng):
        pset = self._warm_set(rng)
        pset.storage.unpin_all()
        pset.storage._queue.clear()
        with pytest.raises(InvariantError) as err:
            pset.check_invariants()
        assert [v.invariant for v in err.value.violations] == ["storage-victim"]


# -- model test: random interleavings against the scanning oracle --------------------

MAPS = ("B", "C")
N_AREAS = 8
BUDGETS = (None, 100, 180, 320)

#: Op kinds, repeated by weight.  Every op is ``(kind, x, y)``; the model
#: reads the two integers as whatever the kind needs (a map and an area, one
#: of the live chunks, a size), so no draw is wasted on an absent chunk.
KINDS = (
    ["crack"] * 6 + ["acquire"] * 4 + ["align"] * 4 + ["touch"] * 3
    + ["insert"] * 3 + ["delete"] * 2 + ["pin"] * 2 + ["unpin_all"] * 3
    + ["ensure_room"] * 2 + ["drop_chunk"] * 2 + ["drop_head"] * 2
    + ["recover_head"] * 2 + ["snapshot"] * 2 + ["restore"] * 2
    + ["budget", "unregister"]
)
op = st.tuples(st.sampled_from(KINDS), st.integers(0, 999), st.integers(0, 999))


class StorageModel:
    """One partial map set under a tight budget, driven op by op."""

    def __init__(self, seed: int) -> None:
        self.rng = np.random.default_rng(seed)
        rows = 75 * N_AREAS
        self.rel = Relation.from_arrays("R", {
            "A": self.rng.permutation(rows).astype(np.int64) * 10,
            "B": self.rng.integers(0, 1_000, size=rows).astype(np.int64),
            "C": self.rng.integers(0, 1_000, size=rows).astype(np.int64),
        })
        self.storage = ChunkStorage(budget_tuples=180)
        self.pset = PartialMapSet(
            self.rel, "A", self.storage, PartialConfig(max_chunk_tuples=75)
        )
        # Median splits give N_AREAS areas of 75 rows; the plan is never
        # released, so they stay fetched whatever happens to their chunks.
        self.areas = self.pset.plan(Interval())
        assert len(self.areas) == N_AREAS
        self.deleted: set[int] = set()
        self.snapshot = None
        #: Every chunk the storage manager ever counted, held weakly.
        self.seen: weakref.WeakSet = weakref.WeakSet()

    def apply(self, step) -> None:
        kind, x, y = step
        getattr(self, "op_" + kind)(x, y)

    def live_chunk(self, x, head_dropped=None):
        """The ``x``-th live chunk (wrapping), with its map and area;
        ``head_dropped`` narrows the choice to chunks with / without a head."""
        live = [
            (pmap, chunk)
            for pmap in self.pset.maps.values() for chunk in pmap.chunks.values()
            if head_dropped in (None, chunk.head_dropped)
        ]
        if not live:
            return None
        pmap, chunk = live[x % len(live)]
        return pmap, chunk, self.pset.chunkmap.area_of_id(chunk.area_id)

    def op_acquire(self, x, y):
        self.pset.acquire_chunk(MAPS[x % 2], self.areas[y % N_AREAS])

    def op_touch(self, x, y):
        if (found := self.live_chunk(x)) is not None:
            found[1].touch()

    def op_pin(self, x, y):
        pmap = self.pset.map_for(MAPS[x % 2])
        self.storage.pin(pmap, self.areas[y % N_AREAS].area_id)

    def op_unpin_all(self, x, y):
        self.storage.unpin_all()

    def op_ensure_room(self, x, y):
        self.storage.ensure_room(x % 400)

    def op_budget(self, x, y):
        self.storage.budget_tuples = BUDGETS[x % len(BUDGETS)]

    def op_drop_chunk(self, x, y):
        # Every other draw names a (map, area) that may hold no chunk.
        if y % 2:
            area_id = self.areas[y % N_AREAS].area_id
            self.pset.map_for(MAPS[x % 2]).drop_chunk(area_id)
        elif (found := self.live_chunk(x)) is not None:
            found[0].drop_chunk(found[1].area_id)

    def op_drop_head(self, x, y):
        if (found := self.live_chunk(x, head_dropped=False)) is not None:
            found[1].drop_head()

    def op_recover_head(self, x, y):
        if (found := self.live_chunk(x, head_dropped=True)) is not None:
            self.pset._recover_head(*found)

    def op_insert(self, x, y):
        count = 1 + x % 6
        start = len(self.rel)
        rows = {
            "A": self.rng.integers(0, 10 * 75 * N_AREAS, size=count).astype(np.int64),
            "B": self.rng.integers(0, 1_000, size=count).astype(np.int64),
            "C": self.rng.integers(0, 1_000, size=count).astype(np.int64),
        }
        self.rel.append_rows(rows)
        self.pset.add_insertions(rows["A"], np.arange(start, start + count))
        self.pset.merge_pending()

    def op_delete(self, x, y):
        live = [k for k in range(len(self.rel)) if k not in self.deleted]
        keys = self.rng.choice(live, size=1 + x % 4, replace=False).astype(np.int64)
        self.deleted.update(int(k) for k in keys)
        self.pset.add_deletions(self.rel.values("A")[keys], keys)
        self.pset.merge_pending()

    def op_align(self, x, y):
        """Replay the area tape to its end: insert and delete entries resize
        the chunk (and locating victims may create the key chunk)."""
        if (found := self.live_chunk(x)) is not None:
            pmap, chunk, area = found
            self.pset._bring_to(pmap, chunk, area, len(area.tape))

    def op_crack(self, x, y):
        """A query over one area: acquire, align (as a gang when two maps
        take part), crack, and let go of the pins."""
        area = self.areas[x % N_AREAS]
        lo = (0 if area.lo_bound is None else area.lo_bound.value) + 75 * (y % 10)
        attrs = list(MAPS) if y % 2 else [MAPS[x % 2]]
        self.pset.prepare_area(area, Interval.open(lo, lo + 150), attrs)
        self.storage.unpin_all()

    def op_unregister(self, x, y):
        pmap = self.pset.maps.pop(MAPS[x % 2], None) if y % 3 == 0 else None
        if pmap is not None:
            self.storage.unregister_map(pmap)
            self.snapshot = None  # it may hold the map this just retired

    def op_snapshot(self, x, y):
        self.snapshot = take_snapshot(self.pset, "partial_set")

    def op_restore(self, x, y):
        if self.snapshot is not None:
            self.snapshot()
            self.snapshot = None

    def check(self) -> None:
        storage = self.storage
        # Registration order is the set's map-creation order.
        assert storage.maps == list(self.pset.maps.values())
        assert storage.used_cells == recount_cells(storage)
        assert storage.used_tuples == recount_cells(storage) / 2
        # With no room at all, the scan's first victim is the next victim.
        assert [storage.peek_victim()] == (scan_evictions(storage, -1, 0)[:1] or [None])
        self.pset.check_invariants()
        checkpoint_query()
        self.seen.update(self.live_chunks())

    def live_chunks(self) -> list[Chunk]:
        return [
            chunk for pmap in self.storage.maps for chunk in pmap.chunks.values()
        ]


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10_000), ops=st.lists(op, min_size=10, max_size=60))
def test_any_interleaving_evicts_what_the_scan_would(seed, ops):
    model = StorageModel(seed)
    with checked_against_scan(model.storage):
        model.check()
        for step in ops:
            model.apply(step)
            model.check()
    # No strong reference to a dropped chunk is left behind: whatever was
    # ever counted is either still in a map or gone.
    model.snapshot = None
    gc.collect()
    live = {id(chunk) for chunk in model.live_chunks()}
    assert [chunk for chunk in model.seen if id(chunk) not in live] == []


def test_locating_a_deletion_recovers_a_dropped_key_head():
    """Deletes queued on an area whose ``M_Akey`` chunk lost its head at
    exactly the delete entry's tape position: locating the victims must
    rebuild that head first (it used to read the dropped ``None``)."""
    model = StorageModel(1)
    ops = [
        ("crack", 3, 0), ("crack", 3, 0), ("crack", 0, 0), ("delete", 0, 0),
        ("delete", 2, 0), ("align", 0, 0), ("insert", 0, 0), ("delete", 0, 0),
        ("drop_head", 1, 0), ("align", 0, 0),
    ]
    with checked_against_scan(model.storage):
        for step in ops:
            model.apply(step)
            model.check()


# -- fault rollback ------------------------------------------------------------------


def test_evictions_after_a_mid_query_rollback_match_the_scan(rng):
    """``partial.align=error`` fires mid-query under a tight budget: chunks
    created by the failed query vanish and chunks it evicted come back behind
    the storage manager's back, so the journal resyncs it — and the
    evictions that follow are again the oracle's."""
    rows, domain = 4_000, 100_000
    arrays = {
        c: rng.integers(1, domain, size=rows).astype(np.int64) for c in "ABC"
    }
    with Checks(faults="partial.align@12=error").armed():
        db = Database(chunk_budget=rows // 2)
        db.create_table("R", arrays)
        engine, baseline = SidewaysEngine(db, partial=True), PlainEngine(db)
        storage = db.chunk_storage
        recovered_at = None
        after_rollback = 0
        with checked_against_scan(storage) as evictions:
            for i in range(40):
                lo = int(rng.integers(1, domain * 0.8))
                query = Query(
                    "R", (Predicate("A", Interval.open(lo, lo + domain // 8)),),
                    projections=("B", "C"),
                )
                before = len(evictions)
                got, want = engine.run(query), baseline.run(query)
                assert np.array_equal(
                    np.sort(got.columns["B"]), np.sort(want.columns["B"])
                )
                assert storage.used_cells == recount_cells(storage)
                if got.fault_recovered:
                    assert recovered_at is None
                    recovered_at = i
                elif recovered_at is not None:
                    after_rollback += len(evictions) - before
        assert recovered_at is not None, "the fault plan never fired"
        assert after_rollback > 0, "no eviction followed the rollback"
        assert db.heal_faults() == []


def _budgeted_partial_db(rng, **kwargs):
    db = Database(chunk_budget=3_000, **kwargs)
    db.create_table("R", {
        c: rng.integers(1, 100_000, size=4_000).astype(np.int64) for c in "ABC"
    })
    engine = SidewaysEngine(db, partial=True)
    for _ in range(12):
        lo = int(rng.integers(1, 80_000))
        engine.run(Query(
            "R", (Predicate("A", Interval.open(lo, lo + 9_000)),),
            projections=("B", "C"),
        ))
    assert db.chunk_storage.used_cells == recount_cells(db.chunk_storage) > 0
    return db


def test_healing_a_partial_set_returns_its_cells(rng):
    db = _budgeted_partial_db(rng)
    pset = db._partial["R"].sets["A"]
    next(iter(pset.maps["B"].chunks.values())).tail[:] = -1  # unrecoverable
    assert db.heal_faults() == ["partial_set[R.A]"]
    assert db.chunk_storage.maps == []
    assert db.chunk_storage.used_cells == 0
    assert db.chunk_storage.peek_victim() is None


def test_a_discarded_database_frees_its_chunks_without_the_cycle_collector(rng):
    """Maps and chunks point back at the storage manager weakly, so no
    reference cycle parks a dead database's chunk arrays until a gc pass."""
    db = _budgeted_partial_db(rng)
    refs = [
        weakref.ref(chunk)
        for pmap in db.chunk_storage.maps for chunk in pmap.chunks.values()
    ]
    gc.collect()
    gc.disable()
    try:
        db.close()
        del db
        assert [ref() for ref in refs if ref() is not None] == []
    finally:
        gc.enable()


# -- scaling -------------------------------------------------------------------------


@contextmanager
def counted_chunk_reads():
    """Count every read of ``Chunk.storage_cells`` and ``Chunk.accesses``."""
    reads = Counter()
    storage_cells = Chunk.storage_cells

    def counted_cells(self):
        reads["storage_cells"] += 1
        return storage_cells.fget(self)

    def get_accesses(self):
        reads["accesses"] += 1
        return self.__dict__["accesses"]

    def set_accesses(self, value):
        self.__dict__["accesses"] = value

    Chunk.storage_cells = property(counted_cells)
    Chunk.accesses = property(get_accesses, set_accesses)
    try:
        yield reads
    finally:
        Chunk.storage_cells = storage_cells
        del Chunk.accesses


def _reads_per_ensure_room(live_chunks: int) -> Counter:
    rng = np.random.default_rng(5)
    rows = 4_096
    rel = Relation.from_arrays("R", {
        "A": rng.permutation(rows).astype(np.int64),
        "B": rng.integers(0, 1_000, size=rows).astype(np.int64),
    })
    storage = ChunkStorage(budget_tuples=None)
    pset = PartialMapSet(rel, "A", storage, PartialConfig(max_chunk_tuples=8))
    areas = pset.plan(Interval())[:live_chunks]
    assert len(areas) == live_chunks
    for area in areas:
        pset.acquire_chunk("B", area)
    storage.unpin_all()
    size = len(pset.maps["B"].get_chunk(areas[0]))
    storage.budget_tuples = int(storage.used_tuples)
    storage.ensure_room(size)  # settle the access counts queued at creation
    rounds = 10
    with counted_chunk_reads() as reads:
        for i in range(rounds):
            # A hit, a fitting request, and a request that costs one chunk.
            pset.maps["B"].get_chunk(areas[-1 - i]).touch()
            storage.budget_tuples = int(storage.used_tuples)
            storage.ensure_room(0)
            storage.ensure_room(size)
    assert len(pset.maps["B"].chunks) == live_chunks - 1 - rounds
    return reads


def test_ensure_room_work_does_not_grow_with_the_number_of_chunks():
    few, many = _reads_per_ensure_room(50), _reads_per_ensure_room(400)
    assert many == few
    assert few["storage_cells"] == 0
