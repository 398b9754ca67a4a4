"""Batched tape replay: gang_replay_cracks == entry-at-a-time replay.

Alignment replays whole *runs* of consecutive crack entries through one
batched call (:func:`gang_replay_cracks`); the result must stay
bit-identical to replaying each entry individually, in both the sideways
map-set tape and the partial sideways chunk tapes.

The second half is the differential suite for the single tape interpreter
(:mod:`repro.core.replay`): every way of replaying one tape — a map, a
chunk, head-only recovery, a gang — must reach the same state, and the
decisions that reconciled the old copies are pinned one test each.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.analysis.checks import Checks
from repro.analysis.invariants import boundary_signature, pending_signature
from repro.core import replay
from repro.core.map import KEY_TAIL, CrackedPair, CrackerMap, tail_fetcher
from repro.core.mapset import MapSet
from repro.core.partial.chunk import Chunk
from repro.core.replay import align_gang, apply_entry
from repro.core.tape import (
    CrackerTape,
    DeleteEntry,
    InsertEntry,
    ProgressiveCrackEntry,
    SortEntry,
)
from repro.cracking.bounds import Interval
from repro.cracking.crack import gang_replay_crack, gang_replay_cracks
from repro.cracking.index import CrackerIndex
from repro.cracking.stochastic import resolve_policy
from repro.errors import AlignmentError
from repro.engine.database import Database
from repro.engine.scan import PlainEngine
from repro.engine.query import Predicate, Query
from repro.engine.sideways_engine import SidewaysEngine
from repro.stats.counters import StatsRecorder
from repro.storage.relation import Relation


@pytest.fixture
def mapset(rng):
    arrays = {
        c: rng.integers(0, 5_000, size=1_500).astype(np.int64) for c in "ABC"
    }
    return MapSet(Relation.from_arrays("R", arrays), "A",
                  recorder=StatsRecorder())


def _fresh_members(mapset, count):
    head, tail = mapset._snapshot_arrays("C")
    return [
        CrackerMap("A", f"g{i}", head.copy(), tail.copy(),
                   lambda keys: np.asarray(keys), StatsRecorder())
        for i in range(count)
    ]


def test_batched_equals_entry_at_a_time(mapset, rng):
    for lo in (150, 2_800, 900, 4_100, 1_700, 3_300):
        mapset.select("B", Interval.half_open(lo, lo + 400))
    intervals = [entry.interval for entry in mapset.tape.entries]

    solo = _fresh_members(mapset, 2)
    for interval in intervals:
        gang_replay_crack(solo, interval)

    batched = _fresh_members(mapset, 2)
    gang_replay_cracks(batched, intervals)

    for a, b in zip(solo, batched):
        assert np.array_equal(a.head, b.head)
        assert np.array_equal(a.tail, b.tail)
        assert [x for x, _ in a.index.inorder()] == [
            x for x, _ in b.index.inorder()
        ]


def test_batched_replay_in_chunks_matches_whole_run(mapset, rng):
    # Splitting one run into arbitrary batches changes nothing: later cracks
    # subdivide earlier pieces the same way wherever the batch boundary sits.
    for lo in (500, 3_000, 1_200, 4_400, 2_100):
        mapset.select("B", Interval.half_open(lo, lo + 350))
    intervals = [entry.interval for entry in mapset.tape.entries]

    whole = _fresh_members(mapset, 1)
    gang_replay_cracks(whole, intervals)
    split = _fresh_members(mapset, 1)
    gang_replay_cracks(split, intervals[:2])
    gang_replay_cracks(split, intervals[2:])
    assert np.array_equal(whole[0].head, split[0].head)
    assert np.array_equal(whole[0].tail, split[0].tail)


def test_mapset_alignment_batches_crack_runs(mapset):
    for lo in (200, 1_400, 3_100, 4_200):
        mapset.select("B", Interval.half_open(lo, lo + 250))
    run_length = len(mapset.tape)
    stale = mapset.get_map("C")
    before = mapset._recorder.root.alignment_replays
    mapset.align(stale)
    replays = mapset._recorder.root.alignment_replays - before
    assert stale.cursor == run_length
    # The whole crack run is accounted per member in one batched pass
    # (C plus the same-cursor @key sibling it drags along).
    assert replays >= run_length
    assert np.array_equal(
        stale.head, mapset.get_map("B", align=True).head
    )
    mapset.check_invariants(deep=True)


@pytest.mark.parametrize("partial", [False, True])
def test_engine_results_unchanged_by_batched_replay(partial, rng):
    arrays = {
        c: rng.integers(0, 20_000, size=3_000).astype(np.int64) for c in "ABCD"
    }
    with Checks(sanitize="post-query").armed():
        db = Database()
        db.create_table("R", arrays)
        engine = SidewaysEngine(db, partial=partial)
        baseline = PlainEngine(db)
        for _ in range(10):
            lo = int(rng.integers(0, 15_000))
            query = Query(
                "R",
                (Predicate("A", Interval.half_open(lo, lo + 2_500)),),
                projections=("B", "C"),
            )
            got = engine.run(query)
            want = baseline.run(query)
            assert got.row_count == want.row_count
            for attr in ("B", "C"):
                assert np.array_equal(
                    np.sort(got.columns[attr]), np.sort(want.columns[attr])
                )
        assert db.recorder.root.alignment_replays > 0


# ---------------------------------------------------------------------------
# One interpreter: every replay path reaches the same state.
# ---------------------------------------------------------------------------

DOMAIN = 200

tape_step = st.one_of(
    st.tuples(st.just("crack"), st.integers(0, 180), st.integers(2, 60)),
    st.tuples(st.just("budget"), st.sampled_from([None, 5, 30, 0.25])),
    st.tuples(st.just("insert"), st.integers(1, 6)),
    st.tuples(st.just("delete"), st.integers(1, 4)),
    st.tuples(st.just("sort")),
)


def _state(pair):
    """Everything replay determines: arrays, boundaries, in-flight markers."""
    return (
        pair.head.tolist(),
        pair.tail.tolist(),
        boundary_signature(pair.index),
        pending_signature(pair.pending_cracks),
    )


def _fresh(mapset, kind, recorder):
    head, tail = mapset._snapshot_arrays("B")
    fetch = tail_fetcher(mapset.relation, "B", recorder)
    if kind is Chunk:
        return Chunk(0, head, tail, fetch, recorder)
    return CrackerMap("A", "B", head, tail, fetch, recorder)


def _replay_solo(tape, pair, upto):
    while pair.cursor < upto:
        pair.replay_entry(tape[pair.cursor])
    return pair


def _random_tape(seed, policy, steps):
    """A tape written through the public API only: eager cracks, stochastic
    auxiliary cuts, budgeted steps, force-finishes (an update merged while a
    crack is in flight), insert and delete batches, sort entries."""
    rng = np.random.default_rng(seed)
    rel = Relation.from_arrays("R", {
        c: rng.integers(0, DOMAIN, size=160).astype(np.int64) for c in "AB"
    })
    mapset = MapSet(
        rel, "A", recorder=StatsRecorder(),
        policy=resolve_policy(policy, min_piece=8),
        rng=np.random.default_rng(seed),
    )
    live_keys = list(range(len(rel)))
    for step in steps:
        if step[0] == "crack":
            mapset.select_window("B", Interval.open(step[1], step[1] + step[2]))
        elif step[0] == "budget":
            mapset.set_budget(step[1])
        elif step[0] == "insert":
            rows = {c: rng.integers(0, DOMAIN, size=step[1]).astype(np.int64)
                    for c in "AB"}
            keys = np.arange(len(rel), len(rel) + step[1], dtype=np.int64)
            rel.append_rows(rows)
            mapset.add_insertions(rows["A"], keys)
            live_keys.extend(keys.tolist())
            mapset.merge_pending()
        elif step[0] == "delete":
            count = min(step[1], len(live_keys))
            victims = rng.choice(live_keys, size=count, replace=False).astype(np.int64)
            live_keys = [k for k in live_keys if k not in set(victims.tolist())]
            mapset.add_deletions(rel.values("A")[victims], victims)
            mapset.merge_pending()
        elif not mapset.open_pendings:
            # Sort entries come from a head-drop preparation: a chunk aligned
            # to the tape's end sorts its pieces and logs it.
            mapset.get_map("B", align=True)  # locates every delete so far
            scribe = _replay_solo(
                mapset.tape, _fresh(mapset, Chunk, StatsRecorder()), len(mapset.tape)
            )
            scribe.sort_all_pieces(mapset.tape)
    return mapset, mapset.get_map("B", align=True)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    policy=st.sampled_from([None, "ddc", "mdd1r"]),
    steps=st.lists(tape_step, min_size=3, max_size=16),
    starts=st.lists(st.integers(0, 1_000), min_size=1, max_size=4),
    mid=st.integers(0, 1_000),
)
# The budget is lifted while a crack is in flight; the next query drains it
# with its lower bound and must still tape the eager crack of its upper one.
@example(seed=0, policy=None,
         steps=[("budget", 5), ("crack", 0, 2), ("budget", None), ("crack", 0, 2)],
         starts=[0], mid=0)
def test_every_replay_path_reaches_the_same_state(seed, policy, steps, starts, mid):
    mapset, live = _random_tape(seed, policy, steps)
    tape, end = mapset.tape, len(mapset.tape)
    want = _state(live)

    # (i) a map and (ii) a chunk, entry at a time.
    for kind in (CrackerMap, Chunk):
        pair = _replay_solo(tape, _fresh(mapset, kind, StatsRecorder()), end)
        assert isinstance(pair, CrackedPair)
        assert _state(pair) == want

    # (iii) head-only recovery: from the frozen snapshot at cursor 0, and
    # from a sibling's mid-tape state (its in-flight cracks included).
    chunk = pair
    snapshot_head, _ = mapset._snapshot_arrays("B")
    chunk.drop_head()
    chunk.recover_head(tape, snapshot_head, CrackerIndex(), 0)
    assert _state(chunk) == want
    sibling = _replay_solo(
        tape, _fresh(mapset, Chunk, StatsRecorder()), mid % (end + 1)
    )
    sibling_before = _state(sibling)
    chunk.drop_head()
    chunk.recover_head(
        tape, sibling.head, sibling.index, sibling.cursor, sibling.pending_cracks
    )
    assert _state(chunk) == want
    assert _state(sibling) == sibling_before

    # (iv) a gang of 1-4 maps and chunks starting at staggered cursors —
    # and it charges what the same members replaying alone are charged.
    # (``cracks`` / ``index_lookups`` count kernel passes and lookups, which
    # a gang shares by design; the element touches may not differ.)
    charged = []
    for gang in (False, True):
        recorder = StatsRecorder()
        members = [
            _replay_solo(
                tape, _fresh(mapset, (CrackerMap, Chunk)[i % 2], recorder),
                start % (end + 1),
            )
            for i, start in enumerate(starts)
        ]
        recorder.reset()
        if gang:
            align_gang(tape, members, end, recorder, "mapset.gang_replay")
        else:
            for member in members:
                _replay_solo(tape, member, end)
        for member in members:
            assert member.cursor == end
            assert _state(member) == want
        root = recorder.root
        charged.append((
            root.sequential, root.clustered_random, root.scattered_random,
            root.writes, root.alignment_replays,
        ))
    assert charged[0] == charged[1]


# -- the reconciled drift, one decision per test ------------------------------


def _pair(kind, rng, recorder=None, n=200):
    values = rng.integers(0, 1_000, size=n).astype(np.int64)
    recorder = recorder or StatsRecorder()
    fetch = lambda keys: np.asarray(keys, dtype=np.int64) * 10
    if kind is Chunk:
        return Chunk(0, values.copy(), values * 10, fetch, recorder)
    return CrackerMap("A", "B", values.copy(), values * 10, fetch, recorder)


def test_sort_replay_charges_every_array_it_permutes(rng):
    # (a) (1 + len(tails)) * (hi - lo), sequential and writes alike: two
    # arrays for a map or chunk, one for head-only recovery.
    pair = _pair(CrackerMap, rng)
    lo, hi = pair.crack(Interval.open(300, 700))
    bounds = Interval.open(300, 700)
    entry = SortEntry(bounds.lower_bound(), bounds.upper_bound())
    for tails, arrays in (([pair.tail.copy()], 2), ([], 1)):
        recorder = StatsRecorder()
        apply_entry(
            pair.index.clone(), pair.head.copy(), tails, {}, entry, (), recorder
        )
        assert recorder.root.sequential == arrays * (hi - lo)
        assert recorder.root.writes == arrays * (hi - lo)


def test_head_recovery_counts_no_alignment_replays(rng):
    # (b) the chunk already counted those entries when it replayed them.
    recorder = StatsRecorder()
    chunk = _pair(Chunk, rng, recorder)
    source = chunk.head.copy()
    tape = CrackerTape()
    for lo in (100, 400, 650):
        tape.append_crack(Interval.open(lo, lo + 120))
    _replay_solo(tape, chunk, len(tape))
    assert recorder.root.alignment_replays == len(tape)
    chunk.drop_head()
    chunk.recover_head(tape, source, CrackerIndex(), 0)
    assert recorder.root.alignment_replays == len(tape)


def _replay_through(caller, tape, rng):
    """Run ``tape`` through one of the interpreter's three callers."""
    pair = _pair(Chunk if caller == "recover_head" else caller, rng)
    if caller == "recover_head":
        source = pair.head.copy()
        pair.drop_head()
        pair.cursor = len(tape)
        pair.recover_head(tape, source, CrackerIndex(), 0)
    else:
        _replay_solo(tape, pair, len(tape))


CALLERS = [CrackerMap, Chunk, "recover_head"]


@pytest.mark.parametrize("caller", CALLERS)
def test_insert_entry_with_cracks_in_flight_is_refused(caller, rng):
    # (c) a Ripple merge would invalidate the in-flight window markers; the
    # owners tape a force-finish first, so this is a corrupted tape.
    tape = CrackerTape()
    tape.append(ProgressiveCrackEntry(Interval.open(500, 900).lower_bound(), 5))
    tape.append(
        InsertEntry(np.array([5], dtype=np.int64), np.array([999], dtype=np.int64))
    )
    with pytest.raises(AlignmentError, match="in-flight progressive cracks"):
        _replay_through(caller, tape, rng)


@pytest.mark.parametrize("caller", CALLERS)
def test_unlocated_delete_entry_has_one_wording(caller, rng):
    # (d)
    tape = CrackerTape()
    tape.append(
        DeleteEntry(np.array([5], dtype=np.int64), np.array([0], dtype=np.int64))
    )
    with pytest.raises(AlignmentError, match="before its positions were located"):
        _replay_through(caller, tape, rng)


def test_mapset_align_locates_delete_victims_up_front(mapset, monkeypatch):
    # (e) like the partial set: every delete entry on the way is located
    # before the map replays anything.
    for lo in (200, 1_400, 3_100):
        mapset.select("B", Interval.half_open(lo, lo + 250))
    mapset.get_map(KEY_TAIL, align=True)
    mapset.select("B", Interval.half_open(4_200, 4_450))
    key_map = mapset.get_map(KEY_TAIL)
    assert 0 < key_map.cursor < len(mapset.tape)
    mapset.add_deletions(key_map.head[:3].copy(), key_map.tail[:3].copy())
    mapset.merge_pending()
    delete = mapset.tape[len(mapset.tape) - 1]
    assert isinstance(delete, DeleteEntry) and delete.positions is None

    stale = mapset.get_map("C")  # alone at cursor 0: replays entry by entry
    located_at_replay = []
    original = CrackerMap.replay_entry

    def spy(self, entry):
        if self is stale:
            located_at_replay.append(delete.positions is not None)
        original(self, entry)

    monkeypatch.setattr(CrackerMap, "replay_entry", spy)
    mapset.align(stale)
    assert located_at_replay and all(located_at_replay)
    mapset.check_invariants(deep=True)


def test_gang_leader_is_first_member_in_caller_order(mapset, monkeypatch):
    # (f) stable by cursor: MapSet's leader is still the map being aligned,
    # and a straggler listed first does not lead the members behind it.
    for lo in (200, 1_400, 3_100, 4_200):
        mapset.select("B", Interval.half_open(lo, lo + 250))
    leaders = []
    shared = replay.gang_replay_cracks

    def spy(members, run, recorder):
        leaders.append(members[0])
        shared(members, run, recorder)

    monkeypatch.setattr(replay, "gang_replay_cracks", spy)
    late, first, second = _fresh_members(mapset, 3)
    _replay_solo(mapset.tape, late, 2)
    align_gang(
        mapset.tape, [late, first, second], len(mapset.tape), StatsRecorder(),
        "mapset.gang_replay",
    )
    assert leaders and all(leader is first for leader in leaders)
    assert np.array_equal(late.head, first.head)

    del leaders[:]
    c_map, d_map = mapset.get_map("C"), mapset.get_map("A")
    mapset.align(d_map)  # drags the same-cursor C along, but leads
    assert leaders and all(leader is d_map for leader in leaders)
    assert c_map.cursor == d_map.cursor == len(mapset.tape)
