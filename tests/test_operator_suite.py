"""The one sideways operator suite: ``SidewaysFacade`` runs every plan.

Full maps and partial maps share ``select_project`` / ``query`` and the
evaluator behind them; each facade only says how a plan's areas are
prepared.  These tests pin what that sharing must preserve:

* a differential over random plans, storage limits, crack budgets, crack
  policies, head dropping and interleaved updates — row content against a
  numpy scan, full == partial, and no result aliasing a live tail;
* recorder totals of fixed sequences, captured at the parent commit (the
  two per-facade copies of the suite), so the cost model provably charges
  the same work — and the one place it changed on purpose;
* one test per drift between the two old copies that was reconciled.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.partial import PartialConfig, PartialSidewaysCracker
from repro.core.sideways import SidewaysCracker, SidewaysFacade
from repro.cracking.bounds import Interval
from repro.engine.database import Database
from repro.errors import PlanError
from repro.stats.counters import StatsRecorder

ATTRS = "ABCD"


def make_db(rows, domain, seed=7, **kwargs):
    rng = np.random.default_rng(seed)
    db = Database(**kwargs)
    db.create_table(
        "R", {a: rng.integers(1, domain + 1, size=rows).astype(np.int64) for a in ATTRS}
    )
    return db


def scan(db, predicates, projections, conjunctive=True):
    """The answer key: a numpy scan over the live base rows, as row tuples."""
    relation = db.table("R")
    masks = [iv.mask(relation.values(a)) for a, iv in predicates.items()]
    mask = np.logical_and.reduce(masks) if conjunctive else np.logical_or.reduce(masks)
    mask = mask & ~db.tombstones("R")
    return sorted(zip(*(relation.values(p)[mask].tolist() for p in projections)))


def row_tuples(result, projections):
    """Result columns zipped position-wise: content *and* alignment."""
    assert set(result) == set(projections)
    return sorted(zip(*(result[p].tolist() for p in projections)))


def run_plan(facade, plan):
    kind, predicates, projections, head = plan
    if kind == "select_project":
        (attr, interval), = predicates.items()
        return facade.select_project(attr, interval, projections)
    return facade.query(
        predicates, projections, conjunctive=kind == "conjunctive", head_attr=head
    )


def live_tails(facade):
    for owner in facade.sets.values():
        for member in owner.maps.values():
            pairs = member.chunks.values() if hasattr(member, "chunks") else [member]
            for pair in pairs:
                yield pair.tail


def apply_update(rng, dbs, rows=5):
    """One insert + one delete batch, the same on every database."""
    values = {a: rng.integers(1, 1_000, size=rows).astype(np.int64) for a in ATTRS}
    live = np.flatnonzero(~dbs[0].tombstones("R"))
    victims = rng.choice(live, size=min(rows, len(live)), replace=False)
    for db in dbs:
        db.insert("R", {a: v.copy() for a, v in values.items()})
        db.delete("R", victims)


# -- the differential ---------------------------------------------------------------

ROWS, DOMAIN = 600, 1_000


@st.composite
def plans(draw):
    kind = draw(st.sampled_from(["select_project", "conjunctive", "disjunctive"]))
    n_preds = 1 if kind == "select_project" else draw(st.integers(1, 3))
    pred_attrs = draw(st.permutations(ATTRS))[:n_preds]
    predicates = {}
    for attr in pred_attrs:
        lo = draw(st.integers(0, DOMAIN))
        hi = lo + draw(st.integers(1, DOMAIN // 2))
        predicates[attr] = draw(st.sampled_from(
            [Interval.open, Interval.closed, Interval.half_open]
        ))(lo, hi)
    # Any attributes: predicate attributes and the head itself included.
    projections = draw(st.permutations(ATTRS))[: draw(st.integers(1, 3))]
    head = draw(st.sampled_from([None, *pred_attrs]))
    return kind, predicates, list(projections), head


@st.composite
def histories(draw):
    config = {
        "crack_policy": draw(st.sampled_from([None, "ddc", "mdd1r"])),
        "crack_budget": draw(st.sampled_from([None, "0.05", 40])),
        "crack_seed": draw(st.integers(0, 3)),
    }
    partial = {
        # Tight enough that one wide query's chunks do not all fit.
        "chunk_budget": draw(st.sampled_from([None, ROWS // 2, 2 * ROWS])),
        "partial_config": PartialConfig(
            head_drop_mode=draw(st.sampled_from(["off", "cold", "cache"])),
            cold_threshold=2,
            cache_piece_tuples=64,
            max_chunk_tuples=draw(st.sampled_from([None, ROWS // 8])),
        ),
    }
    ops = draw(st.lists(st.one_of(plans(), st.just("update")), min_size=1, max_size=12))
    return config, partial, ops


@settings(max_examples=60, deadline=None)
@given(histories())
def test_full_and_partial_answer_every_plan_like_a_scan(history):
    config, partial, ops = history
    full_db = make_db(ROWS, DOMAIN, **config)
    partial_db = make_db(ROWS, DOMAIN, **config, **partial)
    facades = [full_db.sideways("R"), partial_db.partial_sideways("R")]
    rng = np.random.default_rng(0)
    for op in ops:
        if op == "update":
            apply_update(rng, [full_db, partial_db])
            continue
        kind, predicates, projections, _head = op
        want = scan(full_db, predicates, projections, kind != "disjunctive")
        for facade in facades:
            result = run_plan(facade, op)
            assert row_tuples(result, projections) == want
            for column in result.values():
                assert column.flags.writeable
                assert not any(np.shares_memory(column, t) for t in live_tails(facade))


# -- recorder totals, captured at the parent ---------------------------------------------

G_ROWS, G_DOMAIN = 6_000, 50_000

#: name -> (engine, Database kwargs, plan kinds cycled through, updates?).
#: The totals below show what each run exercises: 240 chunk drops under
#: eviction, sort entries replayed in ``cache`` mode (475 replays against
#: 80), heads recovered and re-cracked in ``cold`` mode (308 cracks).
GOLDEN_RUNS = {
    "full": ("full", {}, ("select_project", "conjunctive"), False),
    "partial_evicting": (
        "partial", {"chunk_budget": 4_000}, ("select_project", "conjunctive"), False,
    ),
    "full_disjunctive": ("full", {}, ("select_project", "disjunctive"), False),
    "partial_disjunctive": (
        "partial", {"chunk_budget": 9_000}, ("select_project", "disjunctive"), False,
    ),
    "full_updates": ("full", {}, ("select_project", "conjunctive"), True),
    "partial_updates": (
        "partial", {"chunk_budget": 4_000}, ("select_project", "conjunctive"), True,
    ),
    "partial_cold": (
        "partial",
        {"partial_config": PartialConfig(head_drop_mode="cold", cold_threshold=2)},
        ("select_project", "conjunctive"), False,
    ),
    "partial_cache": (
        "partial",
        {"partial_config": PartialConfig(head_drop_mode="cache", cache_piece_tuples=512)},
        ("select_project", "conjunctive"), False,
    ),
    "partial_budgeted": (
        "partial", {"crack_budget": "0.05"}, ("select_project", "conjunctive"), False,
    ),
    "full_budgeted": (
        "full", {"crack_budget": "0.05"}, ("select_project", "conjunctive"), False,
    ),
}


def golden_plans(kinds, count=40, seed=11):
    rng = np.random.default_rng(seed)
    for i in range(count):
        kind = kinds[i % len(kinds)]
        lo = int(rng.integers(0, G_DOMAIN - 8_000))
        head_iv = Interval.open(lo, lo + int(rng.integers(500, 8_000)))
        other_iv = Interval.open(int(rng.integers(0, 20_000)), int(rng.integers(25_000, G_DOMAIN)))
        if kind == "select_project":
            yield kind, {"A": head_iv}, ["B", "C"], None
        elif kind == "conjunctive":
            yield kind, {"A": head_iv, "B": other_iv}, ["C", "D"], "A"
        else:
            yield kind, {"A": head_iv, "B": Interval.open(0, lo // 10)}, ["C"], "A"


def golden_totals(name):
    """Run one fixed sequence; every answer is checked, the totals returned."""
    engine, kwargs, kinds, updates = GOLDEN_RUNS[name]
    recorder = StatsRecorder()
    db = make_db(G_ROWS, G_DOMAIN, recorder=recorder, **kwargs)
    facade = db.sideways("R") if engine == "full" else db.partial_sideways("R")
    rng = np.random.default_rng(5)
    for i, plan in enumerate(golden_plans(kinds)):
        if updates and i % 4 == 3:
            apply_update(rng, [db])
        kind, predicates, projections, _ = plan
        assert row_tuples(run_plan(facade, plan), projections) == scan(
            db, predicates, projections, kind != "disjunctive"
        )
    totals = recorder.root.as_dict()
    return {k: v for k, v in totals.items() if v}


#: ``AccessStats.as_dict()`` (zero entries dropped) of each run at the parent
#: commit, where each facade had its own copy of the operators.  The two
#: ``*_updates`` runs were re-captured once since, when the Ripple delete
#: charge became ``n`` minus the start of the first affected piece (it was
#: ``n`` minus the first victim's position): ``sequential`` and ``writes``
#: rose by the same amount, every other count is unchanged.
PARENT_TOTALS = {
    "full": {"sequential": 306636, "writes": 260658, "cracks": 140, "index_lookups": 402, "map_creations": 3, "alignment_replays": 80},
    "partial_evicting": {"sequential": 332938, "clustered_random": 46423, "writes": 286960, "cracks": 172, "index_lookups": 226, "map_creations": 1, "chunk_creations": 268, "chunk_drops": 240, "alignment_replays": 83},
    "full_disjunctive": {"sequential": 424182, "writes": 173772, "cracks": 138, "index_lookups": 358, "map_creations": 2, "alignment_replays": 40},
    "partial_disjunctive": {"sequential": 434916, "clustered_random": 12000, "writes": 184506, "cracks": 138, "index_lookups": 272, "map_creations": 1, "chunk_creations": 6, "alignment_replays": 40},
    "full_updates": {"sequential": 1057534, "clustered_random": 78, "writes": 1004074, "cracks": 203, "index_lookups": 529, "map_creations": 4, "alignment_replays": 200},
    "partial_updates": {"sequential": 583126, "clustered_random": 47310, "writes": 529666, "cracks": 217, "index_lookups": 293, "map_creations": 1, "chunk_creations": 279, "chunk_drops": 249, "alignment_replays": 168},
    "partial_cold": {"sequential": 381354, "clustered_random": 17142, "writes": 291392, "cracks": 308, "index_lookups": 413, "map_creations": 1, "chunk_creations": 74, "alignment_replays": 80},
    "partial_cache": {"sequential": 427394, "clustered_random": 17142, "writes": 381416, "cracks": 142, "index_lookups": 179, "map_creations": 1, "chunk_creations": 74, "alignment_replays": 475},
    "partial_budgeted": {"sequential": 265091, "clustered_random": 17142, "writes": 182288, "cracks": 91, "index_lookups": 100, "map_creations": 1, "chunk_creations": 74, "alignment_replays": 91},
    "full_budgeted": {"sequential": 1244004, "writes": 156996, "cracks": 6, "index_lookups": 200, "map_creations": 3, "alignment_replays": 82},
}
#: Drift (a): hole rows used to be qualified (head read) once per *map* on
#: full maps; they are qualified once per area now, as partial maps always
#: did, so a budgeted full-map plan reads ``h`` head values instead of
#: ``h`` per map.  Nothing else of the run moves.
FULL_BUDGETED_SEQUENTIAL = 918330


@pytest.mark.parametrize("name", sorted(GOLDEN_RUNS))
def test_recorder_totals_equal_the_parents(name):
    want = dict(PARENT_TOTALS[name])
    if name == "full_budgeted":
        assert FULL_BUDGETED_SEQUENTIAL < want["sequential"]
        want["sequential"] = FULL_BUDGETED_SEQUENTIAL
    assert golden_totals(name) == want


# -- one suite, and the drifts reconciled ------------------------------------------------


def test_facades_define_no_operator_of_their_own():
    names = {"select_project", "query", "_conjunctive", "_disjunctive", "_gather"}
    for facade in (SidewaysCracker, PartialSidewaysCracker):
        assert not names & set(vars(facade)), facade
        assert facade.select_project is SidewaysFacade.select_project
        assert facade.query is SidewaysFacade.query


def facades(rows=3_000, domain=20_000, **kwargs):
    full_db = make_db(rows, domain, **kwargs)
    partial_db = make_db(rows, domain, **kwargs)
    return [
        (full_db, full_db.sideways("R")),
        (partial_db, partial_db.partial_sideways("R")),
    ]


def test_holes_are_qualified_once_per_area_and_fit_every_pair():
    """Drift (a): one mask per hole, applied position-wise to all pairs."""
    iv = Interval.open(4_000, 9_000)
    for db, facade in facades(crack_budget=30):
        # Fetch a wider area first: partial maps crack chunks under the
        # budget, never the chunk map.
        facade.select_project("A", Interval.open(2_000, 12_000), ["B"])
        seen_holes = 0
        with facade._plan("A", iv, ["B", "C", "D"], False) as areas:
            for pairs, lo, hi, holes in areas:
                heads = [pair.head for pair in pairs.values()]
                for h_lo, h_hi, qualifies in holes:
                    seen_holes += 1
                    for head in heads:
                        assert np.array_equal(iv.mask(head[h_lo:h_hi]), qualifies)
                for head in heads:
                    assert iv.mask(head[lo:hi]).all()
        assert seen_holes, "a 30-element budget cannot finish this crack"
        result = facade.select_project("A", iv, ["B", "C", "D"])
        assert row_tuples(result, ["B", "C", "D"]) == scan(db, {"A": iv}, ["B", "C", "D"])


def test_a_lone_owned_part_is_returned_as_is_and_a_view_is_copied():
    """Drift (b): results are owned, at the cost of at most one copy."""
    from repro.core.sideways import _concat

    tail = np.arange(10)
    owned = tail[tail > 3]
    assert _concat([owned]) is owned
    copied = _concat([tail[2:5]])
    assert copied.tolist() == [2, 3, 4] and not np.shares_memory(copied, tail)
    assert _concat([tail[:2], owned]).tolist() == [0, 1, 4, 5, 6, 7, 8, 9]
    assert len(_concat([])) == 0


def test_cache_mode_sorts_after_the_results_were_taken():
    """Drift (b): the head-drop policy runs when the plan closes; in
    ``cache`` mode it sorts the very pieces the window was gathered from."""
    config = PartialConfig(head_drop_mode="cache", cache_piece_tuples=10_000)
    db = make_db(3_000, 20_000, partial_config=config)
    facade = db.partial_sideways("R")
    iv = Interval.open(4_000, 9_000)
    result = facade.select_project("A", iv, ["B", "C"])
    assert row_tuples(result, ["B", "C"]) == scan(db, {"A": iv}, ["B", "C"])
    # The first listed chunk sorted its pieces in place and taped that.
    (chunk,) = facade.sets["A"].maps["B"].chunks.values()
    assert chunk.head_dropped
    assert sorted(chunk.tail.tolist()) == sorted(result["B"].tolist())
    assert chunk.tail.tolist() != result["B"].tolist()


def test_head_drop_policy_sees_each_area_others_then_projections(monkeypatch):
    """Drift (c): in ``cache`` mode the first listed chunk of an area sorts
    and tapes, its siblings skip — so the order is behaviour."""
    from repro.core.partial.engine import PartialMapSet

    db = make_db(3_000, 20_000)
    facade = db.partial_sideways("R")
    facade.select_project("A", Interval.open(4_000, 9_000), ["B"])  # three areas
    seen = []
    monkeypatch.setattr(
        PartialMapSet, "apply_head_drop_policy", lambda self, used: seen.append(used)
    )
    predicates = {"A": Interval.open(2_000, 12_000), "B": Interval.open(0, 10_000)}
    facade.query(predicates, ["C", "B"], head_attr="A")
    (used,) = seen
    areas = list(dict.fromkeys(id(area) for _, area in used))
    assert len(areas) == 3
    assert [attr for attr, _ in used] == ["B", "C"] * 3
    assert [id(area) for _, area in used] == [a for a in areas for _ in range(2)]


def test_single_predicate_disjunction_takes_the_bit_vector_form():
    """Drift (d): it reconstructs from the whole pair on both sides."""
    iv = Interval.open(4_000, 9_000)
    charged = []
    for db, facade in facades():
        recorder = db.recorder
        facade.query({"A": iv}, ["B"], conjunctive=False)
        with recorder.frame() as frame:
            result = facade.query({"A": iv}, ["B"], conjunctive=False)
        assert row_tuples(result, ["B"]) == scan(db, {"A": iv}, ["B"])
        charged.append(frame.sequential)
    assert charged == [3_000, 3_000]


def test_nothing_to_read_returns_nothing_and_builds_nothing():
    """Drift (e): no tail attribute, no plan."""
    iv = Interval.open(4_000, 9_000)
    for _db, facade in facades():
        assert facade.select_project("A", iv, []) == {}
        assert facade.query({"A": iv}, []) == {}
        assert facade.query({"A": iv}, [], conjunctive=False) == {}
        assert facade.sets == {}
        # A second predicate is a tail to read: the plan runs, projects nothing.
        assert facade.query({"A": iv, "B": iv}, [], head_attr="A") == {}
        assert list(facade.sets) == ["A"]


def test_a_failing_plan_releases_its_pins():
    """Drift (f): cleanup does not wait for a garbage collector."""
    iv = Interval.open(4_000, 9_000)
    full_db = make_db(3_000, 20_000, full_map_budget=100_000)
    full = full_db.sideways("R")
    with pytest.raises(Exception):
        full.select_project("A", iv, ["B", "nope"])
    assert full_db.full_map_storage._pinned == set()

    partial_db = make_db(3_000, 20_000)
    partial = partial_db.partial_sideways("R")
    with pytest.raises(Exception):
        partial.select_project("A", iv, ["B", "nope"])
    assert partial_db.chunk_storage._pinned == set()
    assert [a.pin_count for a in partial.sets["A"].chunkmap.areas] == [0, 0, 0]
    # ... and an abandoned evaluation (the caller of ``_plan`` raises).
    with pytest.raises(PlanError):
        with partial._plan("A", iv, ["B"], False) as areas:
            next(iter(areas))
            assert partial_db.chunk_storage._pinned
            raise PlanError("caller gave up")
    assert partial_db.chunk_storage._pinned == set()
    assert [a.pin_count for a in partial.sets["A"].chunkmap.areas] == [0, 0, 0]


def test_disjunction_sees_updates_pending_outside_the_head_window():
    """Bug at the parent: the full-map disjunction merged only the updates
    inside the head interval, yet reads every row outside ``w`` too."""
    predicates = {"A": Interval.open(4_000, 9_000), "B": Interval.open(0, 5_000)}
    for db, facade in facades():
        facade.query(predicates, ["C"], conjunctive=False, head_attr="A")
        # One row only B qualifies joins, another one leaves.
        db.insert("R", {"A": [15_000], "B": [100], "C": [-1], "D": [0]})
        relation = db.table("R")
        victim = np.flatnonzero(
            (relation.values("A") > 9_000) & (relation.values("B") < 5_000)
        )[:1]
        db.delete("R", victim)
        result = facade.query(predicates, ["C"], conjunctive=False, head_attr="A")
        assert row_tuples(result, ["C"]) == scan(db, predicates, ["C"], False)
        assert -1 in result["C"]


def test_a_plan_accesses_each_map_once():
    """A projection that is also a predicate attribute reads the pair the
    bit vector was built from; the full facade used to select it twice."""
    predicates = {"A": Interval.open(4_000, 9_000), "B": Interval.open(0, 10_000)}
    db = make_db(3_000, 20_000)
    facade = db.sideways("R")
    result = facade.query(predicates, ["B", "C"], head_attr="A")
    assert row_tuples(result, ["B", "C"]) == scan(db, predicates, ["B", "C"])
    maps = facade.sets["A"].maps
    assert {attr: cmap.accesses for attr, cmap in maps.items()} == {"B": 1, "C": 1}
