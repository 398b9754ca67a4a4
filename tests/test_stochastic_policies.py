"""Stochastic cracking: policies, determinism, replay, and accounting."""

import numpy as np
import pytest

from repro.cracking.bounds import Bound, Interval, Side
from repro.cracking.column import CrackerColumn
from repro.cracking.stochastic import (
    DEFAULT_MIN_PIECE,
    POLICIES,
    POLICY_NAMES,
    is_stochastic,
    policy_rng,
    resolve_policy,
)
from repro.core.mapset import MapSet
from repro.core.tape import CrackEntry
from repro.errors import AlignmentError, InvariantError, PlanError
from repro.stats.counters import AccessStats, StatsRecorder
from repro.storage.bat import BAT
from repro.storage.relation import Relation

STOCHASTIC_NAMES = [n for n in POLICY_NAMES if n != "query_driven"]


def make_column(policy_name=None, rows=3000, seed=5, min_piece=32):
    rng = np.random.default_rng(seed)
    values = rng.integers(1, 30_000, size=rows).astype(np.int64)
    column = CrackerColumn(
        BAT.from_values(values), StatsRecorder(),
        policy=resolve_policy(policy_name, min_piece=min_piece),
        rng=policy_rng(7, "test-column"),
    )
    return column, values


# -- resolution ---------------------------------------------------------------


def test_resolve_policy_names():
    assert resolve_policy(None) is None
    assert resolve_policy("query_driven").name == "query_driven"
    assert resolve_policy("MDD1R").name == "mdd1r"
    assert resolve_policy("query-driven").name == "query_driven"
    mdd1r = resolve_policy("mdd1r")
    assert resolve_policy(mdd1r) is mdd1r
    assert set(POLICY_NAMES) == set(POLICIES) | {"auto"}
    assert resolve_policy("auto").name == "auto"
    with pytest.raises(PlanError):
        resolve_policy("no_such_policy")


@pytest.mark.parametrize("name", ["ddr", "dd1c", "dd1r", "dd-1c", "adaptive"])
def test_dropped_policy_names_are_refused(name):
    with pytest.raises(PlanError) as excinfo:
        resolve_policy(name)
    assert "query_driven, ddc, mdd1r, auto" in str(excinfo.value)


def test_is_stochastic():
    assert not is_stochastic(None)
    assert not is_stochastic(resolve_policy("query_driven"))
    for name in STOCHASTIC_NAMES:
        assert is_stochastic(resolve_policy(name))


def test_default_min_piece():
    for name in POLICY_NAMES:
        assert resolve_policy(name).min_piece == DEFAULT_MIN_PIECE


# -- correctness & invariants --------------------------------------------------


@pytest.mark.parametrize("policy_name", list(POLICY_NAMES))
def test_policy_selects_match_brute_force(policy_name):
    column, values = make_column(policy_name)
    rng = np.random.default_rng(11)
    for _ in range(25):
        lo = int(rng.integers(1, 29_000))
        interval = Interval.half_open(lo, lo + 600)
        keys = column.select(interval)
        expected = np.flatnonzero(interval.mask(values))
        assert np.array_equal(np.sort(keys), expected)
        column.check_invariants()
    if policy_name != "query_driven":
        assert column.stochastic_cuts > 0


@pytest.mark.parametrize("policy_name", STOCHASTIC_NAMES)
def test_same_seed_same_permutation(policy_name):
    intervals = [Interval.half_open(lo, lo + 400) for lo in range(100, 20_000, 900)]
    heads = []
    for _ in range(2):
        column, _ = make_column(policy_name)
        for interval in intervals:
            column.select(interval)
        heads.append((column.head.copy(), column.keys.copy()))
    assert np.array_equal(heads[0][0], heads[1][0])
    assert np.array_equal(heads[0][1], heads[1][1])


def test_seed_to_permutation_regression():
    """Pin one seed's exact physical arrangement (replay compatibility)."""
    values = np.array([70, 10, 50, 30, 90, 20, 80, 40, 60, 35], dtype=np.int64)
    column = CrackerColumn(
        BAT.from_values(values), StatsRecorder(),
        policy=resolve_policy("mdd1r", min_piece=2),
        rng=policy_rng(123, "regression"),
    )
    column.select(Interval.half_open(30, 60))
    assert column.head.tolist() == [10, 20, 50, 30, 40, 35, 70, 60, 90, 80]
    assert column.keys.tolist() == [1, 5, 2, 3, 7, 9, 0, 8, 4, 6]


# -- map sets: tape logging and replay alignment -------------------------------


def make_mapset(policy_name="mdd1r", rows=4000, min_piece=32):
    rng = np.random.default_rng(3)
    relation = Relation.from_arrays("R", {
        "A": rng.integers(1, 40_000, size=rows).astype(np.int64),
        "B": rng.integers(1, 40_000, size=rows).astype(np.int64),
        "C": rng.integers(1, 40_000, size=rows).astype(np.int64),
    })
    return MapSet(
        relation, "A", StatsRecorder(),
        policy=resolve_policy(policy_name, min_piece=min_piece),
        rng=policy_rng(9, "test-mapset"),
    )


def test_aux_cuts_become_tape_entries():
    mapset = make_mapset()
    mapset.select("B", Interval.half_open(15_000, 15_400))
    crack_entries = [e for e in mapset.tape.entries if isinstance(e, CrackEntry)]
    assert mapset.stochastic_cuts > 0
    # One entry per auxiliary cut plus the query's own crack.
    assert len(crack_entries) == mapset.stochastic_cuts + 1
    one_sided = [
        e for e in crack_entries
        if e.interval.lower_bound() is None or e.interval.upper_bound() is None
    ]
    assert len(one_sided) == mapset.stochastic_cuts


def test_sibling_replay_reproduces_identical_boundaries():
    mapset = make_mapset()
    rng = np.random.default_rng(8)
    for _ in range(12):
        lo = int(rng.integers(1, 38_000))
        mapset.select("B", Interval.half_open(lo, lo + 500))
    map_b = mapset.maps["B"]
    map_c = mapset.get_map("C", align=True)  # replays the whole tape
    assert np.array_equal(map_b.head, map_c.head)
    assert [b for b, _ in map_b.index.inorder()] == \
           [b for b, _ in map_c.index.inorder()]
    map_b.check_invariants()
    map_c.check_invariants()


def test_replay_boundary_mismatch_raises():
    mapset = make_mapset()
    mapset.select("B", Interval.half_open(15_000, 15_600))
    mapset.get_map("C", align=True)  # stores the boundary signature
    map_b = mapset.maps["B"]
    # Tamper with the boundary set: alignment must detect the skew.
    map_b.index.insert(Bound(1.5, Side.LE), 0)
    with pytest.raises(InvariantError) as excinfo:
        mapset.align(map_b)
    # The violation is diagnostic-rich: map name, tape position, both lists.
    (violation,) = excinfo.value.violations
    assert violation.invariant == "replay-boundaries"
    context = dict(violation.context)
    assert context["map"] == "B"
    assert context["tape_position"] == len(mapset.tape)
    assert len(context["actual"]) == len(context["expected"]) + 1


# -- counters -------------------------------------------------------------------


def test_policy_cut_counters():
    recorder = StatsRecorder()
    with recorder.frame() as inner:
        recorder.policy_cut("mdd1r")
        recorder.policy_cut("mdd1r", 2)
        recorder.event("dd_cuts", 3)
        recorder.event("random_cracks", 3)
    assert inner.policy_cuts == {"mdd1r": 3}
    assert recorder.root.policy_cuts == {"mdd1r": 3}
    assert recorder.root.dd_cuts == 3
    assert recorder.root.random_cracks == 3


def test_access_stats_dict_add_and_snapshot():
    a = AccessStats(dd_cuts=1, policy_cuts={"ddc": 2})
    b = AccessStats(dd_cuts=4, policy_cuts={"ddc": 1, "mdd1r": 5})
    merged = a + b
    assert merged.dd_cuts == 5
    assert merged.policy_cuts == {"ddc": 3, "mdd1r": 5}
    snap = a.snapshot()
    snap.policy_cuts["ddc"] += 10
    assert a.policy_cuts == {"ddc": 2}  # snapshot copies the dict
    assert a.as_dict()["policy_cuts"] == {"ddc": 2}


def test_summary_reports_policy_breakdown():
    stats = AccessStats(
        cracks=7, dd_cuts=5, random_cracks=3, policy_cuts={"mdd1r": 5}
    )
    text = stats.summary()
    assert "7 query-driven" in text
    assert "5 data-driven" in text
    assert "3 random" in text
    assert "mdd1r=5" in text


def test_describe_state_and_explain_mention_policy():
    from repro.engine.database import Database
    from repro.engine.query import Predicate, Query
    from repro.engine.sideways_engine import SidewaysEngine

    db = Database(recorder=StatsRecorder(), crack_policy="mdd1r")
    rng = np.random.default_rng(2)
    db.create_table("R", {
        "A": rng.integers(1, 5000, 800).astype(np.int64),
        "B": rng.integers(1, 5000, 800).astype(np.int64),
    })
    engine = SidewaysEngine(db, partial=False)
    query = Query(table="R", predicates=(Predicate("A", Interval.half_open(10, 500)),),
                  projections=("B",))
    assert "mdd1r" in engine.explain(query)
    engine.run(query)
    assert "crack policy: mdd1r" in db.sideways("R").describe_state()


def test_cli_accepts_crack_policy_flag():
    from repro.cli import build_parser

    args = build_parser().parse_args(
        ["run", "exp14", "--scale", "0.1", "--crack-policy", "mdd1r"]
    )
    assert args.crack_policy == "mdd1r"
    assert args.experiment == "exp14"
