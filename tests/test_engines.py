"""Cross-engine integration: every system answers with the same rows."""

import numpy as np
import pytest

from repro.cracking.bounds import Interval
from repro.engine import (
    Database,
    JoinQuery,
    JoinSide,
    PlainEngine,
    Predicate,
    PresortedEngine,
    Query,
    RowStoreEngine,
    SelectionCrackingEngine,
    SidewaysEngine,
)
from repro.errors import PlanError


@pytest.fixture
def twodb(rng):
    db = Database()
    n = 3_000
    db.create_table("R", {c: rng.integers(1, 20_001, size=n) for c in "ABCDEFG"})
    s = {c: rng.integers(1, 20_001, size=n) for c in "ABCDEF"}
    s["G"] = rng.integers(1, n + 1, size=n)  # join attribute, denser domain
    db.create_table("S2", s)
    return db


def all_engines(db):
    return [
        PlainEngine(db),
        PresortedEngine(db),
        SelectionCrackingEngine(db),
        SidewaysEngine(db),
        SidewaysEngine(db, partial=True),
        RowStoreEngine(db),
        RowStoreEngine(db, presorted=True),
    ]


def canonical_rows(columns):
    """The result as rows (one column per attribute, attributes by name),
    sorted: engines return rows in their own physical order, but a row's
    values must stay together."""
    attrs = sorted(columns)
    rows = np.column_stack([columns[a] for a in attrs]) if attrs else np.empty((0, 0))
    return attrs, rows[np.lexsort(rows.T[::-1])] if attrs else rows


def assert_same_rows(got, expected, label):
    got_attrs, got_rows = canonical_rows(got)
    expected_attrs, expected_rows = canonical_rows(expected)
    assert got_attrs == expected_attrs, label
    assert np.array_equal(got_rows, expected_rows), label


def assert_engines_agree(db, query):
    reference = None
    for engine in all_engines(db):
        result = engine.run(query)
        if reference is None:
            reference = (engine.name, result)
            continue
        name, ref = reference
        assert result.row_count == ref.row_count, (engine.name, name)
        assert_same_rows(result.columns, ref.columns, (engine.name, name))
        for key, value in ref.aggregates.items():
            got = result.aggregates[key]
            assert got == pytest.approx(value, rel=1e-9, nan_ok=True), (engine.name, key)


class TestSingleTable:
    def test_conjunctive_queries(self, twodb, rng):
        for _ in range(8):
            lo1 = int(rng.integers(0, 15_000))
            lo2 = int(rng.integers(0, 10_000))
            query = Query(
                "R",
                predicates=(
                    Predicate("A", Interval.open(lo1, lo1 + 6_000)),
                    Predicate("B", Interval.open(lo2, lo2 + 9_000)),
                ),
                projections=("C", "D"),
                aggregates=(("max", "C"), ("sum", "D"), ("count", "D")),
            )
            assert_engines_agree(twodb, query)

    def test_disjunctive_queries(self, twodb, rng):
        for _ in range(5):
            lo1 = int(rng.integers(0, 15_000))
            lo2 = int(rng.integers(0, 15_000))
            query = Query(
                "R",
                predicates=(
                    Predicate("A", Interval.open(lo1, lo1 + 2_000)),
                    Predicate("B", Interval.open(lo2, lo2 + 2_000)),
                ),
                projections=("C",),
                conjunctive=False,
            )
            assert_engines_agree(twodb, query)

    def test_single_predicate(self, twodb):
        query = Query(
            "R",
            predicates=(Predicate("A", Interval.open(5_000, 10_000)),),
            projections=("B",),
            aggregates=(("min", "B"), ("avg", "B")),
        )
        assert_engines_agree(twodb, query)

    def test_point_predicate(self, twodb):
        value = int(twodb.table("R").values("A")[0])
        query = Query(
            "R",
            predicates=(Predicate("A", Interval.point(value)),),
            projections=("B",),
        )
        assert_engines_agree(twodb, query)

    def test_empty_result(self, twodb):
        query = Query(
            "R",
            predicates=(Predicate("A", Interval.open(30_000, 40_000)),),
            projections=("B",),
            aggregates=(("max", "B"),),
        )
        assert_engines_agree(twodb, query)

    def test_no_predicates(self, twodb):
        query = Query("R", projections=("A",), aggregates=(("count", "A"),))
        assert_engines_agree(twodb, query)

    def test_no_predicates_cost_one_pass_per_column(self, twodb):
        """Without a predicate every column store reads the same way; the
        row stores read whole rows."""
        query = Query("R", projections=("A", "B"))
        rows = len(twodb.table("R"))
        width = len(twodb.table("R").attributes)
        for engine in all_engines(twodb):
            result = engine.run(query)
            passes = width if engine.name.startswith("rowstore") else 2
            assert result.stats.sequential == passes * rows, engine.name


class TestSidewaysHistory:
    @pytest.mark.parametrize("partial", [False, True])
    def test_projections_stay_row_aligned_across_queries(self, partial):
        """A narrower query between two wider ones over the same head
        interval must not leave the second wide answer pairing one tuple's
        ``B`` with another tuple's ``C``."""
        rng = np.random.default_rng(0)
        db = Database()
        db.create_table("R", {c: rng.integers(0, 1_000, size=10_000) for c in "ABC"})
        engine = SidewaysEngine(db, partial=partial)
        scan = PlainEngine(db)
        history = [
            (Interval.closed(100, 400), ("B", "C")),
            (Interval.closed(200, 300), ("B",)),
            (Interval.closed(100, 400), ("C", "B")),
        ]
        for step, (interval, projections) in enumerate(history):
            query = Query("R", (Predicate("A", interval),), projections)
            assert_same_rows(
                engine.run(query).columns, scan.run(query).columns,
                (engine.name, step),
            )


class TestJoins:
    def test_join_queries_agree(self, twodb, rng):
        for _ in range(4):
            query = JoinQuery(
                left=JoinSide(
                    "R", join_attr="G",
                    predicates=(
                        Predicate("C", Interval.open(0, 12_000)),
                        Predicate("D", Interval.open(0, 8_000)),
                    ),
                    post_join_columns=("A", "B"),
                ),
                right=JoinSide(
                    "S2", join_attr="G",
                    predicates=(Predicate("C", Interval.open(0, 6_000)),),
                    post_join_columns=("E",),
                ),
                aggregates=(("max", "A"), ("count", "B"), ("sum", "E")),
            )
            rows = set()
            for engine in all_engines(twodb):
                result = engine.run_join(query)
                aggs = tuple(
                    (k, round(v, 4)) for k, v in sorted(result.aggregates.items())
                )
                rows.add((result.row_count, aggs))
            assert len(rows) == 1, rows

    def test_post_join_column_clash_rejected(self):
        with pytest.raises(PlanError):
            JoinQuery(
                left=JoinSide("R", "G", post_join_columns=("A",),
                              predicates=(Predicate("A", Interval.open(1, 2)),)),
                right=JoinSide("S2", "G", post_join_columns=("A",),
                               predicates=(Predicate("A", Interval.open(1, 2)),)),
            )


class TestUpdatesAcrossEngines:
    def test_engines_agree_after_updates(self, rng):
        db = Database()
        n = 2_000
        arrays = {c: rng.integers(1, 10_001, size=n) for c in "ABC"}
        db.create_table("T", arrays)
        # Warm the cracking structures before updating.
        engines = all_engines(db)
        warm = Query("T", predicates=(Predicate("A", Interval.open(1_000, 5_000)),),
                     projections=("B",))
        for engine in engines:
            engine.run(warm)
        db.insert("T", {c: rng.integers(1, 10_001, size=50) for c in "ABC"})
        victims = rng.choice(n, size=30, replace=False)
        db.delete("T", victims)
        query = Query(
            "T",
            predicates=(Predicate("A", Interval.open(1, 10_001)),),
            projections=("B", "C"),
            aggregates=(("count", "B"), ("sum", "C")),
        )
        reference = None
        for engine in engines:
            result = engine.run(query)
            key = (result.row_count, round(result.aggregates["sum(C)"], 2))
            if reference is None:
                reference = (key, result.columns)
            assert key == reference[0], engine.name
            assert_same_rows(result.columns, reference[1], engine.name)

    def test_double_delete_rejected(self, rng):
        db = Database()
        db.create_table("T", {"A": np.arange(10)})
        db.delete("T", np.array([3]))
        from repro.errors import UpdateError

        with pytest.raises(UpdateError):
            db.delete("T", np.array([3]))


class TestResultShape:
    def test_phase_timings_present(self, twodb):
        engine = PlainEngine(twodb)
        query = Query(
            "R", predicates=(Predicate("A", Interval.open(1, 10_000)),),
            projections=("B",),
        )
        result = engine.run(query)
        assert result.phase_seconds("select") > 0
        assert result.total_seconds >= result.phase_seconds("select")
        assert result.stats.total_touches > 0

    def test_join_phases_present(self, twodb):
        engine = PlainEngine(twodb)
        query = JoinQuery(
            left=JoinSide("R", "G",
                          predicates=(Predicate("A", Interval.open(1, 10_000)),),
                          post_join_columns=("B",)),
            right=JoinSide("S2", "G",
                           predicates=(Predicate("A", Interval.open(1, 10_000)),),
                           post_join_columns=("C",)),
        )
        result = engine.run_join(query)
        for phase in ("select", "tr_before", "join", "tr_after"):
            assert phase in result.timer.totals
