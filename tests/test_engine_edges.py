"""Edge cases across the engine layer."""

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
    SelectionCrackingEngine,
    SidewaysEngine,
)
from repro.errors import PlanError


class TestSidewaysJoinEdges:
    def test_join_side_requires_predicates(self, db):
        engine = SidewaysEngine(db)
        query = JoinQuery(
            left=JoinSide("R", "A", post_join_columns=("B",)),
            right=JoinSide("R", "A",
                           predicates=(Predicate("B", Interval.open(1, 2)),)),
        )
        with pytest.raises(PlanError):
            engine.run_join(query)

    def test_single_predicate_join_side(self, db):
        engine = SidewaysEngine(db)
        query = JoinQuery(
            left=JoinSide(
                "R", "A",
                predicates=(Predicate("B", Interval.open(1, 60_000)),),
                post_join_columns=("C",),
            ),
            right=JoinSide(
                "R", "A",
                predicates=(Predicate("C", Interval.open(1, 60_000)),),
                post_join_columns=("D",),
            ),
            aggregates=(("count", "C"),),
        )
        side = engine.run_join(query)
        plain = PlainEngine(db).run_join(query)
        assert side.row_count == plain.row_count


class TestQueryValidation:
    def test_duplicate_predicates_rejected(self):
        with pytest.raises(PlanError):
            Query(
                "R",
                predicates=(
                    Predicate("A", Interval.open(1, 2)),
                    Predicate("A", Interval.open(3, 4)),
                ),
            )

    def test_unknown_aggregate_rejected(self):
        with pytest.raises(PlanError):
            Query("R", aggregates=(("median", "A"),))

    def test_aggregates_over_empty_result_are_nan(self, db):
        query = Query(
            "R",
            predicates=(Predicate("A", Interval.open(10**9, 10**9 + 1)),),
            aggregates=(("max", "B"), ("sum", "B"), ("count", "B")),
        )
        result = PlainEngine(db).run(query)
        assert np.isnan(result.aggregates["max(B)"])
        assert np.isnan(result.aggregates["sum(B)"])
        assert result.aggregates["count(B)"] == 0.0


class TestPredicatesWithoutProjections:
    """``select from R where ...``: nothing to return, and nothing to read."""

    ENGINES = {
        "scan": PlainEngine,
        "presorted": PresortedEngine,
        "selection_cracking": SelectionCrackingEngine,
        "sideways": SidewaysEngine,
        "partial_sideways": lambda db: SidewaysEngine(db, partial=True),
    }

    @pytest.mark.parametrize("engine", sorted(ENGINES))
    @pytest.mark.parametrize("attrs", ["A", "AB"])
    @pytest.mark.parametrize("conjunctive", [True, False])
    def test_every_engine_returns_no_columns(self, db, engine, attrs, conjunctive):
        query = Query(
            "R",
            tuple(Predicate(a, Interval.open(20_000, 60_000)) for a in attrs),
            conjunctive=conjunctive,
        )
        result = self.ENGINES[engine](db).run(query)
        assert result.columns == {}
        assert result.row_count == 0
        assert result.aggregates == {}


class TestRecorderIsolation:
    def test_databases_do_not_share_recorders(self, small_arrays):
        a = Database()
        a.create_table("R", dict(small_arrays))
        b = Database()
        b.create_table("R", dict(small_arrays))
        # Default recorder is global; SystemSetup-style isolation needs an
        # explicit recorder.  Verify that passing one isolates accounting.
        from repro.stats.counters import StatsRecorder

        rec = StatsRecorder()
        c = Database(recorder=rec)
        c.create_table("R", dict(small_arrays))
        engine = SidewaysEngine(c)
        engine.run(Query("R", predicates=(Predicate("A", Interval.open(1, 10)),),
                         projections=("B",)))
        assert rec.root.total_touches > 0


class TestDictColumnQueries:
    def test_crack_on_dictionary_codes(self, rng):
        db = Database()
        tags = np.array([["alpha", "beta", "gamma"][i % 3] for i in range(3_000)])
        db.create_table("T", {"tag": tags, "v": rng.integers(0, 100, 3_000)})
        code = db.table("T").column("tag").dictionary.code_of("beta")
        engine = SidewaysEngine(db)
        query = Query(
            "T",
            predicates=(Predicate("tag", Interval.point(code)),),
            projections=("v",),
            aggregates=(("count", "v"),),
        )
        result = engine.run(query)
        assert result.aggregates["count(v)"] == 1_000.0
