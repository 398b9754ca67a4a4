"""The TPC-H substrate: data generation, executor modes, query agreement."""

import numpy as np
import pytest

from repro.engine import ENGINE_FACTORIES
from repro.engine.database import Database
from repro.engine.query import Predicate
from repro.cracking.bounds import Interval
from repro.errors import PlanError
from repro.workloads.tpch import ModeExecutor, ParamGen, QUERIES, generate
from repro.workloads.tpch.dates import CURRENT_DATE, END_DATE, START_DATE, add_months, add_years, d
from repro.workloads.tpch.queries import results_equal
from repro.workloads.tpch.runner import (
    run_mixed_workload,
    run_query_sequence,
    verify_modes_agree,
)


@pytest.fixture(scope="module")
def data():
    return generate(scale_factor=0.005, seed=9)


@pytest.fixture(scope="module")
def dbs(data):
    out = {}
    for mode in ENGINE_FACTORIES:
        db = Database()
        data.load_into(db)
        out[mode] = ModeExecutor(db, mode)
    return out


class TestDates:
    def test_ordinal_roundtrip(self):
        assert d(1992, 1, 1) == 0
        assert d(1992, 1, 2) == 1
        assert START_DATE < CURRENT_DATE < END_DATE

    def test_add_months_clamps(self):
        jan31 = d(1993, 1, 31)
        feb = add_months(jan31, 1)
        assert feb == d(1993, 2, 28)

    def test_add_years(self):
        assert add_years(d(1994, 3, 15), 2) == d(1996, 3, 15)


class TestDatagen:
    def test_cardinalities_scale(self, data):
        counts = data.row_counts()
        assert counts["region"] == 5
        assert counts["nation"] == 25
        assert counts["partsupp"] == 4 * counts["part"]
        assert counts["lineitem"] >= counts["orders"]

    def test_date_arithmetic_holds(self, data):
        line = data.tables["lineitem"]
        assert (line["l_shipdate"] < line["l_receiptdate"]).all()
        assert (line["l_quantity"] >= 1).all() and (line["l_quantity"] <= 50).all()
        assert (line["l_discount"] >= 0).all() and (line["l_discount"] <= 0.10).all()

    def test_returnflag_rule(self, data):
        line = data.tables["lineitem"]
        returned = np.isin(line["l_returnflag"], ["R", "A"])
        assert (line["l_receiptdate"][returned] <= CURRENT_DATE).all()
        not_returned = line["l_returnflag"] == "N"
        assert (line["l_receiptdate"][not_returned] > CURRENT_DATE).all()

    def test_orders_reference_customers(self, data):
        orders = data.tables["orders"]
        n_cust = data.row_counts()["customer"]
        assert orders["o_custkey"].min() >= 1
        assert orders["o_custkey"].max() <= n_cust


class TestExecutor:
    def test_string_helpers(self, dbs):
        ex = dbs["monetdb"]
        iv = ex.eq("lineitem", "l_returnflag", "R")
        codes = ex.codes("lineitem", "l_shipmode", ["AIR", "MAIL"])
        assert len(codes) == 2
        assert iv.lo == iv.hi

    def test_prefix_helper(self, dbs):
        ex = dbs["monetdb"]
        iv = ex.prefix("part", "p_type", "PROMO")
        codes = ex.db.table("part").values("p_type")
        dictionary = ex.db.table("part").column("p_type").dictionary
        matched = iv.mask(codes)
        for code in np.unique(codes[matched]):
            assert dictionary.values[code].startswith("PROMO")

    def test_unknown_mode_rejected(self, data):
        db = Database()
        data.load_into(db)
        with pytest.raises(PlanError):
            ModeExecutor(db, "oracle9i")

    def test_select_modes_agree(self, dbs):
        iv = Interval.half_open(d(1994, 1, 1), d(1995, 1, 1))
        preds = [Predicate("l_shipdate", iv)]
        cols = ["l_orderkey", "l_quantity"]
        reference = None
        for mode, ex in dbs.items():
            out = ex.select("lineitem", preds, cols)
            rows = sorted(zip(out["l_orderkey"].tolist(), out["l_quantity"].tolist()))
            if reference is None:
                reference = rows
            assert rows == reference, mode

    def test_residual_filter(self, dbs):
        ex = dbs["monetdb"]
        out = ex.select(
            "lineitem", [], ["l_commitdate", "l_receiptdate"],
            residual=lambda c: c["l_commitdate"] < c["l_receiptdate"],
        )
        assert (out["l_commitdate"] < out["l_receiptdate"]).all()


class TestQueriesAgree:
    @pytest.mark.parametrize("query_id", sorted(QUERIES))
    def test_all_modes_agree(self, dbs, query_id):
        params_gen = ParamGen(seed=31 + query_id)
        fn = QUERIES[query_id]
        for _ in range(2):
            params = getattr(params_gen, f"q{query_id}")()
            results = {mode: fn(ex, params) for mode, ex in dbs.items()}
            reference = results["monetdb"]
            for mode, result in results.items():
                assert results_equal(result, reference), (query_id, mode)

    def test_q6_returns_revenue(self, dbs):
        params = ParamGen(seed=1).q6()
        result = QUERIES[6](dbs["monetdb"], params)
        assert len(result) == 1
        assert result[0][0] >= 0

    def test_q1_groups(self, dbs):
        params = ParamGen(seed=1).q1()
        result = QUERIES[1](dbs["monetdb"], params)
        assert 1 <= len(result) <= 6  # (flag, status) combinations

    def test_q3_top10(self, dbs):
        params = ParamGen(seed=1).q3()
        result = QUERIES[3](dbs["monetdb"], params)
        assert len(result) <= 10
        revenues = [row[1] for row in result]
        assert revenues == sorted(revenues, reverse=True)


class TestResultsEqual:
    def test_tolerates_cents(self):
        assert results_equal([(1, 100.00)], [(1, 100.01)])

    def test_rejects_structural_difference(self):
        assert not results_equal([(1,)], [(1,), (2,)])
        assert not results_equal([(1, 2)], [(1, 3)])

    def test_rejects_large_float_gap(self):
        assert not results_equal([(100.0,)], [(200.0,)])


class TestRunner:
    def test_run_query_sequence(self, data):
        run = run_query_sequence(data, "sideways", 6, variations=3, seed=5)
        assert len(run.seconds) == 3
        assert len(run.model_ms) == 3
        assert all(s >= 0 for s in run.seconds)

    def test_presort_cost_reported(self, data):
        run = run_query_sequence(data, "presorted", 6, variations=2, seed=5)
        assert run.presort_seconds > 0

    def test_mixed_workload(self, data):
        run = run_mixed_workload(data, "monetdb", batches=1, seed=5)
        assert len(run.seconds) == len(QUERIES)

    def test_verify_modes_agree(self, data):
        verify_modes_agree(data, ["monetdb", "sideways"], variations=1)
