"""Extra TPC-H coverage: the row-store mode, parameter generators, and the
exp12/exp13 driver plumbing."""

import numpy as np
import pytest

from repro.engine.database import Database
from repro.engine.query import Predicate
from repro.cracking.bounds import Interval
from repro.workloads.tpch import ModeExecutor, ParamGen, QUERIES, generate
from repro.workloads.tpch.datagen import BRANDS, NATIONS, SEGMENTS, SHIPMODES, TYPES
from repro.workloads.tpch.dates import d
from repro.workloads.tpch.queries import results_equal


@pytest.fixture(scope="module")
def data():
    return generate(scale_factor=0.004, seed=21)


class TestRowstoreMode:
    def test_rowstore_presorted_agrees(self, data):
        executors = {}
        for mode in ("monetdb", "rowstore_presorted"):
            db = Database()
            data.load_into(db)
            executors[mode] = ModeExecutor(db, mode)
        params_gen = ParamGen(seed=44)
        for query_id in (1, 6, 12, 14):
            params = getattr(params_gen, f"q{query_id}")()
            a = QUERIES[query_id](executors["monetdb"], params)
            b = QUERIES[query_id](executors["rowstore_presorted"], params)
            assert results_equal(a, b), query_id

    def test_rowstore_pays_full_width(self, data):
        db = Database()
        data.load_into(db)
        narrow = ModeExecutor(db, "presorted")
        db2 = Database()
        data.load_into(db2)
        wide = ModeExecutor(db2, "rowstore_presorted")
        iv = Interval.half_open(d(1994, 1, 1), d(1995, 1, 1))
        preds = [Predicate("l_shipdate", iv)]
        with narrow.recorder.frame() as narrow_stats:
            narrow.select("lineitem", preds, ["l_quantity"])
        with wide.recorder.frame() as wide_stats:
            wide.select("lineitem", preds, ["l_quantity"])
        assert wide_stats.sequential > narrow_stats.sequential


class TestParamGen:
    def test_q1_delta_range(self):
        gen = ParamGen(seed=1)
        for _ in range(50):
            assert 60 <= gen.q1()["delta"] <= 120

    def test_q3_vocabulary(self):
        gen = ParamGen(seed=2)
        for _ in range(20):
            params = gen.q3()
            assert params["segment"] in SEGMENTS
            assert d(1995, 3, 1) <= params["date"] <= d(1995, 3, 31)

    def test_q6_ranges(self):
        gen = ParamGen(seed=3)
        for _ in range(30):
            params = gen.q6()
            assert 0.02 <= params["discount"] <= 0.09
            assert params["quantity"] in (24, 25)
            assert d(1993) <= params["date"] <= d(1997)

    def test_q7_distinct_nations(self):
        gen = ParamGen(seed=4)
        for _ in range(50):
            params = gen.q7()
            assert params["nation1"] != params["nation2"]
            assert 0 <= params["nation2"] < len(NATIONS)

    def test_q8_region_matches_nation(self):
        gen = ParamGen(seed=5)
        from repro.workloads.tpch.datagen import REGIONS

        for _ in range(20):
            params = gen.q8()
            nation_region = NATIONS[params["nation"]][1]
            assert params["region"] == REGIONS[nation_region]
            assert params["type"] in TYPES

    def test_q12_distinct_modes(self):
        gen = ParamGen(seed=6)
        for _ in range(50):
            params = gen.q12()
            assert params["mode1"] != params["mode2"]
            assert {params["mode1"], params["mode2"]} <= set(SHIPMODES)

    def test_q19_quantity_bands(self):
        gen = ParamGen(seed=7)
        for _ in range(30):
            params = gen.q19()
            assert 1 <= params["quantity1"] <= 10
            assert 10 <= params["quantity2"] <= 20
            assert 20 <= params["quantity3"] <= 30
            assert params["brand1"] in BRANDS

    def test_q20_color_from_vocab(self):
        from repro.workloads.tpch.datagen import COLORS

        gen = ParamGen(seed=8)
        for _ in range(20):
            assert gen.q20()["color"] in COLORS


class TestQueryContent:
    def test_q20_finds_suppliers_somewhere(self, data):
        """Across many parameter draws, Q20 must return results sometimes."""
        db = Database()
        data.load_into(db)
        ex = ModeExecutor(db, "monetdb")
        gen = ParamGen(seed=9)
        total = 0
        for _ in range(12):
            total += len(QUERIES[20](ex, gen.q20()))
        assert total > 0

    def test_q19_revenue_positive_somewhere(self, data):
        db = Database()
        data.load_into(db)
        ex = ModeExecutor(db, "monetdb")
        gen = ParamGen(seed=10)
        revenues = [QUERIES[19](ex, gen.q19())[0][0] for _ in range(10)]
        assert any(r > 0 for r in revenues)

    def test_q12_counts_sum_to_qualifiers(self, data):
        db = Database()
        data.load_into(db)
        ex = ModeExecutor(db, "monetdb")
        params = ParamGen(seed=11).q12()
        rows = QUERIES[12](ex, params)
        assert all(high >= 0 and low >= 0 for _, high, low in rows)
        assert len(rows) <= 2


class TestAbsentStrings:
    def test_absent_strings_select_nothing_on_every_mode(self, data):
        """``eq`` of a string the dictionary lacks matches no row, as SQL
        ``=`` would; ``codes`` skips it."""
        for mode in ("monetdb", "presorted", "selection_cracking", "sideways"):
            db = Database()
            data.load_into(db)
            ex = ModeExecutor(db, mode)
            for string in ("AAA", "MEDIUM", "ZZZ"):
                preds = [Predicate("p_type", ex.eq("part", "p_type", string))]
                out = ex.select("part", preds, ["p_partkey"])
                assert len(out["p_partkey"]) == 0, (mode, string)
            empty = [Predicate("p_name", ex.prefix("part", "p_name", "zzz"))]
            assert len(ex.select("part", empty, ["p_partkey"])["p_partkey"]) == 0
            present = ex.codes("part", "p_type", ["AAA", TYPES[0], "ZZZ"])
            assert list(present) == [ex.eq("part", "p_type", TYPES[0]).lo]

    def test_exp12_runs_below_scale_0_1(self):
        from repro.bench import exp12_tpch

        result = exp12_tpch.run(scale=0.05, variations=2)
        assert set(result["series_ms"]) == set(QUERIES)


class TestBenchDrivers:
    def test_exp12_driver_structure(self):
        from repro.bench import exp12_tpch

        result = exp12_tpch.run(scale=0.1, variations=2)
        assert set(result["series_ms"]) == set(QUERIES)
        for query_id, summary in result["summary_wallclock"].items():
            assert set(summary) == {"SiCr", "PrMo"}
        assert all(v >= 0 for v in result["presort_seconds"].values())
