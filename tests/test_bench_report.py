"""Benchmark reporting helpers and the shared harness."""

import numpy as np
import pytest

from repro.bench.harness import SequenceRunner, SystemSetup
from repro.bench.report import format_table, series_summary
from repro.cracking.bounds import Interval
from repro.engine import ENGINE_FACTORIES
from repro.engine.query import Predicate, Query


class TestFormatTable:
    def test_alignment_and_title(self):
        text = format_table(
            ["name", "value"], [["a", 1.5], ["long-name", 2.0]], title="T"
        )
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "name" in lines[1] and "value" in lines[1]
        assert set(lines[2]) <= {"-", " "}
        assert len(lines) == 5

    def test_float_formatting(self):
        text = format_table(["x"], [[0.000123], [12345.6], [0.5], [0.0]])
        assert "0.000123" in text
        assert "1.23e+04" in text
        assert "0.500" in text

    def test_empty_rows(self):
        text = format_table(["a", "b"], [])
        assert "a" in text


class TestSeriesSummary:
    def test_downsamples_evenly(self):
        series = list(range(100))
        points = series_summary(series, points=5)
        assert points[0] == 0
        assert points[-1] == 99
        assert len(points) == 5

    def test_short_series(self):
        assert series_summary([7.0], points=4) == [7.0, 7.0, 7.0, 7.0]

    def test_empty(self):
        assert series_summary([], points=3) == []


class TestSystemSetup:
    def test_every_factory_constructs(self, small_arrays):
        for system in ENGINE_FACTORIES:
            setup = SystemSetup(system, {"R": dict(small_arrays)})
            assert setup.engine.name in (system, setup.engine.name)
            assert len(setup.db.table("R")) == len(small_arrays["A"])

    def test_isolated_databases(self, small_arrays):
        a = SystemSetup("sideways", {"R": dict(small_arrays)})
        b = SystemSetup("sideways", {"R": dict(small_arrays)})
        assert a.db is not b.db

    def test_unknown_system(self, small_arrays):
        with pytest.raises(KeyError):
            SystemSetup("oracle", {"R": dict(small_arrays)})


class TestSequenceRunner:
    def test_collects_costs_and_storage(self, small_arrays):
        setup = SystemSetup("sideways", {"R": dict(small_arrays)})
        runner = SequenceRunner(setup)
        query = Query(
            "R",
            predicates=(Predicate("A", Interval.open(100, 50_000)),),
            projections=("B",),
        )
        runner.run_all([query, query, query])
        assert len(runner.costs) == 3
        assert len(runner.storage_samples) == 3
        assert runner.cumulative_seconds() > 0
        assert runner.cumulative_model_ms() > 0
        # Maps were created: storage grows from zero.
        assert runner.storage_samples[-1] > 0

    def test_phase_breakdown_recorded(self, small_arrays):
        setup = SystemSetup("monetdb", {"R": dict(small_arrays)})
        runner = SequenceRunner(setup)
        query = Query(
            "R",
            predicates=(Predicate("A", Interval.open(100, 50_000)),),
            projections=("B",),
        )
        runner.run(query)
        assert "select" in runner.costs[0].phase_seconds
