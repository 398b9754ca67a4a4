"""Fuzz the engines under CrackSan deep: zero violations, scan-identical results.

Every (engine, crack policy, workload pattern) cell runs a fresh database
inside a ``Checks(sanitize="deep")`` scope — so after every query the
sanitizer sweeps every live cracking structure, including base-permutation and tape-replay
consistency checks — and every result set must match a plain scan.
The adversarial patterns are the exp14 stochastic-cracking workloads that
historically stress the auxiliary-cut replay machinery hardest.
"""

from contextlib import contextmanager

import numpy as np
import pytest

from repro.analysis.checks import Checks
from repro.cracking.bounds import Interval
from repro.engine.database import Database
from repro.engine.query import Predicate, Query
from repro.engine.scan import PlainEngine
from repro.engine.selection_cracking import SelectionCrackingEngine
from repro.engine.sideways_engine import SidewaysEngine
from repro.workloads.synthetic import adversarial_intervals, random_range

ROWS = 1_500
DOMAIN = 12_000
N_QUERIES = 12
SELECTIVITY = 0.04

ENGINES = ("selection_cracking", "sideways", "partial_sideways")
POLICIES = (None, "ddc", "mdd1r")
PATTERNS = ("uniform", "sequential", "zoom_in")


@contextmanager
def deep_db(policy):
    """A database built and queried inside one CrackSan-deep scope; yields
    it with the scope's sanitizer."""
    rng = np.random.default_rng(31)
    arrays = {
        attr: rng.integers(1, DOMAIN + 1, size=ROWS).astype(np.int64)
        for attr in "ABC"
    }
    with Checks(sanitize="deep").armed(seed=17) as armed:
        db = Database(crack_policy=policy, crack_seed=17)
        db.create_table("R", arrays)
        yield db, armed.sanitizer


def make_engine(name, db):
    if name == "selection_cracking":
        return SelectionCrackingEngine(db)
    if name == "sideways":
        return SidewaysEngine(db, partial=False)
    return SidewaysEngine(db, partial=True)


def workload(pattern):
    if pattern == "uniform":
        rng = np.random.default_rng(23)
        return [random_range(rng, DOMAIN, SELECTIVITY) for _ in range(N_QUERIES)]
    return adversarial_intervals(
        pattern, DOMAIN, N_QUERIES, SELECTIVITY, seed=23
    )


@pytest.mark.slow
@pytest.mark.parametrize("pattern", PATTERNS)
@pytest.mark.parametrize("policy", POLICIES, ids=lambda p: p or "query_driven")
@pytest.mark.parametrize("engine_name", ENGINES)
def test_engine_fuzz_zero_violations(engine_name, policy, pattern):
    with deep_db(policy) as (db, sanitizer):
        engine = make_engine(engine_name, db)
        baseline = PlainEngine(db)  # scans only; never cracks
        for interval in workload(pattern):
            query = Query(
                table="R",
                predicates=(Predicate("A", interval),),
                projections=("B", "C"),
            )
            got = engine.run(query)
            want = baseline.run(query)
            assert got.row_count == want.row_count
            for attr in ("B", "C"):
                assert np.array_equal(
                    np.sort(got.columns[attr]), np.sort(want.columns[attr])
                ), f"{engine_name}/{policy}/{pattern}: {attr} diverged from scan"
    assert sanitizer.checks_run > 0, "deep sweeps must actually run"
    assert sanitizer.violations == []


@pytest.mark.slow
def test_fuzz_with_updates_under_deep_sanitize():
    """Interleave inserts/deletes with adversarial queries; still clean."""
    with deep_db("mdd1r") as (db, sanitizer):
        engine = make_engine("sideways", db)
        baseline = PlainEngine(db)
        rng = np.random.default_rng(41)
        intervals = adversarial_intervals(
            "sequential", DOMAIN, N_QUERIES, SELECTIVITY, seed=29
        )
        for i, interval in enumerate(intervals):
            if i % 3 == 1:
                db.insert("R", {
                    attr: rng.integers(1, DOMAIN + 1, size=20).astype(np.int64)
                    for attr in "ABC"
                })
            if i % 3 == 2:
                live = np.flatnonzero(~db.tombstones("R"))
                db.delete("R", rng.choice(live, size=10, replace=False))
            query = Query(
                table="R",
                predicates=(Predicate("A", interval),),
                projections=("B",),
            )
            got = engine.run(query)
            want = baseline.run(query)
            assert np.array_equal(
                np.sort(got.columns["B"]), np.sort(want.columns["B"])
            )
    assert sanitizer.checks_run > 0
    assert sanitizer.violations == []
