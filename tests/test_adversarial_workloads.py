"""Adversarial workload generators and engine-vs-scan correctness."""

import numpy as np
import pytest

from repro.cracking.stochastic import POLICY_NAMES, resolve_policy
from repro.engine.database import Database
from repro.engine.query import Predicate, Query
from repro.engine.scan import PlainEngine
from repro.engine.selection_cracking import SelectionCrackingEngine
from repro.engine.sideways_engine import SidewaysEngine
from repro.stats.counters import StatsRecorder
from repro.workloads.synthetic import ADVERSARIAL_PATTERNS, adversarial_intervals

ROWS = 1_200
DOMAIN = 8_000
QUERIES = 18
SELECTIVITY = 0.02


# -- generator sanity ----------------------------------------------------------


@pytest.mark.parametrize("pattern", ADVERSARIAL_PATTERNS)
def test_generator_shape(pattern):
    intervals = adversarial_intervals(pattern, DOMAIN, QUERIES, SELECTIVITY, seed=3)
    assert len(intervals) == QUERIES
    width = max(1, round(SELECTIVITY * DOMAIN))
    for iv in intervals:
        assert 0 <= iv.lo <= DOMAIN
        assert iv.hi - iv.lo == width
        assert iv.hi <= DOMAIN


def test_generator_determinism_and_direction():
    a = adversarial_intervals("skewed_jump", DOMAIN, QUERIES, SELECTIVITY, seed=5)
    b = adversarial_intervals("skewed_jump", DOMAIN, QUERIES, SELECTIVITY, seed=5)
    assert [(iv.lo, iv.hi) for iv in a] == [(iv.lo, iv.hi) for iv in b]
    seq = adversarial_intervals("sequential", DOMAIN, QUERIES, SELECTIVITY)
    assert [iv.lo for iv in seq] == sorted(iv.lo for iv in seq)
    rev = adversarial_intervals("reverse_sequential", DOMAIN, QUERIES, SELECTIVITY)
    assert [iv.lo for iv in rev] == sorted((iv.lo for iv in rev), reverse=True)


def test_generator_unknown_pattern():
    with pytest.raises(ValueError):
        adversarial_intervals("nope", DOMAIN, QUERIES, SELECTIVITY)


# -- engines return scan-identical results under every policy ------------------


def _arrays():
    rng = np.random.default_rng(17)
    return {
        "A": rng.integers(1, DOMAIN + 1, ROWS).astype(np.int64),
        "B": rng.integers(1, DOMAIN + 1, ROWS).astype(np.int64),
    }


def _run(engine_name, policy_name, intervals, arrays):
    # A tiny min_piece, so cuts actually happen at this scale.
    db = Database(recorder=StatsRecorder(),
                  crack_policy=resolve_policy(policy_name, min_piece=24))
    db.create_table("R", {k: v.copy() for k, v in arrays.items()})
    engine = {
        "monetdb": lambda: PlainEngine(db),
        "selection_cracking": lambda: SelectionCrackingEngine(db),
        "sideways": lambda: SidewaysEngine(db, partial=False),
        "partial_sideways": lambda: SidewaysEngine(db, partial=True),
    }[engine_name]()
    out = []
    for iv in intervals:
        result = engine.run(
            Query(table="R", predicates=(Predicate("A", iv),), projections=("B",))
        )
        out.append(np.sort(result.columns["B"]))
    return out


@pytest.mark.parametrize("policy_name", list(POLICY_NAMES))
@pytest.mark.parametrize("pattern", ["sequential", "zoom_in"])
@pytest.mark.parametrize(
    "engine_name", ["selection_cracking", "sideways", "partial_sideways"]
)
def test_engines_match_scan(engine_name, pattern, policy_name):
    arrays = _arrays()
    intervals = adversarial_intervals(pattern, DOMAIN, QUERIES, SELECTIVITY, seed=1)
    baseline = _run("monetdb", None, intervals, arrays)
    results = _run(engine_name, policy_name, intervals, arrays)
    for i, (want, got) in enumerate(zip(baseline, results)):
        assert np.array_equal(want, got), f"query {i} diverged"
