"""Stochastic pieces over updates: ripple merges through auxiliary cuts.

DDC cuts each cracked piece recursively at value-range centers; MDD1R adds
one random cut per crack.  Pending inserts and deletes must ripple-merge
through piece boundaries those cuts created (not query predicates), under
CrackSan deep sweeps, and stay sound when a fault is injected at the
ripple-merge site itself.
"""

from contextlib import contextmanager

import numpy as np
import pytest

from repro.analysis.checks import Checks
from repro.cracking.bounds import Interval
from repro.cracking.stochastic import resolve_policy
from repro.engine.database import Database
from repro.engine.query import Predicate, Query
from repro.engine.scan import PlainEngine
from repro.engine.selection_cracking import SelectionCrackingEngine
from repro.engine.sideways_engine import SidewaysEngine

ROWS = 1_500
DOMAIN = 12_000
BATCH = 40

POLICIES = ("ddc", "mdd1r")
ENGINES = ("selection_cracking", "sideways", "partial_sideways")


@contextmanager
def deep_db(policy, faults=None):
    """A database built and queried inside one CrackSan-deep scope; yields
    it with the scope's sanitizer."""
    rng = np.random.default_rng(13)
    arrays = {
        attr: rng.integers(1, DOMAIN + 1, size=ROWS).astype(np.int64)
        for attr in "ABC"
    }
    # The default min_piece (cache-derived, ~4k tuples) would suppress every
    # auxiliary cut at this test scale; shrink it so the cuts actually
    # create the stochastic pieces the ripple has to route through.
    with Checks(sanitize="deep", faults=faults).armed(seed=23) as armed:
        db = Database(crack_policy=resolve_policy(policy, min_piece=64),
                      crack_seed=23)
        db.create_table("R", arrays)
        yield db, armed.sanitizer


def make_engine(name, db):
    if name == "selection_cracking":
        return SelectionCrackingEngine(db)
    return SidewaysEngine(db, partial=(name == "partial_sideways"))


def query_for(lo, width=500):
    return Query(
        table="R",
        predicates=(Predicate("A", Interval.open(lo, lo + width)),),
        projections=("B",),
    )


def stochastic_cuts(db):
    total = sum(c.stochastic_cuts for c in db._crackers.values())
    for sideways in db._sideways.values():
        total += sum(ms.stochastic_cuts for ms in sideways.sets.values())
    for partial in db._partial.values():
        for pset in partial.sets.values():
            total += pset.stochastic_cuts
            if pset.chunkmap is not None:
                total += pset.chunkmap.stochastic_cuts
    return total


def run_insert_workload(db, engine, n_rounds=6):
    """Alternate range queries with inserts; every result must match a scan.

    The first queries lay down stochastic pieces; each subsequent insert
    batch then has to ripple through those piece boundaries when the next
    query merges it.
    """
    baseline = PlainEngine(db)
    rng = np.random.default_rng(29)
    for i in range(n_rounds):
        lo = int(rng.integers(1, DOMAIN - 600))
        query = query_for(lo)
        got = engine.run(query)
        want = baseline.run(query)
        assert np.array_equal(
            np.sort(got.columns["B"]), np.sort(want.columns["B"])
        ), f"round {i}: diverged from scan"
        db.insert("R", {
            attr: rng.integers(1, DOMAIN + 1, size=BATCH).astype(np.int64)
            for attr in "ABC"
        })


@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("engine_name", ENGINES)
def test_ripple_through_stochastic_pieces(engine_name, policy):
    with deep_db(policy) as (db, sanitizer):
        engine = make_engine(engine_name, db)
        run_insert_workload(db, engine)
    # The scenario is only meaningful if auxiliary cuts actually created
    # pieces for the ripple to route through.
    assert stochastic_cuts(db) > 0, "no stochastic pieces were created"
    assert sanitizer.checks_run > 0
    assert sanitizer.violations == []


@pytest.mark.parametrize("kind", ("error", "corrupt"))
@pytest.mark.parametrize("engine_name", ENGINES)
def test_ripple_merge_fault_stays_sound(engine_name, kind):
    """A fault at the ripple-merge site itself: recover, never answer wrong."""
    with deep_db("ddc", faults=f"ripple.merge_insertions@2={kind}") as (
        db, sanitizer
    ):
        engine = make_engine(engine_name, db)
        run_insert_workload(db, engine)
        assert db.heal_faults() == []
    assert sanitizer.violations == []


def test_deletions_ripple_through_stochastic_pieces():
    """Deletes (and the delete-position fault site) under DDC pieces."""
    with deep_db("ddc", faults="ripple.delete_positions@2=error") as (
        db, sanitizer
    ):
        engine = make_engine("selection_cracking", db)
        baseline = PlainEngine(db)
        rng = np.random.default_rng(31)
        for i in range(5):
            live = np.flatnonzero(~db.tombstones("R"))
            db.delete("R", rng.choice(live, size=15, replace=False))
            query = query_for(int(rng.integers(1, DOMAIN - 600)))
            got = engine.run(query)
            want = baseline.run(query)
            assert np.array_equal(
                np.sort(got.columns["B"]), np.sort(want.columns["B"])
            ), f"round {i}: diverged from scan"
        assert db.heal_faults() == []
    assert sanitizer.violations == []
