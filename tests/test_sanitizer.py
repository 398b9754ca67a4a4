"""CrackSan: level resolution, registration, checkpoints, and detection."""

import gc

import numpy as np
import pytest

from repro.analysis import invariants
from repro.analysis.checks import Checks
from repro.analysis.sanitizer import (
    LEVELS,
    Sanitizer,
    active_sanitizers,
    checkpoint_query,
    register_structure,
    resolve_level,
    suspended,
)
from repro.cracking.bounds import Interval
from repro.cracking.column import CrackerColumn
from repro.errors import CrackError, InvariantError, PlanError
from repro.stats.counters import StatsRecorder
from repro.storage.bat import BAT


def make_column(rows=500, seed=7, cracks=6):
    rng = np.random.default_rng(seed)
    values = rng.integers(1, 10_000, size=rows).astype(np.int64)
    column = CrackerColumn(BAT.from_values(values), StatsRecorder())
    for lo in np.linspace(500, 9_000, cracks):
        column.select(Interval.half_open(int(lo), int(lo) + 400))
    return column, values


# -- level resolution -----------------------------------------------------------


def test_resolve_level_names_and_synonyms():
    assert resolve_level(None) == "off"
    for name in LEVELS:
        assert resolve_level(name) == name
        assert resolve_level(name.upper()) == name
    assert resolve_level("post_query") == "post-query"
    assert resolve_level(True) == "post-query"
    assert resolve_level(False) == "off"
    for synonym in ("", "none", "0", "false"):
        assert resolve_level(synonym) == "off"
    for synonym in ("1", "true", "on"):
        assert resolve_level(synonym) == "post-query"
    with pytest.raises(PlanError):
        resolve_level("paranoid")


def test_resolve_level_env_fallback(monkeypatch):
    # The level comes from Checks alone; the old variable is ignored.
    monkeypatch.setenv("REPRO_SANITIZE", "deep")
    assert resolve_level(None) == "off"
    assert resolve_level("deep") == "deep"


def test_level_ordering():
    sanitizer = Sanitizer("post-crack")
    assert sanitizer.enabled("off")
    assert sanitizer.enabled("post-crack")
    assert not sanitizer.enabled("post-query")
    assert not sanitizer.enabled("deep")
    assert Sanitizer("deep").enabled("post-query")


# -- registration ----------------------------------------------------------------


def test_structures_register_while_active():
    with Sanitizer("post-query").activated() as sanitizer:
        column, _ = make_column()
        kinds = {kind for _, kind, _ in sanitizer.structures()}
        assert "column" in kinds
        assert "index" in kinds  # the column's AVL index registers too
        objects = [obj for obj, _, _ in sanitizer.structures()]
        assert column in objects


def test_registry_is_weak():
    with Sanitizer("post-query").activated() as sanitizer:
        column, _ = make_column()
        assert any(kind == "column" for _, kind, _ in sanitizer.structures())
        del column
        gc.collect()
        assert not any(kind == "column" for _, kind, _ in sanitizer.structures())


def test_off_level_never_activates():
    with Sanitizer("off").activated() as sanitizer:
        make_column()
        assert sum(1 for _ in sanitizer.structures()) == 0


def test_suspended_blocks_registration():
    with Sanitizer("post-query").activated() as sanitizer:
        with suspended():
            make_column()
        assert sum(1 for _ in sanitizer.structures()) == 0


def test_register_structure_hook_is_noop_when_inactive():
    register_structure(object(), "column")  # must not raise


# -- validation, skip cache, strict/collect ---------------------------------------


def test_clean_column_validates_and_skip_cache_hits():
    column, _ = make_column()
    sanitizer = Sanitizer("deep")
    assert sanitizer.validate(column, "column") == []
    run_before = sanitizer.checks_run
    assert sanitizer.validate(column, "column") == []
    assert sanitizer.checks_run == run_before
    assert sanitizer.checks_skipped == 1
    # Cracking again changes the signature, so validation re-runs.
    column.select(Interval.half_open(4_000, 4_100))
    sanitizer.validate(column, "column")
    assert sanitizer.checks_run == run_before + 1


def test_strict_mode_raises_with_structured_violations():
    column, _ = make_column()
    column.head[0] = 99_999  # above every piece's upper bound
    sanitizer = Sanitizer("post-query", seed=123)
    with pytest.raises(InvariantError) as excinfo:
        sanitizer.validate(column, "column", label="col")
    violation = excinfo.value.violations[0]
    assert violation.invariant == "piece-bounds"
    assert violation.structure == "col"
    assert violation.seed == 123
    assert "99999" in violation.detail


def test_collect_mode_keeps_scanning():
    column, _ = make_column()
    column.head[0] = 99_999
    sanitizer = Sanitizer("post-query", strict=False)
    found = sanitizer.validate(column, "column")
    assert found and found[0].invariant == "piece-bounds"
    assert sanitizer.violations == found
    assert "piece-bounds" in sanitizer.report()


def test_deep_catches_duplicate_keys_shallow_misses():
    column, _ = make_column()
    column.keys[3] = column.keys[4]  # physically silent: head untouched
    assert invariants.check(column, "column", deep=False) == []
    found = invariants.check(column, "column", deep=True)
    assert {v.invariant for v in found} >= {"duplicate-keys"}


def test_deep_catches_base_permutation_drift():
    column, _ = make_column()
    # Swap two head values inside one piece: every shallow invariant still
    # holds, but the payload no longer matches base[keys].
    pieces = [p for p in column.index.pieces(len(column.head))
              if p.hi_pos - p.lo_pos >= 2]
    swapped = False
    for piece in pieces:
        lo = piece.lo_pos
        if column.head[lo] != column.head[lo + 1]:
            column.head[[lo, lo + 1]] = column.head[[lo + 1, lo]]
            swapped = True
            break
    assert swapped, "need a piece with two distinct values"
    assert invariants.check(column, "column", deep=False) == []
    found = invariants.check(column, "column", deep=True)
    assert any(v.invariant == "base-permutation" for v in found)


def test_check_invariants_unified_signature():
    column, _ = make_column()
    column.check_invariants()
    column.check_invariants(deep=True)
    column.keys[0] = column.keys[1]
    with pytest.raises(CrackError):  # InvariantError subclasses CrackError
        column.check_invariants(deep=True)


def test_unknown_kind_rejected():
    with pytest.raises(InvariantError):
        invariants.check(object(), "no-such-kind")


# -- checkpoints ----------------------------------------------------------------


def test_post_crack_checkpoint_fires_on_select():
    with Sanitizer("post-crack").activated() as sanitizer:
        make_column(cracks=3)
        assert sanitizer.checks_run > 0
        assert sanitizer.violations == []


def test_post_query_sweep_catches_corruption():
    # Stand down any suite-wide strict sanitizer (pytest --sanitize ...):
    # this test corrupts a structure on purpose and must observe the
    # violation on its own collect-mode instance instead of failing fast.
    others = active_sanitizers()
    for other in others:
        other.deactivate()
    sanitizer = Sanitizer("post-query", strict=False)
    try:
        with sanitizer.activated():
            column, _ = make_column(cracks=2)
            column.select(Interval.half_open(2_000, 2_300))
            column.head[0] = 99_999
            column.select(Interval.half_open(5_000, 5_200))  # new crack -> new sig
            checkpoint_query()
    finally:
        for other in others:
            other.activate()
    assert any(v.invariant == "piece-bounds" for v in sanitizer.violations)


def test_engine_queries_run_clean_under_deep():
    from repro.engine.database import Database
    from repro.engine.query import Predicate, Query
    from repro.engine.sideways_engine import SidewaysEngine

    rng = np.random.default_rng(5)
    with Checks(sanitize="deep").armed() as armed:
        db = Database()
        db.create_table("R", {
            "A": rng.integers(1, 8_000, 1_200).astype(np.int64),
            "B": rng.integers(1, 8_000, 1_200).astype(np.int64),
        })
        engine = SidewaysEngine(db, partial=False)
        for lo in (500, 3_000, 6_000):
            engine.run(Query(
                table="R",
                predicates=(Predicate("A", Interval.half_open(lo, lo + 700)),),
                projections=("B",),
            ))
    assert armed.sanitizer.checks_run > 0
    assert armed.sanitizer.violations == []
    assert "0 violation(s)" in armed.sanitizer.report()


# -- content checksums (skip-cache blind spot) ----------------------------------


def test_content_checksum_basics():
    assert invariants.content_checksum(np.empty(0, dtype=np.int64)) == 0
    arr = np.arange(1_000, dtype=np.int64)
    ck = invariants.content_checksum(arr)
    assert ck == invariants.content_checksum(arr.copy())  # deterministic
    mutated = arr.copy()
    mutated[0] = -1  # position 0 is always in the strided sample
    assert invariants.content_checksum(mutated) != ck
    # Same sampled values but different length -> different checksum.
    assert invariants.content_checksum(arr[:999]) != ck


def test_checksums_default_from_level():
    assert Sanitizer("deep").checksums is True
    assert Sanitizer("post-query").checksums is False
    assert Sanitizer("post-query", checksums=True).checksums is True
    assert Sanitizer("deep", checksums=False).checksums is False


def test_content_signature_sees_in_place_mutation():
    column, _ = make_column(cracks=2)
    plain = invariants.signature(column, "column")
    content = invariants.signature(column, "column", content=True)
    column.head[0] ^= 1  # purely in-place: lengths and cursors unchanged
    assert invariants.signature(column, "column") == plain
    assert invariants.signature(column, "column", content=True) != content


def test_checksums_catch_purely_in_place_corruption():
    # Without checksums the skip cache hides an in-place flip until the
    # structure legitimately changes; with them the next sweep catches it.
    others = active_sanitizers()
    for other in others:
        other.deactivate()
    sanitizer = Sanitizer("post-query", strict=False, checksums=True)
    try:
        with sanitizer.activated():
            column, _ = make_column(cracks=2)
            column.select(Interval.half_open(2_000, 2_300))
            checkpoint_query()  # caches a clean signature
            column.head[0] = 99_999  # in-place corruption, no legitimate change
            checkpoint_query()
    finally:
        for other in others:
            other.activate()
    assert any(v.invariant == "piece-bounds" for v in sanitizer.violations)
