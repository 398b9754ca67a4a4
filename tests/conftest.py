"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.checks import Checks
from repro.engine.database import Database
from repro.storage.relation import Relation


def pytest_addoption(parser: pytest.Parser) -> None:
    parser.addoption(
        "--sanitize", action="store", default="off",
        choices=("off", "post-crack", "post-query", "deep"),
        help="run the whole suite under the CrackSan invariant sanitizer "
             "at the given checkpoint level",
    )
    parser.addoption(
        "--faults", action="store", default=None, metavar="PLAN",
        help="run the whole suite under a FaultSan fault-injection plan "
             "(e.g. 'mapset.align=error'); every engine must still answer "
             "correctly or raise a structured FaultError",
    )
    parser.addoption(
        "--racesan", action="store_true", default=False,
        help="run the whole suite under the RaceSan lockset race detector; "
             "any data race or lock-order cycle observed during a test "
             "fails it with both stacks",
    )


@pytest.fixture(autouse=True)
def _checks(request: pytest.FixtureRequest):
    """Suite-wide checks: ``--sanitize`` / ``--faults`` / ``--racesan``.

    Every test runs inside one ``Checks(...).armed()`` scope built from the
    options, so each test gets a fresh fault plan and leaves nothing armed
    behind.  RaceSan runs in collect mode: a violation fails the test at
    teardown with the full report rather than raising at an arbitrary depth
    inside a worker thread.
    """
    option = request.config.getoption
    checks = Checks(option("--sanitize"), option("--faults"), option("--racesan"))
    with checks.armed() as armed:
        if armed.racesan is not None:
            armed.racesan.strict = False
        yield armed
    if armed.racesan is not None and armed.racesan.violations:
        pytest.fail(armed.racesan.report(), pytrace=False)


@pytest.fixture(autouse=True)
def _shm_leak_check():
    """Suite-wide shared-memory leak check.

    Every test must balance its shared-memory lifecycle: any
    :class:`~repro.storage.shared.SharedArray` / ``SharedBAT`` created or
    attached during the test must be closed by the end of it, and no
    segment this process created may survive in ``/dev/shm``.  A leaked
    name here means an ownership bug (a pool that forgot a shard, an
    executor close path that skipped a buffer), not harmless garbage —
    ``/dev/shm`` is a finite, machine-wide resource.
    """
    from repro.storage.shared import leaked_system_segments, live_segment_names

    before = live_segment_names()
    yield
    after = live_segment_names()
    leaked_registry = sorted(after - before)
    leaked_system = leaked_system_segments()
    assert not leaked_registry, (
        f"test leaked shared-memory handles (never closed): {leaked_registry}"
    )
    assert not leaked_system, (
        f"test leaked /dev/shm segments (never unlinked): {leaked_system}"
    )


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(1234)


@pytest.fixture
def small_arrays(rng) -> dict[str, np.ndarray]:
    """Four aligned integer columns, 5k rows, values in [1, 100k]."""
    return {c: rng.integers(1, 100_001, size=5_000).astype(np.int64) for c in "ABCD"}


@pytest.fixture
def relation(small_arrays) -> Relation:
    return Relation.from_arrays("R", small_arrays)


@pytest.fixture
def db(small_arrays) -> Database:
    database = Database()
    database.create_table("R", dict(small_arrays))
    return database
