"""Concurrent-determinism stress: N clients, engines x policies, deep CrackSan.

The serving subsystem's central claim: whatever the interleaving, every
client gets the same reply bytes for a query, holding the same rows as a
serial single-client run.  Each case here spins N client threads over one
shared database — with the deep invariant sanitizer watching every
structure — and compares every served answer against a serial baseline
engine run on a private copy, as value multisets (the engine's rows come
in its physical order, the reply's in tuple-key order).
"""

import threading

import numpy as np
import pytest

from repro.analysis.checks import Checks
from repro.cracking.bounds import Interval
from repro.engine import SelectionCrackingEngine, SidewaysEngine
from repro.engine.database import Database
from repro.engine.query import Predicate, Query
from repro.server.executor import ServerExecutor, value_digest

CLIENTS = 4
ROWS = 4_000
DOMAIN = 40_000


def _arrays(seed: int) -> dict[str, np.ndarray]:
    rng = np.random.default_rng(seed)
    return {
        attr: rng.integers(0, DOMAIN, size=ROWS).astype(np.int64)
        for attr in "ABCD"
    }


def _workload(seed: int, queries: int = 20) -> list[Query]:
    rng = np.random.default_rng((seed, 3))
    out = []
    for i in range(queries):
        lo = int(rng.integers(0, DOMAIN - 5_000))
        width = int(rng.integers(500, 15_000))
        first = Predicate("A", Interval.half_open(lo, lo + width))
        if i % 3 == 2:
            lo2 = int(rng.integers(0, DOMAIN - 5_000))
            preds = (
                Predicate("B", Interval.half_open(lo, lo + width)),
                Predicate("C", Interval.half_open(lo2, lo2 + 2 * width)),
            )
        else:
            preds = (first,)
        out.append(Query(
            "R", preds, projections=("A", "B"),
            aggregates=(("sum", "B"), ("count", "A")),
        ))
    return out


def _fresh(arrays: dict[str, np.ndarray], **kwargs) -> Database:
    db = Database(**kwargs)
    db.create_table("R", {k: v.copy() for k, v in arrays.items()})
    return db


@pytest.mark.parametrize("make_engine", [
    pytest.param(lambda db: SelectionCrackingEngine(db), id="selection"),
    pytest.param(lambda db: SidewaysEngine(db), id="sideways"),
    pytest.param(lambda db: SidewaysEngine(db, partial=True), id="partial"),
])
@pytest.mark.parametrize("policy", ["query_driven", "mdd1r"])
def test_concurrent_clients_bit_identical_to_serial(make_engine, policy):
    arrays = _arrays(11)
    workload = _workload(11)

    serial_db = _fresh(arrays, crack_policy=policy)
    serial_engine = make_engine(serial_db)
    serial = [value_digest(serial_engine.run(q)) for q in workload]

    served_db = _fresh(arrays, crack_policy=policy)
    failures: list[str] = []
    wire: dict[int, set[str]] = {}
    # Every engine's serial answers are the one served path's answers.
    with (
        Checks(sanitize="deep").armed(),
        ServerExecutor(served_db, workers=CLIENTS, partitions=4) as executor,
    ):
        executor.partition("R", "A")

        def client(ident: int) -> None:
            order = np.random.default_rng((11, ident)).permutation(len(workload))
            for at in order:
                got = executor.run(workload[at], timeout=60)
                wire.setdefault(at, set()).add(got.digest())
                if value_digest(got) != serial[at]:
                    failures.append(f"client {ident} query {at}")

        threads = [
            threading.Thread(target=client, args=(i,)) for i in range(CLIENTS)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
        assert not any(t.is_alive() for t in threads)
        stats = executor.stats()

    assert failures == []
    assert all(len(digests) == 1 for digests in wire.values())
    assert stats["queries_served"] == CLIENTS * len(workload)


def test_concurrent_clients_with_progressive_budget():
    """Budgeted cracking bounds lock holds yet stays bit-identical."""
    arrays = _arrays(13)
    workload = _workload(13, queries=16)

    serial_db = _fresh(arrays, crack_budget=0.1)
    serial_engine = SelectionCrackingEngine(serial_db)
    serial = [value_digest(serial_engine.run(q)) for q in workload]

    served_db = _fresh(arrays, crack_budget=0.1)
    failures: list[str] = []
    with (
        Checks(sanitize="deep").armed(),
        ServerExecutor(served_db, workers=CLIENTS, partitions=4) as executor,
    ):
        executor.partition("R", "A")

        def client(ident: int) -> None:
            order = np.random.default_rng((13, ident)).permutation(len(workload))
            for at in order:
                got = executor.run(workload[at], timeout=60)
                if value_digest(got) != serial[at]:
                    failures.append(f"client {ident} query {at}")

        threads = [
            threading.Thread(target=client, args=(i,)) for i in range(CLIENTS)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
        assert not any(t.is_alive() for t in threads)
        holds = executor.stats()["budget_holds"]

    assert failures == []
    # The budget tracker saw bounded partitioning work inside lock holds.
    assert any(h.get("queries", 0) > 0 for h in holds)
