"""The served reply contract.

A served reply holds the qualifying rows in ascending tuple-key order
(``canonicalize`` sorts the keys, never the values) and only the query's
projections (a group-by reply: its keys and aggregates).  Engines return
rows in their physical order, so a reply is compared with an engine
result as a value multiset (``value_digest``).  The golden digests pin the
wire bytes of every serving path across versions.
"""

import numpy as np
import pytest

from repro.analysis.checks import Checks
from repro.cracking.bounds import Interval
from repro.engine import ENGINE_FACTORIES
from repro.engine.database import Database
from repro.engine.query import Predicate, Query, QueryResult
from repro.server.executor import (
    ServerExecutor,
    canonicalize,
    digest_columns,
    value_digest,
)
from repro.server.serve import ServerHandle


def test_canonicalize_sorts_the_keys_into_a_new_array():
    buffer = np.array([7, 3, 9, 0, 5, 1], dtype=np.int64)
    view = buffer[1:5]
    got = canonicalize(view)
    assert got.tolist() == [0, 3, 5, 9]
    assert buffer.tolist() == [7, 3, 9, 0, 5, 1]
    assert not np.shares_memory(got, buffer)


def test_no_columns():
    assert canonicalize(np.empty(0, dtype=np.int64)).size == 0
    empty = QueryResult()
    assert value_digest(empty) == value_digest(QueryResult())
    assert value_digest(empty) != value_digest(QueryResult(aggregates={"count(A)": 0.0}))


# -- golden wire bytes ---------------------------------------------------------


def _golden_arrays():
    rng = np.random.default_rng(2207)
    n = 20_000
    return {
        "A": rng.permutation(n).astype(np.int64),
        "B": rng.integers(0, 50_000, size=n).astype(np.int64),
        "C": rng.integers(0, 50_000, size=n).astype(np.int64),
        "D": rng.integers(-1_000, 1_000, size=n).astype(np.int64),
        "G": rng.integers(0, 12, size=n).astype(np.int64),
        "F": np.round(rng.normal(size=n), 3),
        "W": rng.integers(-2**62, 2**62, size=n).astype(np.int64) * 2,
    }


def _two(attr_a, iv_a, attr_b, iv_b, **kwargs):
    return Query("R", (
        Predicate(attr_a, Interval.half_open(*iv_a)),
        Predicate(attr_b, Interval.half_open(*iv_b)),
    ), **kwargs)


#: (query, expected path on serial, thread and process executors).
GOLDEN_QUERIES = [
    (Query("R", (Predicate("A", Interval.half_open(1_000, 11_000)),),
           projections=("A", "G")), "partition", "partition", "process"),
    (Query("R", (Predicate("A", Interval.half_open(1_000, 11_000)),),
           projections=("A", "G")), "cache", "cache", "cache"),
    (Query("R", (Predicate("A", Interval.half_open(4_000, 6_000)),),
           projections=("G", "F", "W")), "partition", "partition", "process"),
    (_two("B", (5_000, 30_000), "C", (10_000, 40_000),
          projections=("B", "D")), "partition", "partition", "partition"),
    (_two("B", (5_000, 30_000), "C", (12_000, 35_000),
          projections=("D", "G")), "partition", "partition", "partition"),
    (Query("R", (Predicate("C", Interval.half_open(0, 25_000)),),
           projections=("G",),
           aggregates=(("sum", "D"), ("count", "D"), ("avg", "D")),
           group_by=("G",)), "partition", "partition", "partition"),
    (_two("A", (2_000, 9_000), "D", (-500, 400),
          projections=("A", "D", "G")), "partition", "partition", "process"),
    (_two("D", (-300, 700), "A", (3_000, 15_000),
          projections=("B", "D")), "partition", "partition", "process"),
    (_two("A", (15_000, 16_000), "B", (5_000, 30_000),
          projections=("A", "B"), conjunctive=False), "partition", "partition", "process"),
]

#: ``ServedResult.digest()`` of each ``GOLDEN_QUERIES`` entry: rows in
#: tuple-key order, projections only.  Recaptured once when replies moved
#: from value order (which also shipped aggregate-only columns) to key
#: order; equal on serial, thread and process shards.  The group-by reply
#: (the sixth) kept its digest: it was and is in group-key order.
GOLDEN_DIGESTS = [
    "48de1c0755e70200876166919f89ea381de14cb0",
    "48de1c0755e70200876166919f89ea381de14cb0",
    "b3847a170f9fa6bb43a1cd7bbd7fc8a23fdbd99e",
    "f3fe513bfb0f43b55b8eb85e67fc5cf2b1bcf5b7",
    "3deae5d03fac8b2c5dd997e8c2330cdb955e0540",
    "f9eb8459ea3d57c2be576379df8fa9fdd9f38e8d",
    "78f0e6e4ec4cda9d0078d3485ff9b89a07efb95d",
    "767b05134925ac5c3daf5f04eae2cceaa7169962",
    "00b37442e3f0eaea4c3d6f822c3fcb55b137330a",
]


@pytest.mark.parametrize("backend", ["serial", "thread", "process"])
def test_golden_digests_on_every_path(backend):
    db = Database()
    db.create_table("R", _golden_arrays())
    shards = {"serial": {}, "thread": dict(partitions=4),
              "process": dict(processes=2)}[backend]
    column = ["serial", "thread", "process"].index(backend) + 1
    with ServerExecutor(db, workers=2, **shards) as ex:
        if shards:
            ex.partition("R", "A")
        results = [ex.run(entry[0]) for entry in GOLDEN_QUERIES]
    assert [r.path for r in results] == [e[column] for e in GOLDEN_QUERIES]
    assert [r.digest() for r in results] == GOLDEN_DIGESTS
    # Shards answer every selection and group-by: no database cracker.
    assert db._crackers == {}


# -- rows in tuple-key order, projections only -------------------------------


def _mask(arrays, query):
    masks = [p.interval.mask(arrays[p.attr]) for p in query.predicates]
    if not masks:
        return np.ones(len(arrays["A"]), dtype=bool)
    return np.logical_and.reduce(masks) if query.conjunctive \
        else np.logical_or.reduce(masks)


KEY_ORDER_QUERIES = [
    _two("B", (5_000, 30_000), "C", (10_000, 40_000), projections=("B", "D")),
    _two("A", (15_000, 16_000), "B", (5_000, 30_000),
         projections=("A", "B"), conjunctive=False),
    Query("R", projections=("G", "W")),
    Query("R", (Predicate("A", Interval.half_open(4_000, 6_000)),),
          projections=("F", "W"), aggregates=(("max", "B"),)),
]


def _served(arrays, history=(), faults=""):
    """Replies to ``KEY_ORDER_QUERIES`` after ``history`` ran on the same
    executor, with the live mask they were answered over."""
    db = Database()
    db.create_table("R", {k: v.copy() for k, v in arrays.items()})
    with Checks(faults=faults).armed(), \
            ServerExecutor(db, workers=2, partitions=4, cache_bytes=0) as ex:
        ex.partition("R", "A")
        ex.delete("R", np.arange(0, len(arrays["A"]), 97))
        for query in history:
            ex.run(query)
        replies = [ex.run(query) for query in KEY_ORDER_QUERIES]
        live = ~db.tombstones("R")
    return replies, live


def test_served_rows_are_the_base_rows_at_the_sorted_keys():
    arrays = _golden_arrays()
    history = [
        Query("R", (Predicate(attr, Interval.half_open(lo, lo + 7_000)),),
              projections=(attr,))
        for attr, lo in (("A", 500), ("B", 21_000), ("A", 12_345), ("C", 3_000))
    ]
    fresh, live = _served(arrays)
    cracked, _ = _served(arrays, history=history)
    recovered, _ = _served(arrays, faults="kernels.crack_three=error")
    assert [r.path for r in fresh] == ["partition", "partition", "read", "partition"]
    assert recovered[0].fault_recovered
    for query, *replies in zip(KEY_ORDER_QUERIES, fresh, cracked, recovered):
        keys = np.sort(np.flatnonzero(_mask(arrays, query) & live))
        want = {attr: arrays[attr][keys] for attr in query.projections}
        for reply in replies:
            assert list(reply.columns) == list(query.projections)
            for attr, values in want.items():
                assert np.array_equal(reply.columns[attr], values)
            assert reply.digest() == digest_columns(want)


def test_aggregate_only_columns_stay_off_every_result():
    """``select B, max(C)`` returns ``B`` alone, served and on every engine,
    with ``max(C)`` equal to a scan's."""
    arrays = _golden_arrays()
    sql = "select B, max(C) from R where A < 500"
    rows = arrays["A"] < 500
    want_b = np.sort(arrays["B"][rows])
    want_max = float(arrays["C"][rows].max())

    def fresh():
        db = Database()
        db.create_table("R", {k: v.copy() for k, v in arrays.items()})
        return db

    with ServerHandle(fresh(), workers=2) as handle:
        reply = handle.request({"sql": sql})["result"]
    assert list(reply["columns"]) == ["B"]
    assert reply["aggregates"] == {"max(C)": want_max}
    assert np.array_equal(np.sort(reply["columns"]["B"]), want_b)
    query = Query("R", (Predicate("A", Interval.half_open(0, 500)),),
                  projections=("B",), aggregates=(("max", "C"),))
    for name, factory in ENGINE_FACTORIES.items():
        result = factory(fresh()).run(query)
        assert list(result.columns) == ["B"], name
        assert result.aggregates == {"max(C)": want_max}, name
        assert result.row_count == int(rows.sum()), name
        assert np.array_equal(np.sort(result.columns["B"]), want_b), name
