"""canonicalize: the packed int64 sort is byte-equal to a multi-column lexsort.

The differential tests keep the original ``np.lexsort`` implementation
inline as the oracle.  The golden digests pin the canonical wire bytes of
every serving path across versions: they were captured before the packed
sort existed, so any change to the canonical order fails them.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cracking.bounds import Interval
from repro.engine.database import Database
from repro.engine.query import Predicate, Query
from repro.server.executor import (
    ServerExecutor,
    _canonicalize_packed,
    canonicalize,
    digest_columns,
)

INT_DTYPES = [np.dtype(t) for t in (
    "int8", "int16", "int32", "int64", "uint8", "uint16", "uint32", "uint64",
)]


def lexsort_oracle(columns):
    """The lexsort canonicalization, as it was before the packed sort."""
    if not columns:
        return columns
    names = sorted(columns)
    n = len(columns[names[0]])
    if n <= 1:
        return dict(columns)
    order = np.lexsort(tuple(columns[name] for name in reversed(names)))
    return {name: np.ascontiguousarray(arr[order]) for name, arr in columns.items()}


def assert_canonical_equal(columns):
    got = canonicalize(columns)
    want = lexsort_oracle(columns)
    assert list(got) == list(columns)
    for name, arr in got.items():
        assert arr.dtype == want[name].dtype
        assert np.array_equal(arr, want[name])
        assert arr.flags.c_contiguous
        for source in columns.values():
            assert not np.shares_memory(arr, source)
    assert digest_columns(got) == digest_columns(want)
    return got


# -- differential property test ----------------------------------------------


def _int_column(rng, dtype, mode, bits, n):
    """``n`` values of ``dtype`` whose range is about ``bits`` bits wide,
    anchored at the type's minimum, maximum, zero, or a constant."""
    info = np.iinfo(dtype)
    span = min(1 << bits, int(info.max) - int(info.min) + 1)
    if mode == "constant":
        value = [info.min, info.max, 0, info.max // 3][int(rng.integers(0, 4))]
        return np.full(n, value, dtype=dtype)
    if mode == "low":
        lo = int(info.min)
    elif mode == "high":
        lo = int(info.max) - span + 1
    else:  # straddle zero where the type allows it
        lo = max(int(info.min), min(-(span // 2), int(info.max) - span + 1))
    offsets = rng.integers(0, span, size=n, dtype=np.uint64)
    return (np.array(lo, dtype=dtype) + offsets.astype(dtype)).astype(dtype)


_column_spec = st.one_of(
    st.tuples(
        st.sampled_from(INT_DTYPES),
        st.sampled_from(["low", "high", "zero", "constant"]),
        st.integers(0, 64),
    ),
    st.tuples(st.sampled_from([np.dtype("float64"), np.dtype("bool")]),
              st.just("float"), st.just(0)),
)


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    specs=st.lists(_column_spec, min_size=1, max_size=4),
    n=st.sampled_from([0, 1, 2, 3, 17, 200, 10_000]),
    seed=st.integers(0, 2**32 - 1),
)
def test_canonicalize_equals_lexsort(specs, n, seed):
    rng = np.random.default_rng(seed)
    columns = {}
    for i, (dtype, mode, bits) in enumerate(specs):
        if dtype.kind == "f":
            values = rng.normal(size=n)
            values[rng.random(n) < 0.1] = 0.0  # ties across columns
        elif dtype.kind == "b":
            values = rng.random(n) < 0.5
        else:
            values = _int_column(rng, dtype, mode, bits, n)
        # Hypothesis-chosen names in a shuffled order: the sort priority is
        # name order, the output order is the input dict's order.
        columns[f"c{int(rng.integers(0, 1000)):03d}_{i}"] = values
    keys = list(columns)
    rng.shuffle(keys)
    assert_canonical_equal({k: columns[k] for k in keys})


@pytest.mark.parametrize("widths, packs", [
    ((31, 31), True),
    ((31, 32), True),
    ((32, 32), False),
    ((21, 21, 21), True),
    ((63,), True),
    ((64,), False),
])
def test_total_width_63_packs_and_64_falls_back(widths, packs):
    rng = np.random.default_rng(sum(widths))
    n = 1_000
    columns = {}
    for i, width in enumerate(widths):
        top = (1 << width) - 1
        dtype = np.uint64 if width == 64 else np.int64
        values = rng.integers(0, top, size=n, dtype=np.uint64, endpoint=True)
        values[:2] = (0, top)  # pin the range to exactly ``width`` bits
        values[2:20] = values[20:38]  # duplicate rows
        columns[f"w{i}"] = values.astype(dtype)
    names = sorted(columns)
    assert (_canonicalize_packed(columns, names) is not None) is packs
    assert_canonical_equal(columns)


def test_uint64_narrow_range_above_2_63_packs():
    rng = np.random.default_rng(5)
    lo = np.uint64(2**63 + 12_345)
    values = lo + rng.integers(0, 1 << 20, size=5_000).astype(np.uint64)
    other = rng.integers(-3, 3, size=5_000).astype(np.int8)
    columns = {"U": values, "S": other}
    assert _canonicalize_packed(columns, sorted(columns)) is not None
    got = assert_canonical_equal(columns)
    assert got["U"].min() >= lo


def test_extremes_and_constant_columns():
    for dtype in INT_DTYPES:
        info = np.iinfo(dtype)
        columns = {
            "K": np.full(6, info.max, dtype=dtype),
            "L": np.array([info.min, info.max, 0, info.min, 1, info.max],
                          dtype=dtype),
        }
        packed = _canonicalize_packed(columns, sorted(columns))
        # Only the 64-bit types' full range is wider than 63 bits.
        assert (packed is None) is (info.bits == 64)
        got = assert_canonical_equal(columns)
        assert np.all(got["K"] == info.max)


def test_bool_and_float_columns_take_the_fallback():
    columns = {"F": np.array([0.5, -1.0, 0.5]), "I": np.array([3, 1, 2])}
    assert _canonicalize_packed(columns, sorted(columns)) is None
    assert_canonical_equal(columns)
    flags = {"B": np.array([True, False, True]), "I": np.array([3, 1, 2])}
    assert _canonicalize_packed(flags, sorted(flags)) is None
    assert_canonical_equal(flags)


def test_no_columns():
    assert canonicalize({}) == {}


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

#: ``ServedResult.digest()`` of each ``GOLDEN_QUERIES`` entry, captured with
#: the lexsort canonicalization; the last three, which name the
#: partitioned ``A``, were captured while they still ran the engine over
#: its own cracker column of ``A``.
GOLDEN_DIGESTS = [
    "c96cfa340f81fae277222453e2092cd0efe9e88d",
    "c96cfa340f81fae277222453e2092cd0efe9e88d",
    "1f4f5631bbea904188b4b706f6cd7f16c5d5c4ec",
    "1e8127240656cf7f2ca10c1ec1b2acfcfc78a488",
    "cddb52ffc8c0b12c4a1569a064167352ef80a746",
    "f9eb8459ea3d57c2be576379df8fa9fdd9f38e8d",
    "d10fc687b1db060c5cfda310303cb6790bbade0a",
    "f0df35539d026a6f8e9592883e5a242b17c504d0",
    "8d8f114bd66dfb853fbf22690e4ad6ca072aae65",
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
