"""The served wire bytes: the column encoder and the reply frames.

The oracle is the reply format as ``json.dumps`` writes it: each column as
``tolist()``, the result dict inside ``{"ok": true, "result": ...}``.  The
vectorized integer encoder must reproduce it byte for byte, over every
integer dtype, at every length around :data:`JSON_ARRAY_CUTOVER`, through
``ServedResult.as_payload``, over TCP, and through the in-process
``ServerHandle``.
"""

import asyncio
import contextlib
import json
from concurrent.futures import Future

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.database import Database
from repro.server.executor import (
    JSON_ARRAY_CUTOVER,
    ServedResult,
    _Request,
    encode_json_array,
)
from repro.server.resilience import Deadline
from repro.server.serve import CrackServer, ServerHandle

INT_DTYPES = [np.dtype(t) for t in (
    "int8", "int16", "int32", "int64", "uint8", "uint16", "uint32", "uint64",
)]

#: 0, -1, ±(10**(4k) ± 1) — every digit-group boundary — and both int64 ends.
EDGE_VALUES = sorted(
    {0, -1, 2**63 - 1, -(2**63), 2**64 - 1}
    | {s * (10 ** (4 * k) + d)
       for k in range(1, 5) for d in (-1, 0, 1) for s in (1, -1)}
)

CUTOVER_LENGTHS = [
    0, 1, JSON_ARRAY_CUTOVER - 1, JSON_ARRAY_CUTOVER, JSON_ARRAY_CUTOVER + 1,
]


def json_oracle(values: np.ndarray) -> bytes:
    return json.dumps(values.tolist()).encode()


def edges_of(dtype: np.dtype) -> list[int]:
    info = np.iinfo(dtype)
    return [v for v in EDGE_VALUES if info.min <= v <= info.max] + [info.min, info.max]


# -- the column encoder ------------------------------------------------------


@st.composite
def int_arrays(draw):
    """A random array over a drawn value range, with edge values planted."""
    dtype = draw(st.sampled_from(INT_DTYPES))
    info = np.iinfo(dtype)
    edges = edges_of(dtype)
    bound = st.one_of(st.sampled_from(edges), st.integers(int(info.min), int(info.max)))
    lo, hi = sorted(draw(st.tuples(bound, bound)))
    length = draw(st.one_of(
        st.sampled_from(CUTOVER_LENGTHS),
        st.integers(0, 3 * JSON_ARRAY_CUTOVER),
    ))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = rng.integers(lo, hi, length, dtype=dtype, endpoint=True)
    if length:
        planted = st.tuples(st.integers(0, length - 1), st.sampled_from(edges))
        for at, value in draw(st.lists(planted, max_size=8)):
            values[at] = value
    return values


@settings(max_examples=300, deadline=None)
@given(int_arrays())
def test_encoder_equals_json_dumps(values):
    assert encode_json_array(values) == json_oracle(values)


@pytest.mark.parametrize("dtype", INT_DTYPES, ids=str)
@pytest.mark.parametrize("length", CUTOVER_LENGTHS[1:] + [4 * JSON_ARRAY_CUTOVER])
def test_encoder_edge_values_every_dtype(dtype, length):
    edges = edges_of(dtype)
    values = np.array((edges * (length // len(edges) + 1))[:length], dtype=dtype)
    rng = np.random.default_rng(length)
    for arr in (values, values[::-1], rng.permutation(values),
                np.zeros(length, dtype), np.full(length, np.iinfo(dtype).max, dtype)):
        assert encode_json_array(arr) == json_oracle(arr)
    if dtype.kind == "i":  # the first value opens the array with its sign
        first_negative = np.full(length, -1, dtype)
        assert encode_json_array(first_negative) == json_oracle(first_negative)


@pytest.mark.parametrize("dtype", INT_DTYPES, ids=str)
def test_encoder_empty_and_strided(dtype):
    assert encode_json_array(np.array([], dtype=dtype)) == b"[]"
    base = np.arange(4 * JSON_ARRAY_CUTOVER, dtype=np.int64).astype(dtype)
    assert encode_json_array(base[::3]) == json_oracle(base[::3])


@pytest.mark.parametrize("values", [
    np.array([1.5, float("nan"), float("inf"), -float("inf"), -0.0] * 100),
    np.array([True, False] * 200),
    np.arange(3 * JSON_ARRAY_CUTOVER, dtype=np.int64).reshape(3, -1),
    np.arange(2 * JSON_ARRAY_CUTOVER, dtype=np.float32),
], ids=["float", "bool", "2-d", "float32"])
def test_encoder_falls_back_to_json_dumps(values):
    assert encode_json_array(values) == json_oracle(values)


# -- the result object -------------------------------------------------------


def parent_dict(result: ServedResult) -> dict:
    """The ``result`` object as a dict with ``tolist()`` columns."""
    return {
        "columns": {k: v.tolist() for k, v in result.columns.items()},
        "aggregates": result.aggregates,
        "row_count": result.row_count,
        "path": result.path,
        "cached": result.cached,
        "elapsed_seconds": result.elapsed_seconds,
        "fault_recovered": result.fault_recovered,
        "degraded": result.degraded,
        "digest": result.digest(),
    }


def parent_frame(result: ServedResult) -> bytes:
    return json.dumps({"ok": True, "result": parent_dict(result)}).encode() + b"\n"


def _crafted(columns: dict, **kwargs) -> ServedResult:
    rows = len(next(iter(columns.values()))) if columns else 0
    return ServedResult(columns=columns, row_count=rows, elapsed_seconds=0.00123,
                        **kwargs)


WIDE = 2 * JSON_ARRAY_CUTOVER
CRAFTED = {
    "int-wide": _crafted({
        "A": np.arange(-WIDE, WIDE, dtype=np.int64),
        "B": np.arange(2 * WIDE, dtype=np.uint32) * 40_009,
    }, aggregates={"max(B)": 81_932_431.0}),
    "int-narrow": _crafted({"A": np.arange(5, dtype=np.int16)}, path="cache",
                           cached=True),
    "mixed-lengths": _crafted({
        "A": np.arange(WIDE, dtype=np.int64),
        "B": np.arange(3, dtype=np.int8),
    }),
    "float-nan-inf": _crafted({
        "F": np.array([0.1, float("nan"), float("inf"), -float("inf")] * WIDE),
        "I": np.arange(4 * WIDE, dtype=np.int64),
    }, aggregates={"avg(F)": float("nan"), "max(F)": float("inf")}),
    "empty": _crafted({"A": np.array([], dtype=np.int64),
                       "B": np.array([], dtype=np.float64)}),
    "no-columns": _crafted({}, aggregates={"count(A)": 0.0}),
    "quoted-and-non-ascii-names": _crafted({
        'say "hi"': np.arange(WIDE, dtype=np.int64),
        "größe\\☃": np.arange(WIDE, dtype=np.uint8),
        "tab\tnew\nline": np.arange(3, dtype=np.int64),
    }, degraded=True, fault_recovered=True),
}


@pytest.mark.parametrize("name", list(CRAFTED))
def test_payload_equals_json_dumps_of_the_dict(name):
    result = CRAFTED[name]
    assert result.as_payload() == json.dumps(parent_dict(result)).encode()


# -- TCP and the in-process twin ---------------------------------------------


@pytest.fixture
def wire_db(rng) -> Database:
    db = Database()
    db.create_table("R", {
        c: rng.integers(-50_000, 100_001, size=5_000).astype(np.int64) for c in "ABCD"
    })
    return db


def _tcp_frames(handle: ServerHandle, messages: list[dict]) -> list[bytes]:
    """Send ``messages`` down one connection; the raw reply lines."""

    async def main():
        server = CrackServer(handle, port=0)
        host, port = await server.start()
        task = asyncio.create_task(server.serve_forever())
        try:
            reader, writer = await asyncio.open_connection(host, port, limit=1 << 26)
            lines = []
            for message in messages:
                writer.write(json.dumps(message).encode() + b"\n")
                await writer.drain()
                lines.append(await reader.readline())
            writer.close()
            await writer.wait_closed()
            return lines
        finally:
            task.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await task
            await server.stop()

    return asyncio.run(main())


def _recording_payloads(monkeypatch) -> list[ServedResult]:
    """Record every ServedResult the server encodes, in order."""
    seen: list[ServedResult] = []
    encode = ServedResult.as_payload

    def as_payload(self):
        seen.append(self)
        return encode(self)

    monkeypatch.setattr(ServedResult, "as_payload", as_payload)
    return seen


SQL = [
    "select A, B from R where A > -40000",                  # wide: both columns encoded
    "select A from R where A between 100 and 200",          # narrow: one json.dumps
    "select B, max(C) from R where A > 0 and D < 5000",     # conjunction + aggregate
    "select A, B from R where A > 999999",                  # empty
    "select A, count(B) from R where C > 0 group by A",     # group-by
]


def test_tcp_reply_bytes_equal_json_dumps(wire_db, monkeypatch):
    seen = _recording_payloads(monkeypatch)
    with ServerHandle(wire_db, workers=2, partitions=2,
                      partition_attrs=(("R", "A"),)) as handle:
        frames = _tcp_frames(handle, [{"sql": sql} for sql in SQL + SQL[:1]])
    assert len(seen) == len(frames) == len(SQL) + 1
    assert any(r.row_count >= JSON_ARRAY_CUTOVER for r in seen)
    assert any(r.row_count == 0 for r in seen)
    assert seen[-1].cached  # a cache hit is encoded the same way
    for result, frame in zip(seen, frames):
        assert frame == parent_frame(result)


def _serving(handle: ServerHandle, result: ServedResult) -> None:
    """Make ``handle`` answer every query with ``result``."""

    def admit(served, timeout=None, enqueued=None):
        future = Future()
        future.set_result(result)
        return _Request(served, Deadline(None), 0.0, future=future)

    handle.executor.admit = admit
    handle.executor.run = lambda _served, timeout=None: result


def _same(a, b) -> bool:
    """Equality that counts NaN equal to NaN (``json.dumps`` spells floats exactly)."""
    return json.dumps(a) == json.dumps(b)


@pytest.mark.parametrize("name", list(CRAFTED))
def test_tcp_and_handle_replies_of_crafted_results(wire_db, name):
    result = CRAFTED[name]
    with ServerHandle(wire_db, workers=1) as handle:
        _serving(handle, result)
        (frame,) = _tcp_frames(handle, [{"sql": "select A from R where A > 0"}])
        in_process = handle.request({"sql": "select A from R where A > 0"})
    assert frame == parent_frame(result)
    assert _same(in_process, json.loads(frame))


def test_handle_request_equals_tcp_frame_of_real_results(wire_db, monkeypatch):
    seen = _recording_payloads(monkeypatch)
    with ServerHandle(wire_db, workers=2) as handle:
        frames = _tcp_frames(handle, [{"sql": sql} for sql in SQL])
        for result, frame in zip(list(seen), frames):
            handle.executor.run = lambda _served, timeout=None, r=result: r
            assert handle.request({"sql": "select A from R"}) == json.loads(frame)


def test_control_and_error_frames_stay_json_dumps(wire_db):
    with ServerHandle(wire_db, workers=1) as handle:
        ping, bad = _tcp_frames(handle, [{"op": "ping"}, {"op": "flush"}])
    assert ping == json.dumps({"ok": True, "result": "pong"}).encode() + b"\n"
    assert json.loads(bad) == {"ok": False, "error": "unknown op 'flush'",
                               "kind": "ServerError"}
