"""The serving wire protocol: ServerHandle and the asyncio TCP front."""

import asyncio
import contextlib
import json
import threading

import numpy as np
import pytest

from repro.engine.database import Database
from repro.server.serve import (
    MAX_FRAME_BYTES,
    CrackServer,
    ServerHandle,
    client_request,
)


@pytest.fixture
def handle(db):
    with ServerHandle(db, workers=2, partitions=4,
                      partition_attrs=(("R", "A"),)) as h:
        yield h


def test_handle_ping_and_stats(handle):
    assert handle.request({"op": "ping"}) == {"ok": True, "result": "pong"}
    stats = handle.request({"op": "stats"})
    assert stats["ok"] and stats["result"]["workers"] == 2


def test_handle_query_payload(handle):
    response = handle.request(
        {"sql": "select A, B from R where A between 100 and 30000"}
    )
    assert response["ok"]
    result = response["result"]
    assert result["row_count"] == len(result["columns"]["A"])
    assert result["path"] == "partition"
    assert set(result["aggregates"]) == set()
    repeat = handle.request(
        {"sql": "select A, B from R where A between 100 and 30000"}
    )
    assert repeat["result"]["cached"]
    assert repeat["result"]["digest"] == result["digest"]


def test_handle_rejects_bad_requests(handle):
    assert not handle.request({"op": "flush"})["ok"]
    assert not handle.request({"op": "query"})["ok"]  # no sql
    assert not handle.request({"sql": 42})["ok"]
    assert not handle.request({"sql": "select A from R", "timeout": "x"})["ok"]
    bad_sql = handle.request({"sql": "selec A from R"})
    assert not bad_sql["ok"] and bad_sql["kind"] in ("SqlError", "PlanError")


def _with_server(db, scenario):
    """Run ``scenario(host, port)`` against a live TCP server."""
    with ServerHandle(db, workers=2, partitions=4,
                      partition_attrs=(("R", "A"),)) as handle:
        return _over_tcp(handle, scenario)


def _over_tcp(handle, scenario):
    """Run ``scenario(host, port)`` against a TCP server over ``handle``."""

    async def main():
        server = CrackServer(handle, port=0)
        host, port = await server.start()
        task = asyncio.create_task(server.serve_forever())
        try:
            return await scenario(host, port)
        finally:
            task.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await task
            await server.stop()

    return asyncio.run(main())


@contextlib.contextmanager
def _write_locked(handle, table="R"):
    """Hold ``table``'s write lock from another thread, so every query on
    it blocks inside a worker until the block exits."""
    lock = handle.executor.registry.lock_for(table)
    acquired, release = threading.Event(), threading.Event()

    def holder():
        with lock.write():
            acquired.set()
            release.wait(timeout=30)

    thread = threading.Thread(target=holder)
    thread.start()
    assert acquired.wait(timeout=5)
    try:
        yield
    finally:
        release.set()
        thread.join(timeout=10)


async def _until(condition, what):
    for _ in range(1_000):
        if condition():
            return
        await asyncio.sleep(0.005)
    pytest.fail(f"never reached: {what}")


def test_tcp_roundtrip(db):
    async def scenario(host, port):
        pong = await client_request(host, port, {"op": "ping"})
        assert pong == {"ok": True, "result": "pong"}
        reply = await client_request(
            host, port, {"sql": "select A from R where A < 20000"}
        )
        assert reply["ok"] and reply["result"]["row_count"] > 0
        stats = await client_request(host, port, {"op": "stats"})
        assert stats["result"]["queries_served"] == 1

    _with_server(db, scenario)


def test_tcp_pipelined_requests_one_connection(db):
    async def scenario(host, port):
        reader, writer = await asyncio.open_connection(host, port)
        for lo in (100, 5_000, 20_000):
            frame = {"sql": f"select A from R where A between {lo} and {lo + 999}"}
            writer.write(json.dumps(frame).encode() + b"\n")
        await writer.drain()
        replies = [json.loads(await reader.readline()) for _ in range(3)]
        writer.close()
        await writer.wait_closed()
        assert all(r["ok"] for r in replies)

    _with_server(db, scenario)


def test_tcp_malformed_frames(db):
    async def scenario(host, port):
        reader, writer = await asyncio.open_connection(host, port)
        writer.write(b"this is not json\n")
        writer.write(b"[1, 2, 3]\n")
        writer.write(json.dumps({"op": "nope"}).encode() + b"\n")
        await writer.drain()
        replies = [json.loads(await reader.readline()) for _ in range(3)]
        writer.close()
        await writer.wait_closed()
        assert [r["ok"] for r in replies] == [False, False, False]
        assert "malformed" in replies[0]["error"]
        assert "JSON object" in replies[1]["error"]
        assert "unknown op" in replies[2]["error"]

    _with_server(db, scenario)


def test_tcp_oversized_frame_gets_error(db):
    # readline signals an over-limit line as ValueError; the server must
    # answer with an error frame, not die with an unhandled exception.
    async def scenario(host, port):
        reader, writer = await asyncio.open_connection(host, port)
        writer.write(b"x" * (MAX_FRAME_BYTES + 4_096))
        writer.write(b"\n")
        await writer.drain()
        reply = json.loads(await reader.readline())
        assert not reply["ok"]
        assert "frame too large or connection broken" in reply["error"]
        writer.close()
        with contextlib.suppress(ConnectionError):
            await writer.wait_closed()

    _with_server(db, scenario)


def test_client_request_reads_replies_over_the_request_limit():
    # MAX_FRAME_BYTES caps the requests a server buffers; a reply larger
    # than it is valid and must reach the client whole.
    rng = np.random.default_rng(7)
    rows = 400_000
    big = Database()
    big.create_table("R", {c: rng.integers(1, 1_000_001, rows) for c in "AB"})

    async def scenario(host, port):
        reply = await client_request(
            host, port, {"sql": "select A, B from R where A > 0"}
        )
        assert reply["ok"], reply
        assert reply["result"]["row_count"] == rows
        assert len(reply["result"]["columns"]["B"]) == rows
        assert len(json.dumps(reply)) > MAX_FRAME_BYTES

    _with_server(big, scenario)


def test_tcp_concurrent_clients_agree(db):
    async def scenario(host, port):
        frame = {"sql": "select A, B from R where B between 1000 and 60000"}
        replies = await asyncio.gather(
            *(client_request(host, port, frame) for _ in range(12))
        )
        digests = {r["result"]["digest"] for r in replies}
        assert all(r["ok"] for r in replies)
        assert len(digests) == 1  # every client sees the same canonical bytes

    _with_server(db, scenario)


def test_handle_health_op(handle):
    reply = handle.request({"op": "health"})
    assert reply["ok"]
    health = reply["result"]
    assert health["ready"] is True
    assert health["draining"] is False
    assert {"degraded", "queue_depth", "inflight", "shed", "abandoned",
            "breakers", "workers_alive"} <= set(health)


STATS_KEYS = [
    "workers", "processes", "engine_mode", "queries_served", "cache_hits",
    "cache_hit_rate", "cache", "paths", "shed", "abandoned", "degraded",
    "budget_trims", "queue_depth", "inflight", "admission", "latency_p50",
    "latency_p99", "locks", "budget_holds", "partitioned",
]
HEALTH_KEYS = [
    "ready", "draining", "degraded", "queue_depth", "inflight", "shed",
    "abandoned", "breakers", "workers_alive",
]
SHARD_STATS_KEYS = {
    "partition": [
        "table", "attr", "partitions", "rows", "shard_rows", "locks",
    ],
    "process": [
        "table", "attr", "engine", "partitions", "rows", "shard_rows",
        "respawns", "commands", "tape_lengths", "retries", "degraded_serves",
        "breakers", "jitter_tapes", "selects", "probe_hits", "recoveries",
        "degraded", "dispatch_seconds", "worker_seconds", "gather_seconds",
    ],
}


@pytest.mark.parametrize(
    "path, backend", [("partition", {"partitions": 2}), ("process", {"processes": 2})]
)
def test_stats_and_health_wire_schema_is_pinned(db, path, backend):
    """Monitoring reads these frames: both shard backends answer the same
    top-level schema, and each backend's per-column block keeps its keys."""
    with ServerHandle(
        db, workers=2, partition_attrs=(("R", "A"),), **backend
    ) as handle:
        handle.request({"sql": "select A from R where A between 100 and 30000"})
        stats = handle.request({"op": "stats"})["result"]
        health = handle.request({"op": "health"})["result"]
    json.dumps([stats, health])  # everything stays JSON-safe
    assert list(stats) == STATS_KEYS
    assert list(health) == HEALTH_KEYS
    assert stats["paths"] == {path: 1}
    assert list(stats["partitioned"]["R.A"]) == SHARD_STATS_KEYS[path]
    shards = ["R.A#0", "R.A#1"] if path == "process" else []
    assert health["breakers"] == {name: "closed" for name in shards}
    assert health["workers_alive"] == {name: True for name in shards}


def test_tcp_overload_sheds_with_typed_error(db):
    """A shed request answers a typed ``ServerOverloaded`` frame (clients
    back off) while the admitted request still completes."""

    async def main():
        with ServerHandle(db, workers=1, max_inflight=1,
                          shed_policy="reject-newest") as handle:
            server = CrackServer(handle, port=0)
            host, port = await server.start()
            task = asyncio.create_task(server.serve_forever())
            lock = handle.executor.registry.lock_for("R")
            acquired = threading.Event()
            release = threading.Event()

            def holder():
                with lock.write():
                    acquired.set()
                    release.wait(timeout=30)

            t = threading.Thread(target=holder)
            t.start()
            acquired.wait(timeout=5)
            try:
                blocked = asyncio.create_task(client_request(
                    host, port, {"sql": "select A from R where A < 20000"}
                ))
                for _ in range(1_000):  # until the request is in flight
                    if handle.executor.stats()["inflight"] >= 1:
                        break
                    await asyncio.sleep(0.005)
                else:
                    pytest.fail("blocked query never started executing")
                shed = await client_request(
                    host, port, {"sql": "select B from R where B < 100"}
                )
                assert not shed["ok"]
                assert shed["kind"] == "ServerOverloaded"
                assert "reject-newest" in shed["error"]
            finally:
                release.set()
                t.join(timeout=10)
            first = await blocked
            assert first["ok"] and first["result"]["row_count"] > 0
            health = await client_request(host, port, {"op": "health"})
            assert health["result"]["shed"] == 1
            task.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await task
            await server.stop()

    asyncio.run(main())


def test_tcp_timeouts_of_queued_requests_leave_the_queue(db):
    """Two TCP requests time out while queued behind a blocked worker; once
    it frees, both leave the queue and the server admits again."""

    async def scenario(host, port):
        sql = "select A from R where A < 20000"
        executor = handle.executor
        with _write_locked(handle):
            blocked = asyncio.create_task(client_request(host, port, {"sql": sql}))
            await _until(lambda: executor.stats()["inflight"] == 1, "one running")
            timed_out = await asyncio.gather(*(
                client_request(host, port, {
                    "sql": f"select B from R where B < {hi}", "timeout": 0.1,
                })
                for hi in (100, 200)
            ))
        assert [r["kind"] for r in timed_out] == ["QueryTimeout"] * 2
        assert (await blocked)["ok"]
        def idle():
            stats = executor.stats()
            return stats["queue_depth"] == stats["inflight"] == 0

        await _until(idle, "an empty queue")
        assert executor.stats()["abandoned"] == 2
        later = await client_request(host, port, {"sql": sql})
        assert later["ok"], later

    with ServerHandle(db, workers=1, max_queue=2) as handle:
        _over_tcp(handle, scenario)


def test_tcp_timeout_abandons_a_running_request(db):
    """A TCP request that times out while running is abandoned: counted,
    and its late answer never cached."""

    async def scenario(host, port):
        frame = {"sql": "select A, B from R where A < 30000"}
        executor = handle.executor
        with _write_locked(handle):
            reply = await client_request(host, port, {**frame, "timeout": 0.1})
        assert reply["kind"] == "QueryTimeout"
        await _until(lambda: executor.stats()["inflight"] == 0, "no request running")
        assert executor.stats()["abandoned"] == 1
        again = await client_request(host, port, frame)
        assert again["ok"] and not again["result"]["cached"]

    with ServerHandle(db, workers=2) as handle:
        _over_tcp(handle, scenario)
