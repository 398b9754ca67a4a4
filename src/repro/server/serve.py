"""The network front: an asyncio TCP server speaking line-delimited JSON.

The wire protocol is one JSON object per line, both ways.  Requests:

``{"sql": "select ... from ... where ...", "timeout": 5.0}``
    Serve one query; ``timeout`` (seconds) is optional.
``{"op": "stats"}``
    The executor's serving statistics (latencies, cache hits, lock stats).
``{"op": "ping"}``
    Liveness probe.
``{"op": "health"}``
    Readiness probe: admission pressure, circuit-breaker states, and
    shard-worker liveness (see ``ServerExecutor.health``).

Overload surfaces as a typed error frame: a shed request answers
``{"ok": false, "kind": "ServerOverloaded", ...}`` so clients back off
instead of retrying hot; a query served around a sick shard carries
``"degraded": true`` in its result payload.

Responses are ``{"ok": true, "result": ...}`` or ``{"ok": false, "error":
"...", "kind": "<exception class>"}``.  One connection may pipeline many
requests; responses come back in request order per connection, while
different connections are served concurrently by the executor's worker
pool (the asyncio loop never blocks on query work — futures from the
thread pool are awaited with :func:`asyncio.wrap_future`).

A query reply is the bytes ``{"ok": true, "result": `` +
``ServedResult.as_payload()`` + ``}``: exactly what ``json.dumps`` writes for the result dict with
``tolist()`` columns, but integer columns of
:data:`~repro.server.executor.JSON_ARRAY_CUTOVER` rows or more are written
by the vectorized :func:`~repro.server.executor.encode_json_array`.  The
loop thread encodes each reply once its query has finished.  Control and
error replies are ``json.dumps`` of their dicts.

:class:`ServerHandle` is the in-process twin: the same requests without
sockets, used by tests and embedders; a query's answer is decoded from the
reply bytes the TCP front would send.
"""

from __future__ import annotations

import asyncio
import json
import signal

from repro.engine.database import Database
from repro.errors import QueryTimeout, ReproError, ServerError, ServerOverloaded
from repro.server.executor import ServedQuery, ServedResult, ServerExecutor

#: Refuse absurd frames instead of buffering them (a malformed client
#: could otherwise stream an unbounded "line").
MAX_FRAME_BYTES = 4 * 1024 * 1024


def _error_payload(exc: BaseException) -> dict[str, object]:
    return {"ok": False, "error": str(exc), "kind": type(exc).__name__}


def _frame(response: dict[str, object]) -> bytes:
    """One control or error reply line."""
    return json.dumps(response).encode() + b"\n"


def _error_frame(exc: BaseException) -> bytes:
    return _frame(_error_payload(exc))


def _result_frame(payload: bytes) -> bytes:
    """One query reply line around :meth:`ServedResult.as_payload` bytes."""
    return b'{"ok": true, "result": %s}\n' % payload


def _open_frame(
    executor: ServerExecutor, message: dict[str, object]
) -> "dict[str, object] | ServedQuery":
    """The frame front both endpoints share: op dispatch and validation.

    A control op is answered outright (the response dict); a query frame
    comes back as a validated :class:`ServedQuery` for the caller to run
    its own way (blocking in-process, awaited over TCP).  The timeout
    rides inside the request, so the executor's admission deadline and
    any wait the caller adds measure one budget from one clock.  Raises
    :class:`~repro.errors.ReproError` on malformed input.
    """
    op = message.get("op", "query")
    if op == "ping":
        return {"ok": True, "result": "pong"}
    if op == "stats":
        return {"ok": True, "result": executor.stats()}
    if op == "health":
        return {"ok": True, "result": executor.health()}
    if op != "query":
        raise ServerError(f"unknown op {op!r}")
    sql = message.get("sql")
    if not isinstance(sql, str):
        raise ServerError("a query request needs an 'sql' string")
    timeout = message.get("timeout")
    if timeout is not None and not isinstance(timeout, (int, float)):
        raise ServerError("'timeout' must be a number of seconds")
    return ServedQuery.from_sql(sql, executor.db, timeout=timeout)


class ServerHandle:
    """In-process serving endpoint: the protocol without the socket.

    Wraps a :class:`~repro.server.executor.ServerExecutor` and answers the
    same JSON-shaped request dictionaries the TCP front accepts.  Useful for
    tests and for embedding the serving layer without networking.
    """

    def __init__(
        self,
        db: Database,
        workers: int = 4,
        partitions: int = 0,
        partition_attrs: "tuple[tuple[str, str], ...] | list" = (),
        processes: int = 0,
        cache_bytes: "int | None" = None,
        max_queue: "int | None" = None,
        max_inflight: "int | None" = None,
        shed_policy: str = "reject-newest",
    ) -> None:
        from repro.server.executor import DEFAULT_CACHE_BYTES

        self.executor = ServerExecutor(
            db, workers=workers, partitions=partitions,
            processes=processes,
            cache_bytes=DEFAULT_CACHE_BYTES if cache_bytes is None else cache_bytes,
            max_queue=max_queue, max_inflight=max_inflight,
            shed_policy=shed_policy,
        )
        for table, attr in partition_attrs:
            self.executor.partition(table, attr)

    def query(self, sql: str, timeout: float | None = None) -> ServedResult:
        return self.executor.run(sql, timeout=timeout)

    def request(self, message: dict[str, object]) -> dict[str, object]:
        """Answer one protocol request dictionary (never raises).

        A query's answer is decoded from the reply line the TCP front would
        send, so both endpoints run the same encoder.
        """
        try:
            served = _open_frame(self.executor, message)
            if not isinstance(served, ServedQuery):
                return served
            return json.loads(_result_frame(self.executor.run(served).as_payload()))
        except ReproError as exc:
            return _error_payload(exc)

    def close(self) -> None:
        self.executor.close()

    def __enter__(self) -> "ServerHandle":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


class CrackServer:
    """The asyncio TCP server over one :class:`ServerHandle`."""

    def __init__(self, handle: ServerHandle, host: str = "127.0.0.1", port: int = 0):
        self.handle = handle
        self.host = host
        self.port = port
        self._server: asyncio.base_events.Server | None = None
        self.connections = 0

    async def start(self) -> tuple[str, int]:
        self._server = await asyncio.start_server(
            self._on_connection, self.host, self.port, limit=MAX_FRAME_BYTES
        )
        sock = self._server.sockets[0]
        self.host, self.port = sock.getsockname()[:2]
        return self.host, self.port

    async def serve_forever(self) -> None:
        if self._server is None:
            await self.start()
        assert self._server is not None
        async with self._server:
            await self._server.serve_forever()

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    async def _on_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self.connections += 1
        loop = asyncio.get_running_loop()
        try:
            while True:
                try:
                    line = await reader.readline()
                except (ConnectionError, ValueError, asyncio.LimitOverrunError) as exc:
                    # readline signals an over-limit line as ValueError (it
                    # swallows LimitOverrunError internally); catch both so
                    # an oversized frame gets an error response, not an
                    # unhandled-task crash.
                    writer.write(_error_frame(
                        ServerError(f"frame too large or connection broken: {exc}")
                    ))
                    break
                if not line:
                    break
                text = line.decode(errors="replace").strip()
                if not text:
                    continue
                try:
                    message = json.loads(text)
                    if not isinstance(message, dict):
                        raise ServerError("each frame must be a JSON object")
                except json.JSONDecodeError as exc:
                    reply = _error_frame(ServerError(f"malformed frame: {exc}"))
                except ServerError as exc:
                    reply = _error_frame(exc)
                else:
                    reply = await self._dispatch(message)
                writer.write(reply)
                await writer.drain()
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, asyncio.CancelledError):
                # The peer vanished or the server is stopping mid-close;
                # either way this connection is finished.
                pass

    async def _dispatch(self, message: dict[str, object]) -> bytes:
        """Answer one frame with its reply line, never blocking on query work.

        Query work is admitted to the executor's worker pool and *awaited*
        (never nested: a pool worker waiting on another pool task would
        deadlock a saturated pool), so many connections share the workers.
        A wait past the request's deadline abandons it, as the in-process
        wait does: the executor's future is left to run, so a queued
        request still leaves the queue, and an abandoned answer is never
        cached.  The reply is encoded here, on the loop thread, after the
        await.
        """
        executor = self.handle.executor
        try:
            served = _open_frame(executor, message)
            if not isinstance(served, ServedQuery):
                return _frame(served)
            record = executor.admit(served)
            future = asyncio.wrap_future(record.future)
            # asyncio.wait, unlike wait_for, leaves the future running when
            # the wait times out.
            done, _ = await asyncio.wait({future}, timeout=record.deadline.remaining())
            if not done:
                executor.abandon(record)
                # Its late answer, or QueryTimeout, is nobody's to read.
                future.add_done_callback(
                    lambda late: late.cancelled() or late.exception()
                )
                raise QueryTimeout(
                    f"query on {served.query.table!r} missed its deadline",
                    seconds=record.deadline.budget,
                )
            if future.cancelled():
                # A later admission shed this queued request (its future
                # was cancelled under the admission mutex).
                raise ServerOverloaded(
                    f"query on {served.query.table!r} was shed while "
                    "queued", policy=executor.shed_policy,
                )
            result = future.result()
            return _result_frame(result.as_payload())
        except ReproError as exc:
            return _error_frame(exc)


async def client_request(
    host: str, port: int, message: dict[str, object]
) -> dict[str, object]:
    """One-shot protocol client (used by tests and simple tooling).

    The reply is read whole, however long: :data:`MAX_FRAME_BYTES` bounds
    the requests a server buffers, not the replies it sends.
    """
    reader, writer = await asyncio.open_connection(host, port)
    try:
        writer.write(json.dumps(message).encode() + b"\n")
        await writer.drain()
        line = bytearray()
        while not line.endswith(b"\n"):
            chunk = await reader.read(1 << 16)
            if not chunk:
                break
            line += chunk
        if not line:
            raise ServerError("server closed the connection without a response")
        return json.loads(line)
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except ConnectionError:
            pass


def run_server(
    db: Database,
    host: str = "127.0.0.1",
    port: int = 7077,
    workers: int = 4,
    partitions: int = 0,
    partition_attrs: "tuple[tuple[str, str], ...] | list" = (),
    ready_callback=None,
    processes: int = 0,
    cache_bytes: "int | None" = None,
    max_queue: "int | None" = None,
    max_inflight: "int | None" = None,
    shed_policy: str = "reject-newest",
) -> None:
    """Blocking entry point for ``repro serve``: run until interrupted.

    SIGTERM and SIGINT both trigger a graceful shutdown: the listener
    closes, then ``ServerHandle.close()`` runs — which matters in process
    mode, where skipping it would strand shard worker processes and leak
    their ``/dev/shm`` segments (the kernel never reclaims those on
    process death; only an explicit unlink does).
    """

    async def _main() -> None:
        handle = ServerHandle(
            db, workers=workers, partitions=partitions,
            partition_attrs=partition_attrs,
            processes=processes, cache_bytes=cache_bytes,
            max_queue=max_queue, max_inflight=max_inflight,
            shed_policy=shed_policy,
        )
        server = CrackServer(handle, host, port)
        loop = asyncio.get_running_loop()
        stopping = asyncio.Event()
        hooked = []
        for sig in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(sig, stopping.set)
                hooked.append(sig)
            except (NotImplementedError, ValueError, RuntimeError):
                pass  # non-main thread or platform without signal support
        # Handlers are armed before readiness is announced: a supervisor
        # that stops the service the instant it reports its port must
        # still get the graceful (segment-unlinking) shutdown.
        bound_host, bound_port = await server.start()
        if ready_callback is not None:
            ready_callback(bound_host, bound_port)
        forever = asyncio.ensure_future(server.serve_forever())
        waiter = asyncio.ensure_future(stopping.wait())
        try:
            await asyncio.wait(
                {forever, waiter}, return_when=asyncio.FIRST_COMPLETED
            )
        finally:
            for task in (forever, waiter):
                task.cancel()
                try:
                    await task
                except (asyncio.CancelledError, ConnectionError):
                    pass
            for sig in hooked:
                loop.remove_signal_handler(sig)
            await server.stop()
            handle.close()

    try:
        asyncio.run(_main())
    except KeyboardInterrupt:
        pass
