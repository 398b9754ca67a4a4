"""Driver of the two served workloads: the program runs as a child process.

The benchmark writes the generated table as a snapshot, starts
``python -m repro serve --snapshot ...`` on a free port, and drives it from
``CLIENTS`` closed-loop TCP connections (one thread each: a client sends its
next request only after the previous reply's last byte arrived).  Inside the
timed window a client only sends, receives and takes timestamps; replies are
inspected after the clock has stopped.

An untraced run splits its window over three freshly started servers, sends
each the same requests and keeps every request's fastest latency
(``_untraced``); ``setup_s`` is the median of the three starts.  A traced run
measures half the window on a plain server and half on a server started
through ``traced_server.py``, which installs the span wrappers before handing
over to the program's own CLI.
"""

from __future__ import annotations

import json
import os
import pathlib
import re
import shutil
import signal
import socket
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field

import numpy as np

from repro import Database
from repro.storage.persist import save_database

from . import layers, measure, spans, workloads
from .measure import Outcome
from .oracle import Oracle
from .workloads import CLIENTS, TABLE

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SHM_DIR = pathlib.Path("/dev/shm")
SHM_PREFIX = "repro_shm_"
START_TIMEOUT_S = 120
STOP_TIMEOUT_S = 30
PROBE_BYTES = 512  # scalar fields are looked for in a reply's two ends

PARTITIONS = 8
_SERVE_ARGS = {
    "serve_zipf_narrow": ["--workers", "2", "--partitions", str(PARTITIONS)],
    "serve_unique_wide": ["--workers", "2", "--processes", "2"],
}


class Server:
    """One server child process, plain or traced."""

    def __init__(self, name: str, snapshot: pathlib.Path, workdir: pathlib.Path,
                 traced: bool = False) -> None:
        self.spans_path = workdir / "spans.json"
        args = [
            "serve", "--snapshot", str(snapshot), "--port", "0",
            "--partition-attr", f"{TABLE}.A", *_SERVE_ARGS[name],
        ]
        if traced:
            self.command = [sys.executable, "-m", "e2e.traced_server",
                            str(self.spans_path), *args]
        else:
            self.command = [sys.executable, "-m", "repro", *args]
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(ROOT / "src"), str(HERE.parent)]))
        self.stderr_path = workdir / "server.stderr"
        self.process: subprocess.Popen | None = None
        self.port = 0
        self.pids: list[int] = []

    def start(self) -> float:
        """Start the child; returns seconds until it answered a ping."""
        started = time.perf_counter()
        with open(self.stderr_path, "w") as stderr:
            self.process = subprocess.Popen(
                self.command, env=self.env, stdout=subprocess.PIPE,
                stderr=stderr, text=True,
            )
        watchdog = threading.Timer(START_TIMEOUT_S, self.process.kill)
        watchdog.start()
        try:
            for line in self.process.stdout:
                if line.startswith("listening on "):
                    self.port = int(line.split()[2].rsplit(":", 1)[1])
                    break
            else:
                raise RuntimeError(
                    "server exited before listening:\n" + self.stderr_path.read_text()
                )
            if self.request({"op": "ping"}).get("result") != "pong":
                raise RuntimeError("server did not answer the ping")
        finally:
            watchdog.cancel()
        return time.perf_counter() - started

    def request(self, message: dict) -> dict:
        with socket.create_connection(("127.0.0.1", self.port), timeout=60) as sock:
            sock.sendall(json.dumps(message).encode() + b"\n")
            return json.loads(_read_frame(sock))

    def _tree(self) -> list[int]:
        found, todo = [], [self.process.pid]
        while todo:
            pid = todo.pop()
            found.append(pid)
            try:
                for task in os.listdir(f"/proc/{pid}/task"):
                    children = pathlib.Path(f"/proc/{pid}/task/{task}/children")
                    todo += [int(c) for c in children.read_text().split()]
            except OSError:
                pass  # the process ended while we were looking
        return found

    def peak_rss_mb(self) -> float:
        """High-water RSS summed over the server and its shard workers."""
        return sum(measure.peak_rss_mb(pid) for pid in self._tree())

    def _segments(self) -> list[pathlib.Path]:
        try:
            names = os.listdir(SHM_DIR)
        except OSError:
            return []
        mine = tuple(f"{SHM_PREFIX}{pid}_" for pid in self.pids)
        return [SHM_DIR / n for n in names if n.startswith(mine)]

    def shm_bytes(self) -> int:
        self.pids = self._tree()
        return sum(p.stat().st_size for p in self._segments())

    def stop(self) -> list[str]:
        """SIGTERM, wait, and report what went wrong (nothing, normally)."""
        self.pids = self._tree()
        problems = []
        self.process.send_signal(signal.SIGTERM)
        try:
            code = self.process.wait(STOP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.process.kill()
            code = self.process.wait()
            problems.append("server ignored SIGTERM and was killed")
        self.process.stdout.close()
        if code != 0:
            problems.append(f"server exited with code {code}")
        leaked = self._segments()
        if leaked:
            problems.append(f"leaked shared memory: {[p.name for p in leaked]}")
            for path in leaked:
                path.unlink(missing_ok=True)
        return problems


def _read_frame(sock: socket.socket) -> bytes:
    chunks = []
    while True:
        data = sock.recv(1 << 20)
        if not data:
            raise ConnectionError("server closed the connection mid-reply")
        chunks.append(data)
        if data.endswith(b"\n"):
            return b"".join(chunks)


@dataclass
class ClientLog:
    """What one connection saw: per request, in sending order.  The first
    ``warmup`` requests are sent before the clock starts."""

    templates: np.ndarray
    keep: np.ndarray  # which replies to retain whole (the content sample)
    warmup: int
    latency_s: list[float] = field(default_factory=list)
    probes: list[bytes] = field(default_factory=list)
    sizes: list[int] = field(default_factory=list)
    frames: dict[int, bytes] = field(default_factory=dict)
    started: float = 0.0
    finished: float = 0.0
    error: str = ""


def _client(port: int, frames: list[bytes], log: ClientLog, seconds: float,
            barrier: threading.Barrier) -> None:
    try:
        with socket.create_connection(("127.0.0.1", port)) as sock:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            deadline = float("inf")
            for position, template in enumerate(log.templates.tolist()):
                if position == log.warmup:
                    barrier.wait()  # every client is warm: start the clock
                    log.started = log.finished = time.perf_counter()
                    deadline = log.started + seconds
                t0 = time.perf_counter()
                sock.sendall(frames[template])
                reply = _read_frame(sock)
                t1 = time.perf_counter()  # at the reply's last byte
                log.finished = t1
                log.latency_s.append(t1 - t0)
                log.sizes.append(len(reply))
                log.probes.append(reply[:PROBE_BYTES] + reply[-PROBE_BYTES:])
                if log.keep[position]:
                    log.frames[position] = reply
                if t1 >= deadline:
                    return
    except (OSError, threading.BrokenBarrierError) as exc:
        log.error = f"client stopped after {len(log.probes)} replies: {exc!r}"
        barrier.abort()


@dataclass
class Phase:
    """One timed window against one server, checked against the oracle.
    Warm-up requests are checked and counted as ops, but not timed."""

    attempted: int = 0
    failed: int = 0
    timed_ok: int = 0
    started: float = 0.0
    wall_s: float = 0.0
    client_latency_s: list[np.ndarray] = field(default_factory=list)  # per connection
    latency_s: np.ndarray = field(default_factory=lambda: np.zeros(0))  # all of them
    server_s: np.ndarray = field(default_factory=lambda: np.zeros(0))
    reply_bytes: int = 0
    client_busy_s: float = 0.0
    notes: list[str] = field(default_factory=list)


_ROW_COUNT = re.compile(rb'"row_count": (\d+)')
_ELAPSED = re.compile(rb'"elapsed_seconds": ([0-9.eE+-]+)')


def drive(name: str, seed: int, part: int, port: int, seconds: float,
          templates: list, order: np.ndarray, oracle: Oracle, at_start=None) -> Phase:
    """Warm up, then run the timed window.  ``at_start`` runs once, when every
    client has finished its warm-up and before any starts the clock."""
    frames = [json.dumps({"sql": t.sql()}).encode() + b"\n" for t in templates]
    warmup = workloads.WARMUP_REQUESTS[name] // CLIENTS
    logs = []
    for c in range(CLIENTS):
        mine = order[c::CLIENTS]
        keep = workloads.content_sample(seed, name, part * CLIENTS + c, len(mine))
        logs.append(ClientLog(mine, keep, warmup))
    barrier = threading.Barrier(CLIENTS, action=at_start)
    threads = [
        threading.Thread(target=_client, args=(port, frames, log, seconds, barrier))
        for log in logs
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()

    # The clock has stopped: inspect what came back.
    phase = Phase()
    server_s = []
    for log in logs:
        if log.error:
            phase.attempted += 1
            phase.failed += 1
            phase.notes.append(log.error)
        for position, probe in enumerate(log.probes):
            template = int(log.templates[position])
            spec = templates[template]
            rows = _ROW_COUNT.search(probe)
            elapsed = _ELAPSED.search(probe)
            ok = probe.startswith(b'{"ok": true') and rows is not None
            if ok and position in log.frames:
                result = json.loads(log.frames[position])["result"]
                columns = {k: np.asarray(v, dtype=np.int64)
                           for k, v in result["columns"].items()}
                ok = oracle.check(spec, result["row_count"], result["aggregates"], columns)
            elif ok:
                ok = oracle.check(spec, int(rows.group(1)))
            phase.attempted += 1
            phase.failed += not ok
            if position >= log.warmup:
                phase.timed_ok += ok
                server_s.append(float(elapsed.group(1)) if elapsed else float("nan"))
                phase.reply_bytes += log.sizes[position]
        timed_s = log.latency_s[log.warmup:]
        phase.client_latency_s.append(np.asarray(timed_s))
        phase.client_busy_s += (log.finished - log.started) - sum(timed_s)
    phase.started = min(l.started for l in logs)
    phase.wall_s = max(l.finished for l in logs) - phase.started
    phase.latency_s = np.concatenate(phase.client_latency_s)
    phase.server_s = np.asarray(server_s)
    return phase


class _Run:
    """One run's fixed inputs plus the tally every server and phase adds to."""

    def __init__(self, name: str, seed: int, scale: float, workdir: pathlib.Path) -> None:
        self.name, self.seed, self.workdir = name, seed, workdir
        table = workloads.make_table(seed, name, scale)
        self.templates, self.order = workloads.served_requests(seed, name)
        self.oracle = Oracle(table)
        self.snapshot = workdir / "snapshot.npz"
        with Database() as db:
            db.create_table(TABLE, table)
            save_database(db, self.snapshot)
        self.outcome = Outcome(attempted=0, failed=0, metrics={})

    def server(self, traced: bool = False) -> Server:
        return Server(self.name, self.snapshot, self.workdir, traced)

    def stop(self, server: Server) -> None:
        problems = server.stop()
        self.outcome.attempted += 1  # hygiene: clean exit, nothing left in /dev/shm
        self.outcome.failed += bool(problems)
        self.outcome.notes += problems

    def drive(self, server: Server, part: int, seconds: float, at_start=None) -> Phase:
        phase = drive(self.name, self.seed, part, server.port, seconds,
                      self.templates, self.order, self.oracle, at_start)
        self.outcome.attempted += phase.attempted
        self.outcome.failed += phase.failed
        self.outcome.notes += phase.notes
        return phase


def run(name: str, seed: int, seconds: float, scale: float, trace: bool) -> Outcome:
    scratch = ROOT / ".bench_e2e_tmp"
    scratch.mkdir(exist_ok=True)
    workdir = pathlib.Path(tempfile.mkdtemp(dir=scratch))
    try:
        this = _Run(name, seed, scale, workdir)
        outcome = this.outcome
        if trace:
            outcome.metrics = _traced(this, seconds)
            outcome.metrics["fail_ratio"] = outcome.failed / outcome.attempted
        else:
            outcome.metrics = _untraced(this, seconds)
        return outcome
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass  # another run still has its directory in there


LAPS = 3


def _untraced(this: _Run, seconds: float) -> dict[str, float]:
    """``LAPS`` fresh servers share the window; each gets the same requests.

    A request is therefore timed once per lap, and its latency is the fastest
    of those: the host only ever adds time, and on the reference host it added
    up to 40 % to whole laps (eight identical laps of ``serve_zipf_narrow``
    ran at 2400 to 3400 req/s).  Groups of three of them gave median
    latencies 27 % apart by the laps' own medians, 9 % apart by the
    request-wise minimum.  Set-up time and peak memory are the median lap's.
    """
    setups, peaks, laps = [], [], []
    for lap in range(LAPS):
        server = this.server()
        try:
            setups.append(server.start())
            laps.append(this.drive(server, lap, seconds / LAPS))
            peaks.append(server.peak_rss_mb())
        finally:
            this.stop(server)

    fastest = []  # per connection: its requests, as far as every lap got
    for connection in zip(*(lap.client_latency_s for lap in laps)):
        reached = min(len(latency_s) for latency_s in connection)
        fastest.append(np.min([latency_s[:reached] for latency_s in connection], axis=0))
    latency_s = np.concatenate(fastest)
    wrong = max(len(lap.latency_s) - lap.timed_ok for lap in laps)
    tail = measure.tail_percentile(sum(len(lap.latency_s) for lap in laps))
    return {
        "setup_s": float(np.median(setups)),
        # Requests per second of connection time, each request at its fastest.
        "ops_per_s": (len(latency_s) - wrong) / float(np.mean([f.sum() for f in fastest])),
        "query_p50_ms": float(np.median(latency_s)) * 1e3,
        "query_p99_ms": float(np.percentile(latency_s, tail)) * 1e3,
        "peak_rss_mb": float(np.median(peaks)),
    }


def _traced(this: _Run, seconds: float) -> dict[str, float]:
    """Half the window on a plain server, half on a traced one."""
    plain_server = this.server()
    try:
        plain_server.start()
        plain = this.drive(plain_server, 0, seconds / 2)
    finally:
        this.stop(plain_server)

    server = this.server(traced=True)
    before: dict[str, float] = {}

    def counters_at_start() -> None:
        before.update(_counters(server.request({"op": "stats"})["result"]))

    try:
        server.start()
        traced = this.drive(server, 1, seconds / 2, at_start=counters_at_start)
        after = _counters(server.request({"op": "stats"})["result"])
        shm = server.shm_bytes()
    finally:
        this.stop(server)

    records = json.loads(server.spans_path.read_text())
    window = (traced.started, traced.started + traced.wall_s)
    metrics = _per_layer(
        plain, traced, spans.summarize(records, *window),
        {key: after[key] - before.get(key, 0) for key in after},
    )
    metrics["storage.snapshot_load_s"] = sum(
        r[spans.END] - r[spans.START] for r in records
        if r[spans.NAME] == "storage.snapshot_load")
    metrics["storage.shm_bytes"] = shm
    return metrics


def _counters(stats: dict) -> dict[str, float]:
    """The program's own cumulative counters that feed per-layer metrics."""
    out = {
        "served": stats["queries_served"],
        "hits": stats["cache_hits"],
        "evictions": stats["cache"]["evictions"],
        "shed": stats["shed"],
        "abandoned": stats["abandoned"],
        "degraded": stats["degraded"],
        "write_hold_s": 0.0, "read_skips": 0,
        "dispatch_s": 0.0, "worker_s": 0.0, "gather_s": 0.0, "retries": 0, "respawns": 0,
    }
    for path in ("cache", "partition", "process", "read", "engine"):
        out[f"path_{path}"] = stats["paths"].get(path, 0)
    locks = list(stats["locks"])
    for column in stats["partitioned"].values():
        locks += column.get("locks", [])
        if column.get("engine") == "process":
            out["dispatch_s"] += column["dispatch_seconds"]
            out["worker_s"] += column["worker_seconds"]
            out["gather_s"] += column["gather_seconds"]
            out["retries"] += sum(column["retries"])
            out["respawns"] += sum(column["respawns"])
    for lock in locks:
        out["write_hold_s"] += lock["write_hold_seconds"]
        out["read_skips"] += lock["read_skips"]
    return out


def _per_layer(plain: Phase, traced: Phase, summary: dict, counted: dict) -> dict[str, float]:
    """``summary`` holds the traced window's spans, ``counted`` what the
    program's counters gained during it."""
    queries = max(len(traced.latency_s), 1)
    metrics = layers.span_metrics(summary, queries, 0)
    metrics.update({
        "server.executor.engine_path_ms":
            summary.get("engine.run", {}).get("total_s", 0.0) / queries * 1e3,
        "server.serve.wire_ms": float(
            np.nanmedian(plain.latency_s - plain.server_s) * 1e3),
        "server.serve.resp_bytes_per_op": traced.reply_bytes / queries,
        "server.executor.cache_hit_ratio": counted["hits"] / max(counted["served"], 1),
        "server.executor.cache_evictions": counted["evictions"],
        "server.executor.shed": counted["shed"],
        "server.executor.abandoned": counted["abandoned"],
        "server.executor.degraded": counted["degraded"],
        "server.procpool.dispatch_s": counted["dispatch_s"],
        "server.procpool.worker_s": counted["worker_s"],
        "server.procpool.gather_s": counted["gather_s"],
        "server.procpool.retries": counted["retries"],
        "server.procpool.respawns": counted["respawns"],
        "server.locks.write_hold_s": counted["write_hold_s"],
        "server.locks.read_skips": counted["read_skips"],
    })
    for path in ("cache", "partition", "process", "read", "engine"):
        metrics[f"server.executor.path_{path}"] = counted[f"path_{path}"]
    scattered = counted["path_partition"]
    if scattered:
        touched = summary.get("server.partition.select", {}).get("calls", 0)
        metrics["server.partition.shards_touched_per_q"] = touched / scattered
        metrics["server.partition.prune_ratio"] = 1 - touched / (scattered * PARTITIONS)

    def per_op_s(phase: Phase) -> float:
        return phase.wall_s / max(len(phase.latency_s), 1)

    metrics.update({
        "client.overhead_ms": traced.client_busy_s / queries * 1e3,
        "trace.overhead_ratio": per_op_s(traced) / per_op_s(plain),
        "trace.coverage_ratio":
            sum(e["self_s"] for e in summary.values()) / float(traced.latency_s.sum()),
    })
    return metrics
