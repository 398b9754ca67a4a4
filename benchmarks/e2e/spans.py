"""Spans recorded from outside the program: wrap, record, uninstall.

A :class:`Tracer` replaces public callables of the program with wrappers
that record one span per call — name, start, end, parent, request id and an
optional measured value (e.g. elements a kernel moved).  Spans stay in
memory; the traced server child writes them to a file when it exits.

The current span lives in a ``ContextVar``, so coroutines of different
connections do not see each other's spans.  Work handed to a
``ThreadPoolExecutor`` keeps its parent: ``submit`` is wrapped to carry the
submitting span into the worker thread and to record the time the task
waited in the pool's queue.
"""

from __future__ import annotations

import contextvars
import functools
import importlib
import inspect
import itertools
import json
import os
import sys
import time
from concurrent.futures import ThreadPoolExecutor

# Span record layout (a list, mutated once when the call returns).
NAME, START, END, PARENT, REQUEST, VALUE = range(6)

_current: contextvars.ContextVar = contextvars.ContextVar("e2e_span", default=None)
_MARK = "_e2e_traced_original"


class Tracer:
    """Installs span wrappers over ``targets`` and removes them again.

    ``targets`` is a list of ``(span_name, module, qualified_name, measure)``;
    ``measure`` is ``None`` or a function of the call's positional arguments
    returning the number stored in the span's value slot.  ``queues`` maps a
    thread-pool name prefix to the span name of its queue wait.
    """

    def __init__(self, targets, queues=None) -> None:
        self.targets = list(targets)
        self.queues = dict(queues or {})
        self.spans: list[list] = []
        self.enabled = False
        self._undo: list[tuple[object, str, object]] = []
        self._requests = itertools.count(1)
        # A forked shard worker inherits the wrappers but must not pay for
        # (or grow) a span list nobody will ever read.
        os.register_at_fork(after_in_child=self._disable)

    def _disable(self) -> None:
        self.enabled = False

    # -- wrappers --------------------------------------------------------------

    def _begin(self, name: str, value) -> tuple[list, object]:
        parent = _current.get()
        request = parent[REQUEST] if parent is not None else next(self._requests)
        span = [name, 0.0, 0.0, parent, request, value]
        self.spans.append(span)
        token = _current.set(span)
        span[START] = time.perf_counter()
        return span, token

    def wrap(self, name: str, fn, measure=None):
        tracer = self
        if inspect.iscoroutinefunction(fn):
            @functools.wraps(fn)
            async def wrapper(*args, **kwargs):
                if not tracer.enabled:
                    return await fn(*args, **kwargs)
                span, token = tracer._begin(name, measure(args) if measure else 0)
                try:
                    return await fn(*args, **kwargs)
                finally:
                    span[END] = time.perf_counter()
                    _current.reset(token)
        else:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                if not tracer.enabled:
                    return fn(*args, **kwargs)
                span, token = tracer._begin(name, measure(args) if measure else 0)
                try:
                    return fn(*args, **kwargs)
                finally:
                    span[END] = time.perf_counter()
                    _current.reset(token)
        setattr(wrapper, _MARK, fn)
        return wrapper

    def _wrap_submit(self, submit):
        tracer = self

        @functools.wraps(submit)
        def traced_submit(pool, fn, /, *args, **kwargs):
            if not tracer.enabled:
                return submit(pool, fn, *args, **kwargs)
            parent = _current.get()
            queue_name = tracer.queues.get(getattr(pool, "_thread_name_prefix", ""))
            queued = time.perf_counter()

            def task(*a, **k):
                token = _current.set(parent)
                if queue_name is not None and parent is not None:
                    tracer.spans.append([
                        queue_name, queued, time.perf_counter(), parent,
                        parent[REQUEST], 0,
                    ])
                try:
                    return fn(*a, **k)
                finally:
                    _current.reset(token)

            return submit(pool, task, *args, **kwargs)

        setattr(traced_submit, _MARK, submit)
        return traced_submit

    # -- install / uninstall -----------------------------------------------------

    def install(self) -> None:
        if self._undo:
            raise RuntimeError("tracer is already installed")
        for name, module_name, qualname, measure in self.targets:
            module = importlib.import_module(module_name)
            owner_name, _, attr = qualname.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name)
                raw = inspect.getattr_static(owner, attr)
                if isinstance(raw, (staticmethod, classmethod)):
                    wrapped = type(raw)(self.wrap(name, raw.__func__, measure))
                else:
                    wrapped = self.wrap(name, raw, measure)
                self._replace(owner, attr, raw, wrapped)
            else:
                # ``from x import f`` copies the function into the importing
                # module, so every copy inside the program is replaced.
                fn = getattr(module, attr)
                wrapped = self.wrap(name, fn, measure)
                for other in _program_modules():
                    for key, value in list(vars(other).items()):
                        if value is fn:
                            self._replace(other, key, fn, wrapped)
        raw = ThreadPoolExecutor.submit
        self._replace(ThreadPoolExecutor, "submit", raw, self._wrap_submit(raw))
        self.enabled = True

    def _replace(self, owner, attr: str, original, wrapped) -> None:
        setattr(owner, attr, wrapped)
        self._undo.append((owner, attr, original))

    def uninstall(self) -> None:
        self.enabled = False
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()
        # A module imported while the wrappers were in place copied them.
        for module in _program_modules():
            for key, value in list(vars(module).items()):
                original = getattr(value, _MARK, None)
                if original is not None:
                    setattr(module, key, original)

    # -- export -------------------------------------------------------------------

    def records(self) -> list[list]:
        """Spans with the parent replaced by its index (-1 for a root)."""
        index = {id(span): i for i, span in enumerate(self.spans)}
        # A span still open when the process was told to stop has no end.
        return [
            [s[NAME], s[START], max(s[START], s[END]),
             index[id(s[PARENT])] if s[PARENT] is not None else -1,
             s[REQUEST], s[VALUE]]
            for s in self.spans
        ]

    def dump(self, path: str) -> None:
        with open(path, "w") as out:
            json.dump(self.records(), out)


def _program_modules():
    return [
        module for name, module in list(sys.modules.items())
        if module is not None and (name == "repro" or name.startswith("repro."))
    ]


def leftover_wrappers() -> list[str]:
    """Names still bound to a span wrapper — empty once uninstalled."""
    found = []
    if hasattr(ThreadPoolExecutor.submit, _MARK):
        found.append("ThreadPoolExecutor.submit")
    for module in _program_modules():
        for key, value in list(vars(module).items()):
            if hasattr(value, _MARK):
                found.append(f"{module.__name__}.{key}")
            elif inspect.isclass(value) and value.__module__ == module.__name__:
                for attr, member in list(vars(value).items()):
                    member = getattr(member, "__func__", member)
                    if hasattr(member, _MARK):
                        found.append(f"{module.__name__}.{key}.{attr}")
    return found


def self_times(records: list[list]) -> list[float]:
    """Self time of every span: its duration minus what its children cover.

    Children are clipped to the parent's interval and overlapping children
    (parallel shard tasks) are counted once.  A child that outlives its
    parent — a pool task whose submitting call already returned — also
    counts against the nearest ancestors that were still running, so time a
    request spends in a worker thread is not charged to the coroutine that
    merely waits for it.
    """
    covered: list[list[tuple[float, float]]] = [[] for _ in records]
    for record in records:
        start, end, parent = record[START], record[END], record[PARENT]
        while parent >= 0:
            covered[parent].append((start, end))
            holder = records[parent]
            if start >= holder[START] and end <= holder[END]:
                break
            parent = holder[PARENT]
    out = []
    for record, intervals in zip(records, covered):
        start, end = record[START], record[END]
        busy, edge = 0.0, start
        for lo, hi in sorted(intervals):
            lo, hi = max(lo, edge), min(hi, end)
            if hi > lo:
                busy += hi - lo
                edge = hi
        out.append((end - start) - busy)
    return out


def summarize(
    records: list[list], since: float = float("-inf"), until: float = float("inf"),
) -> dict[str, dict[str, float]]:
    """Per span name: calls, total and self seconds, summed measured value —
    over the spans that started in ``[since, until)``."""
    summary: dict[str, dict[str, float]] = {}
    for record, own in zip(records, self_times(records)):
        if not since <= record[START] < until:
            continue
        entry = summary.setdefault(
            record[NAME], {"calls": 0, "total_s": 0.0, "self_s": 0.0, "value": 0}
        )
        entry["calls"] += 1
        entry["total_s"] += record[END] - record[START]
        entry["self_s"] += own
        entry["value"] += record[VALUE]
    return summary
