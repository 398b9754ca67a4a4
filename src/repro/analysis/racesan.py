"""RaceSan: dynamic lockset race detection for the serving layer.

The static pass (:mod:`repro.analysis.locklint`) proves lock *discipline*
over the code; RaceSan watches lock *behavior* at runtime, Eraser-style
(Savage et al., 1997), through two data structures:

**Per-thread held-lock sets.**  Every :class:`~repro.server.locks.RWLock`
and :class:`~repro.server.locks.Mutex` acquisition/release calls the
:func:`note_acquire`/:func:`note_release` hooks (one ``WeakSet`` emptiness
check when RaceSan is off).  The held set is keyed by lock *name* —
``"R"``, ``"R.A.3"``, ``"executor.cache"`` — so logically-equal locks of
recreated structures alias correctly.

**Candidate locksets.**  Serving-layer code marks accesses to guarded
state — shard piece arrays, tapes, pending buffers, result-cache entries,
``data_version`` — with :func:`note_access`.  Each such *variable* runs the
Eraser state machine: first thread owns it exclusively; once a second
thread touches it the candidate lockset is refined to the intersection of
the locks held at every access.  A variable whose lockset goes empty after
a cross-thread write is reported as a **data race** — a structured
:class:`~repro.errors.RaceViolation` carrying both access stacks, the
thread names, the failing lockset, and the owning database's crack seed.
This re-detects the PR 6 class of bug (reading ``data_version`` outside
the table lock that serializes it against updates) mechanically, with no
bespoke widened-window detector.

**The lock-order graph.**  Acquiring ``B`` while holding ``A`` records the
edge ``A → B`` (with the acquisition stack, captured once per novel edge).
A cycle in this graph is a *potential deadlock* even if no run ever
deadlocks — reported with the acquisition stack of every edge on the
cycle.  The serving layer's declared hierarchy (table → shard → leaf
mutexes) keeps the graph acyclic; RaceSan is the machine check.

``--racesan``, a config's ``[run] racesan`` and the pytest option arm one
detector through a scoped :class:`repro.analysis.checks.Checks`, as for
CrackSan; no ``Database`` owns one.  A test can activate its own::

    with RaceSan(strict=False).activated() as rs:
        ...  # serve concurrently
    assert not rs.violations, rs.report()

In strict mode a violation raises :class:`~repro.errors.RaceError` at the
detecting access; with ``strict=False`` violations collect on
:attr:`RaceSan.violations`.  When ``$REPRO_CHECK_ARTIFACTS`` is set, every
violation also drops a ``racesan-repro-*.json`` reproduction file (shared
conventions: :mod:`repro.analysis.diagnostics`).
"""

from __future__ import annotations

import threading
import traceback
import weakref
from contextlib import contextmanager
from typing import Iterator

from repro.analysis.diagnostics import dump_artifact, format_report
from repro.errors import PlanError, RaceError, RaceViolation

#: Frames kept per captured stack (innermost last).
STACK_LIMIT = 16

#: Eraser variable states.
EXCLUSIVE = "exclusive"
SHARED = "shared"
SHARED_MODIFIED = "shared-modified"


def resolve_mode(mode: "str | bool | None" = None) -> str:
    """Normalize a racesan spec to ``"on"``/``"off"``; strictness is the caller's."""
    if isinstance(mode, bool):
        return "on" if mode else "off"
    name = str(mode).strip().lower()
    if name in ("", "none", "0", "false", "off"):
        return "off"
    if name in ("1", "true", "on"):
        return "on"
    raise PlanError(f"unknown racesan mode {mode!r}; choose on or off")


#: Active detectors.  A weak set, like CrackSan's: a detector stays active
#: only while something (an armed ``Checks`` scope, a test) holds it.
_ACTIVE: "weakref.WeakSet[RaceSan]" = weakref.WeakSet()

#: Per-thread lock bookkeeping + a re-entrancy guard: the hooks themselves
#: allocate, allocation can trigger GC, and GC can run weakref callbacks
#: that acquire tracked mutexes — those nested notes must stay inert.
_TLS = threading.local()


def _held() -> dict[int, list]:
    held = getattr(_TLS, "held", None)
    if held is None:
        held = _TLS.held = {}
    return held


def _capture_stack(skip: int = 2) -> tuple[str, ...]:
    frames = traceback.extract_stack()[:-skip][-STACK_LIMIT:]
    return tuple(f"{f.filename}:{f.lineno} in {f.name}" for f in frames)


def _thread_label() -> str:
    thread = threading.current_thread()
    return f"{thread.name}#{thread.ident}"


def active_detectors() -> list["RaceSan"]:
    return list(_ACTIVE)


# -- the hooks (called from repro.server.locks and the serving layer) --------


def note_acquire(lock: object, mode: str) -> None:
    """A tracked lock was acquired in ``mode`` (``read``/``write``/``mutex``)."""
    if not _ACTIVE or getattr(_TLS, "in_hook", False):
        return
    _TLS.in_hook = True
    try:
        held = _held()
        entry = held.get(id(lock))
        if entry is not None:
            entry[2] += 1  # re-entrant / read-through: same lock, deeper
            if mode == "write":
                entry[1] = "write"
            return
        name = getattr(lock, "name", "") or f"lock@{id(lock):#x}"
        prior = [e[0] for e in held.values()]
        held[id(lock)] = [name, mode, 1]
        for detector in list(_ACTIVE):
            detector._note_order(prior, name)
    finally:
        _TLS.in_hook = False


def note_release(lock: object, mode: str) -> None:
    """A tracked lock was released (tolerates locks acquired while off)."""
    held = getattr(_TLS, "held", None)
    if not held:
        return
    entry = held.get(id(lock))
    if entry is None:
        return
    entry[2] -= 1
    if entry[2] <= 0:
        del held[id(lock)]


def note_access(subject: str, kind: str, seed: "int | None" = None) -> None:
    """A guarded variable was accessed (``kind`` is ``read`` or ``write``).

    ``subject`` names the variable (``"R.data_version"``,
    ``"shard[R.A#2].pieces"``); call sites place this *inside* the critical
    section that guards the access, so the thread's held-lock set is the
    access's lockset.
    """
    if not _ACTIVE or getattr(_TLS, "in_hook", False):
        return
    _TLS.in_hook = True
    try:
        lockset = frozenset(entry[0] for entry in _held().values())
        for detector in list(_ACTIVE):
            detector._note_access(subject, kind, lockset, seed)
    finally:
        _TLS.in_hook = False


def held_lock_names() -> frozenset[str]:
    """The calling thread's current tracked lockset (for tests/debugging)."""
    return frozenset(entry[0] for entry in _held().values())


class _VarState:
    """Eraser bookkeeping for one guarded variable."""

    __slots__ = ("state", "owner", "lockset", "last_write", "reported")

    def __init__(self, owner: int) -> None:
        self.state = EXCLUSIVE
        self.owner = owner
        self.lockset: frozenset[str] | None = None  # None == every lock
        self.last_write: tuple[str, tuple[str, ...]] | None = None
        self.reported = False


class RaceSan:
    """One lockset race detector: variables, lock-order graph, violations.

    Parameters
    ----------
    seed:
        The run's ``crack_seed``, stamped onto lock-order violations (a data
        race carries the seed its access reported) so a stochastic schedule
        can be replayed.
    strict:
        Raise :class:`RaceError` at the detecting access (default).  With
        ``strict=False`` violations are collected on :attr:`violations` —
        the pytest ``--racesan`` option's mode, which lets a whole test
        finish and then fails it with the full report.
    """

    def __init__(
        self,
        seed: "int | None" = None,
        strict: bool = True,
    ) -> None:
        self.seed = seed
        self.strict = strict
        self.violations: list[RaceViolation] = []
        self.accesses = 0
        #: lock-order edges: (from_name, to_name) -> (thread, stack)
        self._edges: dict[tuple[str, str], tuple[str, tuple[str, ...]]] = {}
        self._vars: dict[str, _VarState] = {}
        #: Internal bookkeeping lock.  Deliberately a *raw* RLock: the
        #: detector cannot instrument itself, and weakref callbacks firing
        #: mid-hook must be able to re-enter.  locklint allowlists this file.
        self._lock = threading.RLock()

    # -- lifecycle -----------------------------------------------------------

    def activate(self) -> "RaceSan":
        _ACTIVE.add(self)
        return self

    def deactivate(self) -> None:
        _ACTIVE.discard(self)

    @contextmanager
    def activated(self) -> Iterator["RaceSan"]:
        self.activate()
        try:
            yield self
        finally:
            self.deactivate()

    # -- lock-order graph ----------------------------------------------------

    def _note_order(self, prior: list[str], name: str) -> None:
        new_edges = []
        with self._lock:
            for held_name in prior:
                if held_name == name:
                    continue
                edge = (held_name, name)
                if edge not in self._edges:
                    new_edges.append(edge)
            if not new_edges:
                return
            stack = _capture_stack(skip=4)
            thread = _thread_label()
            for edge in new_edges:
                self._edges[edge] = (thread, stack)
            cycles = [
                cycle for edge in new_edges
                if (cycle := self._find_cycle(edge)) is not None
            ]
        for cycle in cycles:
            self._report_cycle(cycle)

    def _find_cycle(self, edge: tuple[str, str]) -> "list[tuple[str, str]] | None":
        """A path of recorded edges from ``edge[1]`` back to ``edge[0]``.

        Returns the full cycle (``edge`` last) or ``None``.  Caller holds
        the bookkeeping lock.
        """
        start, target = edge[1], edge[0]
        stack = [(start, [])]
        seen = {start}
        adjacency: dict[str, list[str]] = {}
        for a, b in self._edges:
            adjacency.setdefault(a, []).append(b)
        while stack:
            node, path = stack.pop()
            for nxt in adjacency.get(node, ()):
                hop = path + [(node, nxt)]
                if nxt == target:
                    return hop + [edge]
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append((nxt, hop))
        return None

    def _report_cycle(self, cycle: list[tuple[str, str]]) -> None:
        names = " -> ".join([cycle[0][0]] + [b for _, b in cycle])
        stacks = []
        with self._lock:
            for a, b in cycle:
                thread, stack = self._edges.get((a, b), ("?", ()))
                stacks.append((f"{a} -> {b} acquired by {thread}", stack))
        violation = RaceViolation(
            kind="lock-order-cycle",
            subject=names,
            detail=(
                "lock acquisition order forms a cycle — two threads taking "
                "these locks in opposite orders can deadlock"
            ),
            context=(("edges", len(cycle)),),
            stacks=tuple(stacks),
            seed=self.seed,
        )
        self._record(violation)

    # -- the Eraser state machine -------------------------------------------

    def _note_access(
        self, subject: str, kind: str, lockset: frozenset[str],
        seed: "int | None",
    ) -> None:
        me = threading.get_ident()
        violation = None
        with self._lock:
            self.accesses += 1
            var = self._vars.get(subject)
            if var is None:
                var = self._vars[subject] = _VarState(me)
                if kind == "write":
                    var.last_write = (_thread_label(), _capture_stack(skip=4))
                return
            if var.state == EXCLUSIVE and var.owner == me:
                if kind == "write":
                    var.last_write = (_thread_label(), _capture_stack(skip=4))
                return
            # A second thread: refine the candidate lockset and advance.
            var.lockset = (
                lockset if var.lockset is None else var.lockset & lockset
            )
            if var.state != SHARED_MODIFIED:
                var.state = SHARED_MODIFIED if kind == "write" else SHARED
            elif kind == "write":
                var.state = SHARED_MODIFIED
            if kind == "write":
                new_write = (_thread_label(), _capture_stack(skip=4))
            else:
                new_write = None
            if var.state == SHARED_MODIFIED and not var.lockset and not var.reported:
                var.reported = True
                stacks = [(f"racing {kind} by {_thread_label()}",
                           _capture_stack(skip=4))]
                if var.last_write is not None:
                    writer, stack = var.last_write
                    stacks.append((f"last write by {writer}", stack))
                violation = RaceViolation(
                    kind="data-race",
                    subject=subject,
                    detail=(
                        f"candidate lockset is empty: no lock is consistently "
                        f"held across this variable's cross-thread accesses "
                        f"(this {kind} held {sorted(lockset) or '{}'})"
                    ),
                    context=(
                        ("state", var.state),
                        ("access", kind),
                        ("thread", _thread_label()),
                    ),
                    stacks=tuple(stacks),
                    seed=seed if seed is not None else self.seed,
                )
            if new_write is not None:
                var.last_write = new_write
        if violation is not None:
            self._record(violation)

    # -- reporting -----------------------------------------------------------

    def _record(self, violation: RaceViolation) -> None:
        self.violations.append(violation)
        dump_artifact("racesan-repro", {
            "kind": violation.kind,
            "subject": violation.subject,
            "detail": violation.detail,
            "context": [[str(k), str(v)] for k, v in violation.context],
            "stacks": [[title, list(stack)] for title, stack in violation.stacks],
            "crack_seed": violation.seed,
        })
        if self.strict:
            raise RaceError.from_violations([violation])

    def order_edges(self) -> dict[tuple[str, str], str]:
        """The recorded lock-order graph (edge -> acquiring thread)."""
        with self._lock:
            return {edge: thread for edge, (thread, _) in self._edges.items()}

    def report(self) -> str:
        with self._lock:
            edges = len(self._edges)
            variables = len(self._vars)
        title = (
            f"RaceSan strict={self.strict}: "
            f"{self.accesses} accesses over {variables} variable(s), "
            f"{edges} lock-order edge(s), {len(self.violations)} violation(s)"
        )
        return format_report(title, self.violations)
