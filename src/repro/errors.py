"""Exception hierarchy for the repro column-store.

Every error raised by the library derives from :class:`ReproError` so callers
can catch library failures without masking programming errors.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class CatalogError(ReproError):
    """A relation or attribute was not found, or a name clashed."""


class SchemaError(ReproError):
    """Column shapes, dtypes, or schema definitions are inconsistent."""


class PredicateError(ReproError):
    """A selection predicate is malformed (e.g. empty or inverted range)."""


class CrackError(ReproError):
    """A cracking operation violated a structural invariant."""


class AlignmentError(CrackError):
    """A cracker map's tape cursor or replay state is inconsistent."""


@dataclass(frozen=True)
class InvariantViolation:
    """One broken invariant, with enough context to reproduce and debug it.

    ``structure`` identifies the live structure (``M_A,B``, ``S_A``,
    ``H_A``, ``cracker_column[R.A]``, ...), ``invariant`` names the catalog
    entry that failed (see :mod:`repro.analysis.invariants`), ``context``
    carries piece/area positions and bounds, and ``seed`` is the crack seed
    of the owning database when known, so a violating run can be replayed.
    """

    structure: str
    invariant: str
    detail: str
    context: tuple = field(default_factory=tuple)
    seed: int | None = None

    def describe(self) -> str:
        parts = [f"[{self.structure}] {self.invariant}: {self.detail}"]
        if self.context:
            ctx = ", ".join(f"{k}={v}" for k, v in self.context)
            parts.append(f"({ctx})")
        if self.seed is not None:
            parts.append(f"(crack_seed={self.seed})")
        return " ".join(parts)


class InvariantError(CrackError):
    """A catalogued physical invariant does not hold.

    Raised by the unified ``check_invariants`` methods and by the CrackSan
    sanitizer in strict mode; carries the structured
    :class:`InvariantViolation` records instead of a bare assertion message.
    """

    def __init__(self, message: str, violations: Iterable[InvariantViolation] = ()) -> None:
        super().__init__(message)
        self.violations: tuple[InvariantViolation, ...] = tuple(violations)

    @classmethod
    def from_violations(cls, violations: Iterable[InvariantViolation]) -> "InvariantError":
        violations = tuple(violations)
        lines = [v.describe() for v in violations]
        count = len(violations)
        header = f"{count} invariant violation{'s' if count != 1 else ''}"
        return cls("\n".join([header] + lines), violations)


@dataclass(frozen=True)
class RaceViolation:
    """One concurrency-discipline violation found by RaceSan.

    The dynamic twin of :class:`InvariantViolation`, sharing its shape:
    ``kind`` is the catalog entry (``data-race`` or ``lock-order-cycle``),
    ``subject`` identifies the racing variable (``"R.data_version"``,
    ``"shard[R.A#2].pieces"``) or the lock cycle, ``detail`` is the
    human-readable story, ``context`` carries threads/locksets, ``stacks``
    the captured acquisition/access stacks, and ``seed`` the owning
    database's crack seed so a stochastic schedule can be replayed.
    """

    kind: str
    subject: str
    detail: str
    context: tuple = field(default_factory=tuple)
    stacks: tuple = field(default_factory=tuple)
    seed: int | None = None

    def describe(self) -> str:
        parts = [f"[{self.subject}] {self.kind}: {self.detail}"]
        if self.context:
            ctx = ", ".join(f"{k}={v}" for k, v in self.context)
            parts.append(f"({ctx})")
        if self.seed is not None:
            parts.append(f"(crack_seed={self.seed})")
        return " ".join(parts)

    def describe_full(self) -> str:
        lines = [self.describe()]
        for title, stack in self.stacks:
            lines.append(f"  -- {title} --")
            lines.extend(f"    {frame}" for frame in stack)
        return "\n".join(lines)


class RaceError(ReproError):
    """RaceSan found a data race or a potential deadlock (strict mode).

    Carries the structured :class:`RaceViolation` records, mirroring
    :class:`InvariantError` for CrackSan.
    """

    def __init__(self, message: str, violations: Iterable[RaceViolation] = ()) -> None:
        super().__init__(message)
        self.violations: tuple[RaceViolation, ...] = tuple(violations)

    @classmethod
    def from_violations(cls, violations: Iterable[RaceViolation]) -> "RaceError":
        violations = tuple(violations)
        count = len(violations)
        header = f"{count} concurrency violation{'s' if count != 1 else ''}"
        lines = [v.describe_full() for v in violations]
        return cls("\n".join([header] + lines), violations)


class StorageBudgetError(ReproError):
    """The storage manager cannot satisfy an allocation within its budget."""


class PersistError(ReproError):
    """A persisted database image is truncated, corrupted, or unreadable.

    Carries the offending ``path`` and, when known, the archive ``member``
    and byte ``offset`` where the damage was detected, so a corrupt snapshot
    can be diagnosed without re-running the load under a debugger.
    """

    def __init__(
        self,
        message: str,
        *,
        path: str | None = None,
        member: str | None = None,
        offset: int | None = None,
    ) -> None:
        parts = [message]
        if path is not None:
            parts.append(f"path={path}")
        if member is not None:
            parts.append(f"member={member}")
        if offset is not None:
            parts.append(f"offset={offset}")
        super().__init__(" ".join(parts))
        self.path = path
        self.member = member
        self.offset = offset


class FaultError(ReproError):
    """A fault (injected or real) could not be recovered transparently.

    Raised by the engine layer when rollback, quarantine-rebuild, *and* the
    scan fallback all failed to produce a correct answer.  The original
    failure is chained as ``__cause__``; ``site`` names the failpoint when
    the fault was injected by :mod:`repro.faults`.
    """

    def __init__(self, message: str, *, site: str | None = None) -> None:
        if site is not None:
            message = f"{message} (site={site})"
        super().__init__(message)
        self.site = site


class InjectedFault(Exception):
    """A deterministic fault raised by an armed :class:`repro.faults.FaultPlan`.

    Deliberately *not* a :class:`ReproError`: library code that catches
    ``ReproError`` (or any typed subset) can never swallow an injected fault
    by accident — only the recovery guard and the engine fallback handle it.
    """

    def __init__(self, site: str, hit: int, kind: str = "error") -> None:
        super().__init__(f"injected fault at {site} (hit #{hit}, kind={kind})")
        self.site = site
        self.hit = hit
        self.kind = kind


class ArenaPressure(MemoryError):
    """Simulated (or real) allocation failure inside a :class:`KernelArena`.

    Subclasses :class:`MemoryError`, so it is one of the recoverable
    failures of :data:`repro.faults.guard.RECOVERABLE`: the kernels request
    their arena buffers *before any array is mutated*, and the failure
    leaves the kernel like any other fault (rollback, heal, scan fallback).
    """

    def __init__(self, site: str = "arena.alloc", detail: str = "") -> None:
        super().__init__(f"arena allocation failure at {site}" + (f": {detail}" if detail else ""))
        self.site = site


class UpdateError(ReproError):
    """A pending-update merge failed or saw inconsistent keys."""


class PlanError(ReproError):
    """The planner could not build an execution plan for a query."""


class ServerError(ReproError):
    """The concurrent serving layer hit a coordination failure.

    Raised for protocol violations (malformed client frames), lock
    acquisitions that exceed their deadline, and submissions to a stopped
    executor.
    """


class ServerOverloaded(ServerError):
    """The executor shed this request under admission control.

    Raised when the bounded admission queue is full (``max_queue`` /
    ``max_inflight``) and the configured shed policy decided this request
    is the one to drop — at submission for ``reject-newest``, or while
    waiting for a future that a later admission cancelled
    (``reject-oldest`` / ``deadline-aware``).  A typed wire error: clients
    see ``kind: "ServerOverloaded"`` and should back off, not retry hot.
    """

    def __init__(self, message: str, *, policy: str | None = None) -> None:
        if policy is not None:
            message = f"{message} (policy={policy})"
        super().__init__(message)
        self.policy = policy


class QueryTimeout(ServerError):
    """A served query did not finish within its deadline.

    The timeout bounds the *client's* wait, not the work (there is no safe
    way to preempt a cracker mid-partition, and rollback is FaultSan's
    job) — but an abandoned request is marked *cancelled*: the worker
    checks the flag at scatter/probe boundaries and stops early instead of
    burning shard workers, and a result computed anyway is never admitted
    to the result cache.
    """

    def __init__(self, message: str, *, seconds: float | None = None) -> None:
        if seconds is not None:
            message = f"{message} (timeout={seconds:g}s)"
        super().__init__(message)
        self.seconds = seconds
