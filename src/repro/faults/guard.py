"""Atomic reorganization: journal-backed guards, rollback, and quarantine.

:func:`atomic` wraps every outer reorganization operation (cracker-column
select/merge, map-set select/align/merge, partial-set plan/prepare/merge).
Semantics:

* **disarmed** (no fault plan, journal not forced): one module-level check
  and a shared do-nothing context manager — no generator, no snapshot, no
  validation;
* **armed**: the structure is snapshotted through
  :mod:`repro.faults.journal`; if the operation raises a *recoverable*
  failure (an :class:`InjectedFault`, any :class:`CrackError`, or a
  :class:`MemoryError`), the snapshot is restored and the restored state is
  deep-validated — a structure that *still* fails validation is quarantined
  (and later dropped + lazily rebuilt by ``Database.heal_faults``); the
  original exception is re-raised so the engine layer can re-answer the
  query through the scan fallback;
* on a *clean* exit with a dirty plan (a ``corrupt`` fault fired during the
  op), the structure is deep-validated anyway; detected corruption triggers
  the same rollback/quarantine path and raises the violations, because the
  already-computed answer may derive from the corrupted data.

Guards are re-entrant: an inner guarded call inside an outer guarded op is
the same no-op, so rollback always restores to the outermost operation
boundary.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager, nullcontext
from typing import ContextManager, Iterator

from repro.analysis import sanitizer
from repro.errors import CrackError, InjectedFault, InvariantError, InvariantViolation
from repro.faults import journal
from repro.faults.plan import active_plan

#: Exception types the recovery machinery treats as survivable: everything
#: else (CatalogError, PredicateError, programming errors, ...) propagates.
RECOVERABLE: tuple[type[BaseException], ...] = (InjectedFault, CrackError, MemoryError)

#: Re-entrancy depth is per thread: two serving workers guarding different
#: structures concurrently must each get their own journal snapshot, while an
#: inner guarded call on the *same* thread stays a no-op.
_GUARD = threading.local()

#: Arm the journal without any fault specs (exp15 measures its overhead).
FORCE_JOURNAL = False


def quarantine(obj: object, reason: str) -> None:
    """Flag a structure as unrecoverable; ``Database.heal_faults`` drops it."""
    obj._quarantined = reason  # type: ignore[attr-defined]


def is_quarantined(obj: object) -> bool:
    return getattr(obj, "_quarantined", None) is not None


def quarantine_reason(obj: object) -> str | None:
    return getattr(obj, "_quarantined", None)


def _validate(structure, kind: str) -> list[InvariantViolation]:
    """Deep-validate one structure, returning (not raising) its violations."""
    from repro.analysis import invariants

    with sanitizer.suspended():
        return invariants.check(structure, kind, deep=True)


def _rollback(structure, kind: str, restore, cause: str) -> None:
    """Restore the snapshot; quarantine the structure if it is still broken."""
    with sanitizer.suspended():
        restore()
    if _validate(structure, kind):
        quarantine(structure, cause)


#: What :func:`atomic` hands out when there is nothing to guard.
_DISARMED = nullcontext()


def atomic(structure, kind: str) -> ContextManager[None]:
    """Guard one reorganization op on ``structure`` (journal + rollback)."""
    plan = active_plan()
    depth = getattr(_GUARD, "depth", 0)
    if (plan is None and not FORCE_JOURNAL) or depth > 0:
        return _DISARMED
    return _armed(structure, kind, plan, depth)


@contextmanager
def _armed(structure, kind: str, plan, depth: int) -> Iterator[None]:
    restore = journal.take_snapshot(structure, kind)
    _GUARD.depth = depth + 1
    try:
        try:
            yield
        except RECOVERABLE as exc:
            _rollback(structure, kind, restore, f"rollback failed after {exc!r}")
            raise
        if plan is not None and plan.dirty:
            plan.dirty = False
            violations = _validate(structure, kind)
            if violations:
                _rollback(structure, kind, restore, "rollback failed after corruption")
                raise InvariantError.from_violations(violations)
    finally:
        _GUARD.depth = depth
