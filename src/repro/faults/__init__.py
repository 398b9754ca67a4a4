"""FaultSan: deterministic fault injection + atomic, self-healing reorganization.

Public surface:

* :class:`FaultPlan` / :func:`fault_hook` / :data:`SITES` — the failpoint
  registry (:mod:`repro.faults.plan`);
* :func:`atomic` / :func:`quarantine` / :func:`is_quarantined` — the
  journal-backed guards (:mod:`repro.faults.guard`);
* :mod:`repro.faults.journal` — the per-structure snapshot machinery.

See ``docs/faults.md`` for the site catalog, the plan spec grammar, and the
rollback/quarantine lifecycle.
"""

from repro.faults.guard import (
    RECOVERABLE,
    atomic,
    is_quarantined,
    quarantine,
    quarantine_reason,
)
from repro.faults.plan import (
    KINDS,
    PAYLOAD_SITES,
    SITES,
    FaultPlan,
    FaultPlanError,
    FaultSpec,
    active_plan,
    fault_hook,
    install_plan,
    resolve_plan,
)

__all__ = [
    "KINDS",
    "PAYLOAD_SITES",
    "RECOVERABLE",
    "SITES",
    "FaultPlan",
    "FaultPlanError",
    "FaultSpec",
    "active_plan",
    "atomic",
    "fault_hook",
    "install_plan",
    "is_quarantined",
    "quarantine",
    "quarantine_reason",
    "resolve_plan",
]
