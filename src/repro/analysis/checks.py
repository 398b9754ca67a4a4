"""One switchboard for the runtime checkers: CrackSan, FaultSan, RaceSan.

A :class:`Checks` holds the CrackSan ``sanitize`` level, the FaultSan
``faults`` plan spec and RaceSan on/off; :meth:`Checks.armed` activates
them process-wide for one ``with`` block (the CLI flags, a config's
``[run]`` table and the pytest options all arm through it)::

    with Checks(sanitize="deep", faults="mapset.align@2=error").armed() as armed:
        ...  # every Database, engine and executor in here is checked

Scopes nest, on one thread.  A field left ``None`` inherits the enclosing
scope's setting and checker (one sanitizer keeps watching the same
structures); a set field replaces it for the block, ``faults`` with a fresh
plan whose ``@N`` counts hits across every ``Database`` built inside.  On
exit, normal or by exception, the enclosing arming is restored.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, fields
from typing import Iterator

from repro.analysis.racesan import RaceSan, resolve_mode
from repro.analysis.sanitizer import Sanitizer, resolve_level
from repro.faults.plan import FaultPlan, active_plan, install_plan, resolve_plan


@dataclass(frozen=True)
class Checks:
    """The three check settings, validated on construction (a malformed
    level or plan raises here); ``None`` inherits, ``faults=""`` is no plan."""

    sanitize: str | None = None
    faults: str | None = None
    racesan: bool | None = None

    def __post_init__(self) -> None:
        if self.sanitize is not None:
            object.__setattr__(self, "sanitize", resolve_level(self.sanitize))
        if self.faults is not None:
            FaultPlan.parse(self.faults)
            object.__setattr__(self, "faults", self.faults.strip())
        if self.racesan is not None:
            object.__setattr__(self, "racesan", resolve_mode(self.racesan) == "on")

    @contextmanager
    def armed(self, seed: int | None = None) -> Iterator["Armed"]:
        """Activate these checks for the block.  ``seed`` is the run's crack
        seed (default 42, as ``Database``'s): it seeds a new plan and is
        stamped on the violations of every checker this scope creates."""
        global _ARMED
        seed, outer = 42 if seed is None else seed, _ARMED
        checks = Checks(**{
            f.name: getattr(outer.checks if getattr(self, f.name) is None else self,
                            f.name)
            for f in fields(self)
        })
        sanitizer, detector = outer.sanitizer, outer.racesan
        if checks.sanitize != outer.checks.sanitize:
            sanitizer = (None if checks.sanitize == "off"
                         else Sanitizer(checks.sanitize, seed=seed))
        if checks.racesan != outer.checks.racesan:
            detector = RaceSan(seed=seed) if checks.racesan else None
        previous_plan = active_plan()
        plan = previous_plan if self.faults is None else resolve_plan(self.faults, seed)
        inner = _ARMED = Armed(checks, sanitizer, detector, plan)
        _swap(outer, inner)
        install_plan(plan)
        try:
            yield inner
        finally:
            install_plan(previous_plan)
            _swap(inner, outer)
            _ARMED = outer


@dataclass(frozen=True)
class Armed:
    """One armed scope: its resolved :class:`Checks` and the active
    checkers (``None`` where a check is off)."""

    checks: Checks
    sanitizer: Sanitizer | None
    racesan: RaceSan | None
    plan: FaultPlan | None


def _swap(old: Armed, new: Armed) -> None:
    for was, now in ((old.sanitizer, new.sanitizer), (old.racesan, new.racesan)):
        if was is not now:
            if was is not None:
                was.deactivate()
            if now is not None:
                now.activate()


_ARMED = Armed(Checks(sanitize="off", faults="", racesan=False), None, None, None)


def current() -> Armed:
    """The innermost armed scope (everything off outside any scope)."""
    return _ARMED
