"""Static and runtime correctness tooling for the cracking structures.

Four complementary layers live here, and one switchboard —
:class:`repro.analysis.checks.Checks` — arms the runtime ones (CrackSan,
RaceSan, and :mod:`repro.faults`' FaultSan) for a scope:

* :mod:`repro.analysis.sanitizer` — **CrackSan**, a runtime sanitizer that
  registers every live cracking structure and validates the unified
  invariant catalog at configurable checkpoints (``off`` / ``post-crack`` /
  ``post-query`` / ``deep``);
* :mod:`repro.analysis.racesan` — **RaceSan**, a dynamic Eraser-style
  lockset race detector over the serving layer's locks (candidate locksets
  for guarded fields, lock-order graph, potential-deadlock cycles);
* :mod:`repro.analysis.lint` — a custom AST lint pass enforcing repo
  contracts the type system cannot express (payload-mutation confinement,
  seeded randomness, counter/tape API discipline, ...), runnable as
  ``python -m repro.analysis.lint``;
* :mod:`repro.analysis.locklint` — the static half of **LockSan**: a
  lock-discipline pass that summarizes lock acquisitions per function and
  checks the table → shard hierarchy, upgrade bans, and
  no-blocking-under-write-lock rules, runnable as
  ``python -m repro.analysis.locklint``.

The shared invariant catalog the docs refer to is
:mod:`repro.analysis.invariants`; report/artifact conventions are
:mod:`repro.analysis.diagnostics`.

Re-exports are lazy (PEP 562): :mod:`repro.server.locks` imports
``racesan`` for its instrumentation hooks while ``sanitizer`` imports
``locks`` for :class:`~repro.server.locks.Mutex` — eager package imports
here would close that cycle.
"""

__all__ = [
    "Checks",
    "LEVELS",
    "RaceSan",
    "Sanitizer",
    "checkpoint_crack",
    "checkpoint_query",
    "register_structure",
    "resolve_level",
]

_HOMES = {
    "Checks": "repro.analysis.checks",
    "LEVELS": "repro.analysis.sanitizer",
    "RaceSan": "repro.analysis.racesan",
    "Sanitizer": "repro.analysis.sanitizer",
    "checkpoint_crack": "repro.analysis.sanitizer",
    "checkpoint_query": "repro.analysis.sanitizer",
    "register_structure": "repro.analysis.sanitizer",
    "resolve_level": "repro.analysis.sanitizer",
}


def __getattr__(name: str):
    home = _HOMES.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(home), name)
