"""Shared diagnostics plumbing for the analysis tools.

CrackSan (runtime invariants), RaceSan (dynamic lockset race detection),
and the two AST passes (:mod:`repro.analysis.lint`,
:mod:`repro.analysis.locklint`) all report through the same conventions:

* structured violation records with a ``describe()`` method, raised inside
  a typed error (strict mode) or collected for a summary report;
* best-effort JSON *repro artifacts* dropped next to a failing run when
  ``$REPRO_CHECK_ARTIFACTS`` is set (to a directory path, or ``1`` for the
  working directory), so CI can attach reproduction material without
  re-running anything.  (Which checks run is :class:`~repro.analysis.checks.Checks`'
  business, never the environment's.)

This module owns the artifact half so the tools cannot drift apart on
file naming or dump format.
"""

from __future__ import annotations

import json
import os
import threading

ARTIFACT_ENV_VAR = "REPRO_CHECK_ARTIFACTS"

_COUNTER_LOCK = threading.Lock()
_COUNTERS: dict[str, int] = {}


def dump_artifact(prefix: str, payload: dict) -> str | None:
    """Write ``payload`` as ``<prefix>-<pid>-<n>.json`` under the directory
    ``$REPRO_CHECK_ARTIFACTS`` names (``1``: the working directory);
    best-effort (returns the path, or ``None``).

    Never raises: the artifact must not mask the real error being reported.
    """
    directory = os.environ.get(ARTIFACT_ENV_VAR)
    if not directory:
        return None
    if directory in ("1", "true", "on"):
        directory = os.getcwd()
    with _COUNTER_LOCK:
        _COUNTERS[prefix] = _COUNTERS.get(prefix, 0) + 1
        counter = _COUNTERS[prefix]
    path = os.path.join(directory, f"{prefix}-{os.getpid()}-{counter}.json")
    try:
        os.makedirs(directory, exist_ok=True)
        with open(path, "w") as handle:
            json.dump(payload, handle, indent=2)
    except OSError:
        return None
    return path


def format_report(title: str, violations) -> str:
    """One-line header plus each violation's ``describe()``, indented."""
    lines = [title]
    for violation in violations:
        lines.append("  " + violation.describe())
    return "\n".join(lines)
