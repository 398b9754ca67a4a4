"""The single CI gate: registered checkers + the ``gates.toml`` runner.

Every gate function has one shape::

    GATES.get(name)(current, baseline, options) -> list[GateCheck]

``current``/``baseline`` are result payloads (dicts); ``baseline`` may be
None for self-judging experiments whose payload carries its own acceptance
flags.  ``python -m repro.bench gate --config ci/gates.toml`` resolves
both sides through the artifact store (``ref:current/exp18``), runs every
configured gate, prints a verdict table, optionally writes a structured
JSON report, and exits non-zero if anything failed — replacing the four
inline gate scripts CI used to carry.
"""

from __future__ import annotations

import json
import tomllib
from dataclasses import asdict, dataclass, field
from pathlib import Path

from repro.bench.registry.artifacts import ArtifactError, ArtifactStore
from repro.bench.registry.core import EXPERIMENTS, GATES


class GateConfigError(Exception):
    """gates.toml is malformed."""


@dataclass(frozen=True)
class GateCheck:
    name: str
    ok: bool
    detail: str


@dataclass
class GateResult:
    gate: str
    experiment: str
    ok: bool
    checks: list[GateCheck] = field(default_factory=list)
    error: str | None = None

    def to_dict(self) -> dict:
        return {
            "gate": self.gate,
            "experiment": self.experiment,
            "ok": self.ok,
            "checks": [asdict(c) for c in self.checks],
            "error": self.error,
        }


def _summary_flags(current: dict, flags: tuple[str, ...]) -> list[GateCheck]:
    summary = current.get("summary", {})
    return [
        GateCheck(flag, bool(summary.get(flag)),
                  f"summary[{flag!r}] = {summary.get(flag)!r}")
        for flag in flags
    ]


@GATES.register("kernels")
def gate_kernels(current, baseline, options) -> list[GateCheck]:
    """Kernel-vs-ceiling ratio regression vs baseline, plus spec identity."""
    from repro.bench.micro import ratio_failures

    tolerance = float(options.get("tolerance", 50.0))
    checks = [GateCheck(
        "kernels_match_spec", bool(current.get("all_identical")),
        f"all_identical = {current.get('all_identical')!r}")]
    if baseline is None:
        checks.append(GateCheck(
            "baseline_present", False, "no baseline to gate ratios against"))
        return checks
    failures = ratio_failures(current, baseline, tolerance)
    checks.append(GateCheck(
        "ratios_within_tolerance", not failures,
        "; ".join(failures) or
        f"no case fell more than {tolerance:.0f}% below baseline"))
    return checks


@GATES.register("exp14")
def gate_exp14(current, baseline, options) -> list[GateCheck]:
    checks = [GateCheck(
        "engines_match_scan", bool(current.get("engines_match_scan")),
        f"engine_failures = {current.get('engine_failures')!r}")]
    mismatched = [f"{policy} on {pattern}"
                  for pattern, cells in current.get("grid", {}).items()
                  for policy, cell in cells.items() if not cell["matches_scan"]]
    checks.append(GateCheck(
        "every_cell_matches_scan", not mismatched,
        f"policy x pattern cells off the scan: {mismatched or 'none'}"))
    min_ratio = options.get("min_headline_ratio")
    if min_ratio is not None:
        headline = current.get("headline") or {}
        ratio = headline.get("cost_ratio", 0.0)
        checks.append(GateCheck(
            "headline_ratio", ratio >= float(min_ratio),
            f"best stochastic policy {ratio:.1f}x cheaper than query_driven "
            f"(floor {float(min_ratio):.1f}x)"))
    return checks


@GATES.register("exp16")
def gate_exp16(current, baseline, options) -> list[GateCheck]:
    """Scan identity always; timing flags only under ``strict = true``.

    The budget/drag/adaptive flags are wall-clock ratios — honest at full
    scale on quiet hardware, noisy at smoke scale on shared runners — so
    CI gates correctness and publishes the timing flags via the report.
    """
    checks = [GateCheck(
        "all_match_scan", bool(current.get("all_match_scan")),
        f"mismatches = {current.get('mismatches')!r}")]
    if options.get("strict"):
        checks.extend(_summary_flags(current, (
            "progressive_within_2x_budget", "pmdd1r_drag_ok", "auto_ok")))
    return checks


@GATES.register("exp17")
def gate_exp17(current, baseline, options) -> list[GateCheck]:
    checks = _summary_flags(current, ("all_digests_match_serial",))
    if options.get("require_speedup"):
        checks.extend(_summary_flags(current, ("speedup_ok",)))
    return checks


@GATES.register("exp18")
def gate_exp18(current, baseline, options) -> list[GateCheck]:
    """Bit-identity across process/thread backends (the PR 8 inline gate)."""
    checks = _summary_flags(current, ("all_digests_match_serial",))
    if options.get("require_speedup"):
        checks.extend(_summary_flags(current, ("speedup_ok",)))
    return checks


@GATES.register("exp19")
def gate_exp19(current, baseline, options) -> list[GateCheck]:
    """p99 bound + honest shed + chaos absorption (the PR 9 inline gate)."""
    checks = _summary_flags(current, (
        "p99_ok", "shed_ok", "chaos_absorbed", "bit_identical_ok",
        "breaker_lifecycle_ok", "all_ok"))
    shed = current.get("overload_clean", {}).get("shed", 0)
    checks.append(GateCheck(
        "overload_actually_shed", shed > 0,
        f"overload phase shed {shed} requests (0 means it never overloaded)"))
    return checks


# -- gates.toml runner ---------------------------------------------------------


@dataclass(frozen=True)
class GateEntry:
    name: str
    experiment: str
    current: str
    baseline: str | None
    options: dict


_ENTRY_KEYS = {"experiment", "current", "baseline"}


def load_gate_config(path: str | Path) -> list[GateEntry]:
    path = Path(path)
    try:
        with path.open("rb") as handle:
            raw = tomllib.load(handle)
    except FileNotFoundError:
        raise GateConfigError(f"{path}: no such gate config") from None
    except tomllib.TOMLDecodeError as exc:
        raise GateConfigError(f"{path}: parse error: {exc}") from exc
    gates = raw.pop("gate", None)
    if raw or not isinstance(gates, dict) or not gates:
        raise GateConfigError(
            f"{path}: want exactly one [gate.<name>] table per gate"
            + (f"; unknown section(s) {sorted(raw)}" if raw else ""))
    gate_entries = []
    for name, table in gates.items():
        if not isinstance(table, dict):
            raise GateConfigError(f"{path}: [gate.{name}] must be a table")
        experiment = table.get("experiment", name)
        spec = EXPERIMENTS.get(experiment)  # raises on unknown experiment
        gate_name = table.get("checker", spec.gate)
        if gate_name is None:
            raise GateConfigError(
                f"{path}: [gate.{name}]: experiment {experiment!r} has no "
                "default gate; set 'checker'")
        GATES.get(gate_name)  # fail fast on unknown checker
        options = {k: v for k, v in table.items()
                   if k not in _ENTRY_KEYS and k != "checker"}
        options["checker"] = gate_name
        gate_entries.append(GateEntry(
            name=name,
            experiment=experiment,
            current=table.get("current", f"ref:current/{experiment}"),
            baseline=table.get("baseline", spec.baseline_ref
                               and f"ref:{spec.baseline_ref}"),
            options=options,
        ))
    return gate_entries


def run_gates(
    entries: list[GateEntry],
    store: ArtifactStore,
    only: set[str] | None = None,
) -> list[GateResult]:
    results = []
    for entry in entries:
        if only is not None and entry.name not in only:
            continue
        checker = GATES.get(entry.options["checker"])
        options = {k: v for k, v in entry.options.items() if k != "checker"}
        try:
            current = store.resolve(entry.current)
        except (ArtifactError, json.JSONDecodeError) as exc:
            results.append(GateResult(
                entry.name, entry.experiment, ok=False,
                error=f"cannot load current result ({entry.current}): {exc}"))
            continue
        # A missing baseline is the checker's call, not a hard error:
        # self-judging gates (exp17/18/19) never read it, while the kernels
        # checker fails its own baseline_present check when handed None.
        baseline = None
        if entry.baseline:
            try:
                baseline = store.resolve(entry.baseline)
            except (ArtifactError, json.JSONDecodeError):
                baseline = None
        try:
            checks = checker(current, baseline, options)
        except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
            results.append(GateResult(
                entry.name, entry.experiment, ok=False,
                error=f"payload lacks the shape this gate reads: {exc!r}"))
            continue
        results.append(GateResult(
            entry.name, entry.experiment,
            ok=all(c.ok for c in checks), checks=checks))
    return results


def format_gate_results(results: list[GateResult]) -> str:
    lines = []
    for result in results:
        verdict = "PASS" if result.ok else "FAIL"
        lines.append(f"[{verdict}] gate {result.gate} ({result.experiment})")
        if result.error:
            lines.append(f"    ! {result.error}")
        for check in result.checks:
            mark = "ok" if check.ok else "FAIL"
            lines.append(f"    - {check.name}: {mark} ({check.detail})")
    passed = sum(1 for r in results if r.ok)
    lines.append(f"{passed}/{len(results)} gates passed")
    return "\n".join(lines)
