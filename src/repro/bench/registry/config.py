"""Declarative experiment configs (TOML or JSON).

One config = one experiment invocation, optionally fanned out over a
parameter sweep::

    [experiment]
    name = "exp16"        # registered experiment
    scale = 0.1           # default: $REPRO_SCALE (via default_scale())
    seed = 42             # default: the driver's own default

    [run]                 # optional checks, armed around every cell
    sanitize = "deep"     # CrackSan level
    faults = "procpool.worker@1..12=error"   # FaultSan plan
    racesan = "on"        # RaceSan on/off

    [params]              # run() kwargs; validated against the spec
    queries = 400

    [sweep]               # lists fan out as a cartesian product
    crack_budget = [0.01, 0.05]

    [artifact]
    ref = "current/exp16"  # named ref; "baseline/exp16" refreshes the baseline

Unknown sections and unknown keys are rejected outright — a typo must
fail the run, not silently fall back to a default.  The ``[run]`` table
becomes :attr:`ExperimentConfig.checks`, a :class:`~repro.analysis.checks.Checks`
(so a malformed plan fails at load time).
"""

from __future__ import annotations

import itertools
import json
import tomllib
from dataclasses import dataclass, field
from pathlib import Path

from repro.analysis.checks import Checks
from repro.errors import ReproError


class ConfigError(Exception):
    """The config file is malformed or contains unknown keys."""


_SECTIONS = {
    "experiment": {"name", "scale", "seed"},
    "run": {"sanitize", "faults", "racesan"},
    "params": None,  # free-form; validated against the spec at run time
    "sweep": None,
    "artifact": {"ref"},
}


@dataclass(frozen=True)
class ExperimentConfig:
    name: str
    scale: float | None = None
    seed: int | None = None
    params: dict = field(default_factory=dict)
    sweep: dict = field(default_factory=dict)
    checks: Checks = field(default_factory=Checks)  # the [run] table
    ref: str | None = None
    path: str | None = None

    def cells(self) -> list[dict]:
        """Expand the sweep into per-run parameter overrides.

        Deterministic: the cartesian product is taken in the config's own
        key-declaration order, so cell *i* always means the same point.
        """
        if not self.sweep:
            return [dict(self.params)]
        keys = list(self.sweep)
        cells = []
        for values in itertools.product(*(self.sweep[k] for k in keys)):
            cell = dict(self.params)
            cell.update(zip(keys, values))
            cells.append(cell)
        return cells


def load_config(path: str | Path) -> ExperimentConfig:
    path = Path(path)
    try:
        if path.suffix == ".toml":
            with path.open("rb") as handle:
                raw = tomllib.load(handle)
        elif path.suffix == ".json":
            with path.open() as handle:
                raw = json.load(handle)
        else:
            raise ConfigError(
                f"{path}: unsupported config format {path.suffix!r} "
                "(want .toml or .json)")
    except (tomllib.TOMLDecodeError, json.JSONDecodeError) as exc:
        raise ConfigError(f"{path}: parse error: {exc}") from exc
    except FileNotFoundError:
        raise ConfigError(f"{path}: no such config file") from None
    return parse_config(raw, source=str(path))


def parse_config(raw: dict, source: str = "<config>") -> ExperimentConfig:
    if not isinstance(raw, dict):
        raise ConfigError(f"{source}: top level must be a table/object")
    unknown = set(raw) - set(_SECTIONS)
    if unknown:
        raise ConfigError(
            f"{source}: unknown section(s) {sorted(unknown)}; "
            f"allowed: {sorted(_SECTIONS)}")
    for section, allowed in _SECTIONS.items():
        table = raw.get(section, {})
        if not isinstance(table, dict):
            raise ConfigError(f"{source}: [{section}] must be a table")
        if allowed is not None:
            bad = set(table) - allowed
            if bad:
                raise ConfigError(
                    f"{source}: unknown key(s) {sorted(bad)} in [{section}]; "
                    f"allowed: {sorted(allowed)}")

    experiment = raw.get("experiment", {})
    name = experiment.get("name")
    if not name or not isinstance(name, str):
        raise ConfigError(f"{source}: [experiment] needs a string 'name'")
    scale = experiment.get("scale")
    if scale is not None and not isinstance(scale, (int, float)):
        raise ConfigError(f"{source}: [experiment] scale must be a number")
    seed = experiment.get("seed")
    if seed is not None and not isinstance(seed, int):
        raise ConfigError(f"{source}: [experiment] seed must be an integer")

    sweep = dict(raw.get("sweep", {}))
    for key, values in sweep.items():
        if not isinstance(values, list) or not values:
            raise ConfigError(
                f"{source}: [sweep] {key} must be a non-empty list")
    params = dict(raw.get("params", {}))
    overlap = set(params) & set(sweep)
    if overlap:
        raise ConfigError(
            f"{source}: {sorted(overlap)} appear in both [params] and [sweep]")

    try:
        checks = Checks(**raw.get("run", {}))
    except ReproError as exc:
        raise ConfigError(f"{source}: [run] {exc}") from exc

    return ExperimentConfig(
        name=name,
        scale=float(scale) if scale is not None else None,
        seed=seed,
        params=params,
        sweep=sweep,
        checks=checks,
        ref=raw.get("artifact", {}).get("ref"),
        path=source,
    )
