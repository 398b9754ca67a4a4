"""The config-driven experiment runner.

``run_config`` resolves a declarative :class:`ExperimentConfig` against the
experiment registry, expands its sweep, executes every cell with seeded
determinism, and lands each result in the artifact store with full
provenance (git SHA, host, scale + ``REPRO_SCALE`` echo, seed, params,
fault/sanitizer environment).  The store is the only place a run writes.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from repro.bench.harness import default_scale
from repro.bench.registry.artifacts import (
    ArtifactRecord,
    ArtifactStore,
    run_metadata,
)
from repro.bench.registry.config import ConfigError, ExperimentConfig
from repro.bench.registry.core import EXPERIMENTS, ExperimentSpec

#: Environment knobs a config's [run] table may arm, in the same way the
#: ``python -m repro`` flags do (every Database reads these at construction).
_ENV_KNOBS = {"sanitize": "REPRO_SANITIZE", "faults": "REPRO_FAULTS",
              "racesan": "REPRO_RACESAN"}


@dataclass(frozen=True)
class RunOutcome:
    experiment: str
    record: ArtifactRecord
    ref: str
    params: dict
    result: dict


def _validate_params(spec: ExperimentSpec, params: dict, source: str) -> None:
    unknown = set(params) - set(spec.params)
    if unknown:
        raise ConfigError(
            f"{source}: experiment {spec.name!r} does not accept "
            f"param(s) {sorted(unknown)}; allowed: {sorted(spec.params)}")


def _armed_env(env: dict) -> dict[str, str | None]:
    """Arm [run] env knobs; returns the previous values for restoration."""
    previous: dict[str, str | None] = {}
    for key, var in _ENV_KNOBS.items():
        if key not in env:
            continue
        value = str(env[key])
        if key == "faults":
            from repro.faults.plan import FaultPlan

            FaultPlan.parse(value)  # fail fast on a malformed plan
        previous[var] = os.environ.get(var)
        os.environ[var] = value
    return previous


def _restore_env(previous: dict[str, str | None]) -> None:
    for var, value in previous.items():
        if value is None:
            os.environ.pop(var, None)
        else:
            os.environ[var] = value


def run_config(
    config: ExperimentConfig,
    store: ArtifactStore,
    scale: float | None = None,
    echo=print,
    quiet: bool = False,
) -> list[RunOutcome]:
    """Run one config (every sweep cell) and store the results.

    ``scale`` overrides the config's; the config's overrides
    ``$REPRO_SCALE`` (via :func:`default_scale`).  The resolved value is
    echoed into every artifact's run metadata.
    """
    spec = EXPERIMENTS.get(config.name)
    source = config.path or "<config>"
    cells = config.cells()
    for cell in cells:
        _validate_params(spec, cell, source)
    if config.seed is not None and "seed" not in spec.params:
        raise ConfigError(
            f"{source}: experiment {spec.name!r} is not seedable")

    resolved_scale = (scale if scale is not None
                      else config.scale if config.scale is not None
                      else default_scale())
    base_ref = config.ref or f"current/{spec.name}"
    outcomes: list[RunOutcome] = []
    previous = _armed_env(config.env)
    try:
        for index, cell in enumerate(cells):
            kwargs = dict(cell)
            kwargs["scale"] = resolved_scale
            if config.seed is not None:
                kwargs["seed"] = config.seed
            result = spec.run(**kwargs)
            meta = run_metadata(
                spec.name,
                scale=resolved_scale,
                seed=kwargs.get("seed"),
                params=cell,
                config=source,
                sweep_cell=index if len(cells) > 1 else None,
            )
            record = store.put(result, meta)
            ref = base_ref if len(cells) == 1 else f"{base_ref}/{index}"
            store.set_ref(ref, record.artifact_id)
            outcomes.append(RunOutcome(spec.name, record, ref, cell, result))
            if not quiet:
                label = f"== {spec.name}"
                if len(cells) > 1:
                    label += f" [{index + 1}/{len(cells)}: {cell}]"
                echo(f"{label} -> {record.artifact_id} ({ref}) ==")
                echo(spec.describe(result))
                echo("")
    finally:
        _restore_env(previous)
    return outcomes


def run_smoke(
    store: ArtifactStore,
    scale: float | None = None,
    echo=print,
    quiet: bool = True,
) -> list[RunOutcome]:
    """Run every registered experiment at smoke scale (the bench-smoke job).

    A broken driver should fail a PR in minutes, not surface in the
    nightly-scale perf gate; artifacts land under ``smoke/<name>`` refs.
    """
    base_scale = default_scale() if scale is None else scale
    outcomes: list[RunOutcome] = []
    for name, spec in EXPERIMENTS.items():
        if spec.smoke_factor <= 0:
            echo(f"-- smoke: skipping {name} (excluded by spec)")
            continue
        config = ExperimentConfig(
            name=name,
            scale=base_scale * spec.smoke_factor,
            params=dict(spec.smoke_params),
            ref=f"smoke/{name}",
            path=f"<smoke:{name}>",
        )
        echo(f"-- smoke: {name} @ scale {config.scale:g}")
        outcomes.extend(run_config(config, store, echo=echo, quiet=quiet))
        echo(f"   ok: {outcomes[-1].record.artifact_id}")
    return outcomes
