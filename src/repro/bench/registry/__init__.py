"""Registry-driven experiment pipeline.

The bench package historically grew one bespoke driver per experiment and
one bespoke gate per CI job.  This package collapses that into four pieces
(see ``docs/bench.md``):

* :mod:`repro.bench.registry.core` — decorator-based registries for
  workloads, datasets, engines, metrics, gates, and experiments;
* :mod:`repro.bench.registry.config` — declarative experiment configs
  (TOML or JSON) with parameter sweeps and seeded determinism;
* :mod:`repro.bench.registry.artifacts` — a versioned, content-addressed
  artifact store under ``benchmarks/artifacts/`` holding every benchmark
  result plus the named baseline references CI gates against;
* :mod:`repro.bench.registry.gates` / :mod:`.trend` — one gate entry point
  (``python -m repro.bench gate``) and a markdown trend-report builder;
  :mod:`repro.bench.registry.paper_gates` holds the gates named after the
  paper's figures.

Importing this package registers the built-in components and experiments
(:mod:`repro.bench.registry.components`,
:mod:`repro.bench.registry.experiments`).
"""

from repro.bench.registry.core import (
    DATASETS,
    ENGINES,
    EXPERIMENTS,
    GATES,
    METRICS,
    WORKLOADS,
    ExperimentSpec,
    Registry,
    RegistryError,
)

# Built-in registrations (import for side effects).
from repro.bench.registry import components as _components  # noqa: F401
from repro.bench.registry import experiments as _experiments  # noqa: F401
from repro.bench.registry import gates as _gates  # noqa: F401
from repro.bench.registry import paper_gates as _paper_gates  # noqa: F401

__all__ = [
    "DATASETS",
    "ENGINES",
    "EXPERIMENTS",
    "GATES",
    "METRICS",
    "WORKLOADS",
    "ExperimentSpec",
    "Registry",
    "RegistryError",
]
