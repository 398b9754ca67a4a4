"""Decorator-based registries and the experiment specification.

A :class:`Registry` is a named map with decorator registration, duplicate
detection, and did-you-mean lookup errors.  The module-level instances
(``WORKLOADS``, ``DATASETS``, ``ENGINES``, ``METRICS``, ``GATES``,
``EXPERIMENTS``) are the single namespace every config, gate, and CI job
resolves against.
"""

from __future__ import annotations

import difflib
import importlib
import inspect
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator


class RegistryError(Exception):
    """Registration or lookup failed (duplicate name, unknown name)."""


class Registry:
    """A named registry of objects with decorator-based registration."""

    def __init__(self, kind: str) -> None:
        self.kind = kind
        self._items: dict[str, Any] = {}

    def register(self, name: str | None = None) -> Callable:
        """Decorator: ``@REGISTRY.register("name")`` (or use ``fn.__name__``)."""

        def decorate(obj):
            self.add(name or getattr(obj, "__name__", None), obj)
            return obj

        return decorate

    def add(self, name: str | None, obj: Any) -> Any:
        if not name or not isinstance(name, str):
            raise RegistryError(f"{self.kind}: registration needs a string name")
        if name in self._items:
            raise RegistryError(
                f"{self.kind}: {name!r} is already registered "
                f"({self._items[name]!r}); pick a distinct name"
            )
        self._items[name] = obj
        return obj

    def get(self, name: str) -> Any:
        try:
            return self._items[name]
        except KeyError:
            close = difflib.get_close_matches(name, self._items, n=3)
            hint = f" (did you mean {', '.join(close)}?)" if close else ""
            raise RegistryError(
                f"{self.kind}: unknown name {name!r}{hint}; "
                f"registered: {', '.join(sorted(self._items)) or '<none>'}"
            ) from None

    def names(self) -> list[str]:
        return sorted(self._items)

    def items(self) -> Iterator[tuple[str, Any]]:
        return iter(sorted(self._items.items()))

    def __contains__(self, name: str) -> bool:
        return name in self._items

    def __len__(self) -> int:
        return len(self._items)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Registry({self.kind!r}, {self.names()})"


#: Interval/query-stream generators (pattern name -> callable).
WORKLOADS = Registry("workload")
#: Synthetic table builders (name -> callable returning {attr: ndarray}).
DATASETS = Registry("dataset")
#: Engine factories (name -> callable(db) -> Engine).
ENGINES = Registry("engine")
#: Headline-metric extractors (experiment name -> callable(result) -> dict).
METRICS = Registry("metrics")
#: Gate checkers (name -> callable(current, baseline, options) -> [GateCheck]).
GATES = Registry("gate")
#: Experiment specifications (name -> ExperimentSpec).
EXPERIMENTS = Registry("experiment")


@dataclass(frozen=True)
class ExperimentSpec:
    """One runnable experiment: where its driver lives and how CI treats it.

    The driver contract is a module with ``run(scale=..., **params) -> dict``
    and ``describe(result) -> str``; the spec is the declarative layer the
    config runner, artifact store, gate command and ``python -m repro``
    resolve through.
    """

    name: str
    module: str
    description: str
    #: run() keyword arguments a config's ``[params]`` table may set.
    params: tuple[str, ...] = ()
    #: Named reference the checked-in baseline lives under in the store.
    baseline_ref: str | None = None
    #: GATES entry that judges this experiment's result payload.
    gate: str | None = None
    #: METRICS entry extracting headline numbers for trend reports.
    metrics: str | None = None
    #: Scale multiplier applied on top of the smoke scale for experiments
    #: whose floor cost is high; 0 excludes the experiment from smoke runs.
    smoke_factor: float = 1.0
    #: Extra run() kwargs pinned during smoke runs (keep them fast).
    smoke_params: dict = field(default_factory=dict)
    #: Test/override hook: call this instead of importing ``module``.
    runner: Callable[..., dict] | None = None

    def load(self):
        return importlib.import_module(self.module)

    def run(self, **kwargs) -> dict:
        fn = self.runner if self.runner is not None else self.load().run
        allowed = set(inspect.signature(fn).parameters)
        unknown = set(kwargs) - allowed
        if unknown:
            raise RegistryError(
                f"experiment {self.name!r}: run() does not accept "
                f"{sorted(unknown)}; allowed: {sorted(allowed)}"
            )
        return fn(**kwargs)

    def describe(self, result: dict) -> str:
        if self.runner is not None:
            return f"{self.name}: {result!r}"
        return self.load().describe(result)


def register_experiment(spec: ExperimentSpec) -> ExperimentSpec:
    EXPERIMENTS.add(spec.name, spec)
    return spec
