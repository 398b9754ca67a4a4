"""Shared benchmark machinery: system construction and sequence running."""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.core.partial.engine import PartialConfig
from repro.engine import ENGINE_FACTORIES
from repro.engine.base import Engine
from repro.engine.database import Database
from repro.engine.query import JoinQuery, Query, QueryResult
from repro.stats.counters import StatsRecorder
from repro.stats.memory_model import DEFAULT_MODEL, MemoryModel


def default_scale() -> float:
    """Benchmark scale factor; override with the ``REPRO_SCALE`` env var."""
    return float(os.environ.get("REPRO_SCALE", "1.0"))


def time_alternating(
    first: Callable[[], object],
    second: Callable[[], object],
    repeats: int = 7,
    warmup: int = 2,
    setup: tuple[Callable[[], object] | None, Callable[[], object] | None] = (
        None, None
    ),
) -> tuple[dict[str, float], dict[str, float]]:
    """Median-of-k wall-clock timing of two callables, repeats interleaved.

    The order alternates (first, second, second, first, ...), so a host
    that speeds up or slows down during the measurement moves both sides
    alike; comparing two blocks timed one after the other would credit the
    drift to whichever side ran in the faster stretch.  ``setup`` holds one
    optional callable per side that runs untimed before every call of that
    side (warmups included) — the kernel benchmarks use it to restore the
    input arrays so each repeat partitions identical data.

    Each side's summary holds the median plus interquartile range and the
    raw per-repeat samples (``samples_s``, in measurement order), so stored
    artifacts support significance checks downstream — a trend report can
    rank-test two sample sets instead of comparing two medians.
    """
    sides = (first, second)
    samples: tuple[list[float], list[float]] = ([], [])

    def call(side: int) -> float:
        if setup[side] is not None:
            setup[side]()
        start = time.perf_counter()
        sides[side]()
        return time.perf_counter() - start

    for _ in range(warmup):
        call(0)
        call(1)
    for i in range(repeats):
        for side in ((0, 1), (1, 0))[i % 2]:
            samples[side].append(call(side))
    return _timing(samples[0]), _timing(samples[1])


def _timing(samples: list[float]) -> dict[str, float]:
    ordered = sorted(samples)
    return {
        "median_s": float(np.median(ordered)),
        "min_s": float(ordered[0]),
        "max_s": float(ordered[-1]),
        "iqr_s": float(np.percentile(ordered, 75) - np.percentile(ordered, 25)),
        "repeats": float(len(samples)),
        "samples_s": [float(s) for s in samples],
    }


@dataclass
class SystemSetup:
    """A fresh database + engine for one system under test.

    Every system gets its own :class:`Database` so cracking structures never
    leak between systems, while the *data* is identical (same arrays).
    """

    system: str
    tables: dict[str, dict[str, np.ndarray]]
    full_map_budget: int | None = None
    chunk_budget: int | None = None
    partial_config: PartialConfig | None = None
    memory_model: MemoryModel = DEFAULT_MODEL

    db: Database = field(init=False)
    engine: Engine = field(init=False)

    def __post_init__(self) -> None:
        recorder = StatsRecorder(cache_elements=self.memory_model.cache_elements)
        self.db = Database(
            recorder=recorder,
            full_map_budget=self.full_map_budget,
            chunk_budget=self.chunk_budget,
            partial_config=self.partial_config,
        )
        for name, arrays in self.tables.items():
            self.db.create_table(name, arrays)
        self.engine = ENGINE_FACTORIES[self.system](self.db)


@dataclass
class QueryCost:
    """Per-query cost sample: wall-clock plus model-priced access tally."""

    seconds: float
    model_ms: float
    phase_seconds: dict[str, float]
    row_count: int

    @classmethod
    def from_result(cls, result: QueryResult, model: MemoryModel) -> "QueryCost":
        return cls(
            seconds=result.total_seconds,
            model_ms=model.cost_ms(result.stats),
            phase_seconds=dict(result.timer.totals),
            row_count=result.row_count,
        )


class SequenceRunner:
    """Runs a query sequence against one system, collecting per-query costs."""

    def __init__(self, setup: SystemSetup) -> None:
        self.setup = setup
        self.costs: list[QueryCost] = []
        self.storage_samples: list[float] = []

    def run(self, query: "Query | JoinQuery") -> QueryResult:
        engine = self.setup.engine
        if isinstance(query, JoinQuery):
            result = engine.run_join(query)
        else:
            result = engine.run(query)
        self.costs.append(QueryCost.from_result(result, self.setup.memory_model))
        self.storage_samples.append(self._storage_tuples())
        return result

    def run_all(self, queries: list) -> list[QueryCost]:
        for query in queries:
            self.run(query)
        return self.costs

    def _storage_tuples(self) -> float:
        db = self.setup.db
        tuples = float(db.full_map_storage.used_tuples)
        tuples += float(db.chunk_storage.used_tuples)
        return tuples

    # -- summaries -----------------------------------------------------------------

    @property
    def seconds(self) -> list[float]:
        return [c.seconds for c in self.costs]

    @property
    def model_ms(self) -> list[float]:
        return [c.model_ms for c in self.costs]

    def cumulative_seconds(self) -> float:
        return float(sum(c.seconds for c in self.costs))

    def cumulative_model_ms(self) -> float:
        return float(sum(c.model_ms for c in self.costs))
