"""Built-in dataset, workload, engine, and metric registrations.

Datasets reproduce — RNG call for RNG call — the inline array builders the
pre-registry drivers used, so a registry-run experiment is bit-identical
to the bespoke invocation it replaced.
"""

from __future__ import annotations

import numpy as np

from repro.bench.registry.core import DATASETS, ENGINES, METRICS, WORKLOADS
from repro.engine import ENGINE_FACTORIES

# -- engines -------------------------------------------------------------------
# One namespace for every engine factory: the engine table, which names the
# paper's systems and the reference row stores.

for _name, _factory in ENGINE_FACTORIES.items():
    ENGINES.add(_name, _factory)


def make_engine(name: str, db):
    """Instantiate a registered engine over ``db`` (raises on unknown name)."""
    return ENGINES.get(name)(db)


# -- datasets ------------------------------------------------------------------


@DATASETS.register("uniform_table")
def uniform_table(
    rows: int,
    domain: int,
    seed: int,
    attrs: tuple[str, ...] = ("A", "B"),
    low: int = 1,
    high: int | None = None,
) -> dict[str, np.ndarray]:
    """Uniform int64 columns drawn attribute-by-attribute from one seeded RNG.

    ``low=1, high=domain+1`` matches exp14/15/16's builders; ``low=0,
    high=domain`` matches the serving experiments (exp17/18/19).
    """
    rng = np.random.default_rng(seed)
    high = domain + 1 if high is None else high
    return {
        attr: rng.integers(low, high, size=rows).astype(np.int64)
        for attr in attrs
    }


# -- workloads -----------------------------------------------------------------


@WORKLOADS.register("adversarial_intervals")
def adversarial_intervals_workload(
    pattern: str, domain: int, queries: int, selectivity: float, seed: int
):
    from repro.workloads.synthetic import adversarial_intervals

    return adversarial_intervals(pattern, domain, queries, selectivity, seed=seed)


@WORKLOADS.register("zipf_templates")
def zipf_templates_workload(templates: int, queries: int, domain: int, seed: int):
    """The serving workload: Zipf-popular query templates (exp17/18/19)."""
    from repro.bench.exp17_concurrency import build_templates, build_workload

    template_list = build_templates(templates, domain, seed)
    return template_list, build_workload(template_list, queries, seed)


# -- metric extractors ---------------------------------------------------------
# One flat {name: number} per experiment: the columns of the trend report.


def _flag(value) -> int:
    return int(bool(value))


@METRICS.register("kernels")
def kernels_metrics(result: dict) -> dict[str, float]:
    out = {f"{c['case']}_ratio": round(c["ratio"], 3)
           for c in result.get("cases", ())}
    out["all_identical"] = _flag(result.get("all_identical"))
    return out


@METRICS.register("exp14")
def exp14_metrics(result: dict) -> dict[str, float]:
    headline = result.get("headline") or {}
    return {
        "seq_cost_ratio": round(headline.get("cost_ratio", 0.0), 2),
        "engines_match_scan": _flag(result.get("engines_match_scan")),
    }


@METRICS.register("exp15")
def exp15_metrics(result: dict) -> dict[str, float]:
    return {
        "journal_overhead_x": round(result.get("journal_overhead_x", 0.0), 3),
        "disarmed_ms_per_query": round(
            result.get("disarmed_ms_per_query", 0.0), 4),
    }


@METRICS.register("exp16")
def exp16_metrics(result: dict) -> dict[str, float]:
    s = result.get("summary", {})
    return {
        "pmdd1r_worst_drag": round(s.get("pmdd1r_vs_mdd1r_worst_drag", 0.0), 3),
        "auto_vs_worst_static": round(s.get("auto_vs_worst_static_margin", 0.0), 3),
        "within_2x_budget": _flag(s.get("progressive_within_2x_budget")),
        "all_match_scan": _flag(result.get("all_match_scan")),
    }


@METRICS.register("exp17")
def exp17_metrics(result: dict) -> dict[str, float]:
    s = result.get("summary", {})
    return {
        "speedup_at_4_workers": round(s.get("speedup_at_4_workers", 0.0), 2),
        "bit_identical": _flag(s.get("all_digests_match_serial")),
    }


@METRICS.register("exp18")
def exp18_metrics(result: dict) -> dict[str, float]:
    s = result.get("summary", {})
    return {
        "speedup_at_4_processes": round(s.get("speedup_at_4_processes", 0.0), 2),
        "threads_vs_processes": round(s.get("threads_vs_processes", 0.0), 2),
        "bit_identical": _flag(s.get("all_digests_match_serial")),
    }


@METRICS.register("exp19")
def exp19_metrics(result: dict) -> dict[str, float]:
    s = result.get("summary", {})
    return {
        "overload_p99_admitted_ms": round(
            (s.get("overload_p99_admitted") or 0.0) * 1e3, 2),
        "shed": float(result.get("overload_clean", {}).get("shed", 0)),
        "all_ok": _flag(s.get("all_ok")),
    }
