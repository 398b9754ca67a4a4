"""Built-in experiment registrations.

Each spec wraps an existing driver module — the drivers keep their
``run()``/``describe()`` CLIs (thin compat shims for ``python -m repro``),
while configs, smoke runs, artifacts, and gates all resolve through here.
``compat_json`` names the legacy flat ``BENCH_*.json`` the driver writes so
pre-registry consumers stay bit-compatible.
"""

from __future__ import annotations

from repro.bench.registry.core import ExperimentSpec, register_experiment

register_experiment(ExperimentSpec(
    name="kernels",
    module="repro.bench.micro",
    description="Crack-kernel microbenchmarks: each kernel vs its copy ceiling",
    params=("rows", "seed"),
    compat_json=None,  # the perf gate names its output per config
    baseline_ref="baseline/kernels",
    gate="kernels",
    metrics="kernels",
))

register_experiment(ExperimentSpec(
    name="exp14",
    module="repro.bench.exp14_robustness",
    description="Stochastic cracking robustness (policies x adversarial patterns)",
    params=("rows", "queries", "selectivity", "seed", "crack_policy"),
    compat_json="BENCH_exp14_robustness.json",
    baseline_ref="baseline/exp14",
    gate="exp14",
    metrics="exp14",
))

register_experiment(ExperimentSpec(
    name="exp15",
    module="repro.bench.exp15_faults",
    description="FaultSan overhead (journal cost, recovery cost, rebuild cost)",
    params=("rows", "queries", "selectivity", "seed"),
    compat_json="BENCH_exp15_faults.json",
    baseline_ref="baseline/exp15",
    metrics="exp15",
))

register_experiment(ExperimentSpec(
    name="exp16",
    module="repro.bench.exp16_progressive",
    description="Progressive cracking (per-query budgets x adaptive policy)",
    params=("rows", "queries", "selectivity", "seed", "crack_budget"),
    compat_json="BENCH_exp16_progressive.json",
    baseline_ref="baseline/exp16",
    gate="exp16",
    metrics="exp16",
))

register_experiment(ExperimentSpec(
    name="exp17",
    module="repro.bench.exp17_concurrency",
    description="Concurrent serving throughput + bit-identity vs serial",
    params=("rows", "queries", "templates", "seed", "partitions"),
    compat_json="BENCH_exp17_concurrency.json",
    baseline_ref="baseline/exp17",
    gate="exp17",
    metrics="exp17",
))

register_experiment(ExperimentSpec(
    name="exp18",
    module="repro.bench.exp18_multicore",
    description="Process-parallel shard workers vs threads vs serial",
    params=("rows", "queries", "templates", "seed", "partitions"),
    compat_json="BENCH_exp18_multicore.json",
    baseline_ref="baseline/exp18",
    gate="exp18",
    metrics="exp18",
))

register_experiment(ExperimentSpec(
    name="exp19",
    module="repro.bench.exp19_overload",
    description="Overload: admission control, breakers, degraded serving",
    params=("rows", "queries", "templates", "clients", "requests_per_client",
            "seed"),
    compat_json="BENCH_exp19_overload.json",
    baseline_ref="baseline/exp19",
    gate="exp19",
    metrics="exp19",
))
