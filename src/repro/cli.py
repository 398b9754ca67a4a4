"""Command-line interface: run paper experiments and sanity checks.

Usage::

    python -m repro list                      # every registered experiment
    python -m repro run exp01 [--scale 2.0]   # run one, print its tables
    python -m repro run ablations             # the five ablation studies
    python -m repro run all --scale 0.5
    python -m repro verify                    # TPC-H cross-system agreement
"""

from __future__ import annotations

import argparse
import os
import sys
import time


def _run_experiment(
    name: str, scale: float | None, crack_policy: str | None = None,
    crack_budget: str | None = None,
) -> None:
    from repro.bench.registry import EXPERIMENTS

    spec = EXPERIMENTS.get(name)
    kwargs: dict = {"scale": scale}
    for flag, value in (("crack_policy", crack_policy),
                        ("crack_budget", crack_budget)):
        if value is None:
            continue
        if flag in spec.params:
            kwargs[flag] = value
        else:
            print(f"note: {name} ignores --{flag.replace('_', '-')}",
                  file=sys.stderr)
    start = time.perf_counter()
    result = spec.run(**kwargs)
    elapsed = time.perf_counter() - start
    print(f"== {name} ({elapsed:.1f}s) ==")
    print(spec.describe(result))
    print()


def cmd_list(_args: argparse.Namespace) -> int:
    from repro.bench.registry import EXPERIMENTS

    print("experiments (python -m repro run <name>):")
    for name, spec in EXPERIMENTS.items():
        print(f"  {name:<10} {spec.description}")
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    from repro.bench.registry import EXPERIMENTS

    target = args.experiment
    if target != "all" and target not in EXPERIMENTS:
        print(f"unknown experiment {target!r}; try `python -m repro list`",
              file=sys.stderr)
        return 2
    for name in EXPERIMENTS.names() if target == "all" else [target]:
        _run_experiment(name, args.scale, args.crack_policy, args.crack_budget)
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    from repro.workloads.tpch.datagen import generate
    from repro.workloads.tpch.runner import verify_modes_agree

    data = generate(scale_factor=0.005 * (args.scale or 1.0), seed=17)
    modes = ["monetdb", "presorted", "selection_cracking", "sideways",
             "partial_sideways"]
    verify_modes_agree(data, modes, variations=args.variations)
    print(
        f"OK: {len(modes)} systems agree on all 22 TPC-H queries "
        f"({args.variations} parameter variations each)"
    )
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    import numpy as np

    from repro.engine.database import Database
    from repro.server.serve import run_server

    if args.snapshot:
        from repro.storage.persist import load_database

        db = load_database(args.snapshot)
        source = f"snapshot {args.snapshot}"
    else:
        rng = np.random.default_rng(args.seed)
        domain = 10 * args.rows
        db = Database()
        db.create_table("R", {
            attr: rng.integers(0, domain, args.rows).astype(np.int64)
            for attr in ("A", "B", "C", "D")
        })
        source = f"synthetic R ({args.rows:,} rows x 4 int64 attrs, seed {args.seed})"

    partition_attrs = []
    for spec in args.partition_attr or ():
        table, dot, attr = spec.partition(".")
        if not dot or not table or not attr:
            print(f"--partition-attr wants TABLE.ATTR, got {spec!r}",
                  file=sys.stderr)
            return 2
        partition_attrs.append((table, attr))

    def ready(host: str, port: int) -> None:
        print(f"serving {source}", flush=True)
        backend = (
            f"{args.processes} shard worker processes"
            if args.processes
            else f"{args.partitions} partitions"
        )
        print(
            f"listening on {host}:{port} "
            f"({args.workers} workers, {backend})",
            flush=True,
        )

    run_server(
        db, host=args.host, port=args.port, workers=args.workers,
        partitions=args.partitions, partition_attrs=partition_attrs,
        ready_callback=ready,
        processes=args.processes, cache_bytes=args.cache_bytes,
        max_queue=args.max_queue, max_inflight=args.max_inflight,
        shed_policy=args.shed_policy,
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Self-organizing Tuple Reconstruction "
                    "in Column-stores' (SIGMOD 2009)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list runnable experiments").set_defaults(
        func=cmd_list
    )

    run = sub.add_parser("run", help="run one experiment (or 'all')")
    run.add_argument("experiment",
                     help="a name from `python -m repro list`, or all")
    run.add_argument("--scale", type=float, default=None,
                     help="scale factor for rows/thresholds (default 1.0)")
    run.add_argument("--crack-policy", default=None,
                     help="crack policy for experiments that support one "
                          "(query_driven, ddc, ddr, dd1c, dd1r, mdd1r, or "
                          "auto for the workload-adaptive selector)")
    run.add_argument("--crack-budget", default=None,
                     help="progressive per-query crack budget for experiments "
                          "that support one: a fraction of the column "
                          "(e.g. 0.05) or an element count (e.g. 50000)")
    _add_sanitize_flag(run)
    _add_faults_flag(run)
    _add_racesan_flag(run)
    run.set_defaults(func=cmd_run)

    verify = sub.add_parser(
        "verify", help="check all systems agree on TPC-H results"
    )
    verify.add_argument("--scale", type=float, default=1.0)
    verify.add_argument("--variations", type=int, default=2)
    _add_sanitize_flag(verify)
    _add_faults_flag(verify)
    _add_racesan_flag(verify)
    verify.set_defaults(func=cmd_verify)

    serve = sub.add_parser(
        "serve", help="serve concurrent queries over TCP (line-delimited JSON)"
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=7077,
                       help="TCP port (0 picks a free one)")
    serve.add_argument("--workers", type=int, default=4,
                       help="query worker threads")
    serve.add_argument("--partitions", type=int, default=0,
                       help="shard count for partitioned attributes "
                            "(0 disables the partition path)")
    serve.add_argument("--processes", type=int, default=0,
                       help="shard worker processes per partitioned column "
                            "(0 = in-process thread shards)")
    serve.add_argument("--cache-bytes", type=int, default=None,
                       help="result-cache LRU budget in bytes "
                            "(default 64 MiB; 0 disables caching)")
    serve.add_argument("--max-queue", type=int, default=None,
                       help="bound on queued (not yet executing) requests; "
                            "overflow is shed per --shed-policy")
    serve.add_argument("--max-inflight", type=int, default=None,
                       help="bound on queued + executing requests")
    serve.add_argument("--shed-policy", default="reject-newest",
                       choices=("reject-newest", "reject-oldest",
                                "deadline-aware"),
                       help="which request a full admission queue drops")
    serve.add_argument("--partition-attr", action="append", metavar="TABLE.ATTR",
                       help="range-partition this attribute into --partitions "
                            "independently-cracked shards (repeatable)")
    serve.add_argument("--snapshot", default=None,
                       help="serve a persisted database image instead of "
                            "synthetic data")
    serve.add_argument("--rows", type=int, default=1_000_000,
                       help="rows of the synthetic table (no --snapshot)")
    serve.add_argument("--seed", type=int, default=42)
    _add_sanitize_flag(serve)
    _add_faults_flag(serve)
    _add_racesan_flag(serve)
    serve.set_defaults(func=cmd_serve)
    return parser


def _add_sanitize_flag(parser: argparse.ArgumentParser) -> None:
    from repro.analysis.sanitizer import LEVELS

    parser.add_argument(
        "--sanitize", choices=LEVELS, default=None, metavar="LEVEL",
        help="run under the CrackSan invariant sanitizer "
             f"({', '.join(LEVELS)}); sets $REPRO_SANITIZE so every Database "
             "the experiment creates is watched",
    )


def _add_racesan_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--racesan", nargs="?", const="on", choices=("on", "strict"),
        default=None, metavar="MODE",
        help="run under the RaceSan lockset race detector (on|strict, "
             "default on); sets $REPRO_RACESAN so every Database the "
             "experiment creates is instrumented",
    )


def _add_faults_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--faults", default=None, metavar="PLAN",
        help="run under a FaultSan fault-injection plan, e.g. "
             "'mapset.align@3=error' or 'arena.alloc=oom,chunkmap.fetch=corrupt'; "
             "sets $REPRO_FAULTS so every Database the experiment creates "
             "arms the plan",
    )


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "sanitize", None) is not None:
        os.environ["REPRO_SANITIZE"] = args.sanitize
    if getattr(args, "faults", None) is not None:
        from repro.faults.plan import FaultPlan

        FaultPlan.parse(args.faults)  # fail fast on a malformed plan
        os.environ["REPRO_FAULTS"] = args.faults
    if getattr(args, "racesan", None) is not None:
        os.environ["REPRO_RACESAN"] = args.racesan
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
