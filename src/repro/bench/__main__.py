"""``python -m repro.bench`` — the registry-driven experiment pipeline.

Subcommands::

    list                         registered experiments, gates, components
    run CONFIG [CONFIG...]       run declarative configs (TOML/JSON)
    smoke [--scale S]            run every registered experiment at smoke scale
    gate --config ci/gates.toml  the one CI gate entry point
    report [--output trend.md]   markdown trend tables from the store

A config with ``[artifact] ref = "baseline/<name>"`` refreshes that
experiment's checked-in baseline.

See ``docs/bench.md`` for the config schema and artifact-store layout.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.bench.registry import EXPERIMENTS, GATES, RegistryError
from repro.bench.registry.artifacts import (
    DEFAULT_ROOT,
    ArtifactError,
    ArtifactStore,
)
from repro.bench.registry.config import ConfigError, load_config
from repro.bench.registry.gates import (
    GateConfigError,
    format_gate_results,
    load_gate_config,
    run_gates,
)
from repro.bench.registry.runner import run_config, run_smoke
from repro.bench.registry.trend import build_report


def cmd_list(args: argparse.Namespace) -> int:
    store = ArtifactStore(args.store)
    print("registered experiments (python -m repro.bench run <config>):")
    for name, spec in EXPERIMENTS.items():
        marks = []
        if spec.gate:
            marks.append(f"gate={spec.gate}")
        if spec.baseline_ref and store.get_ref(spec.baseline_ref):
            marks.append("baseline")
        suffix = f"  [{', '.join(marks)}]" if marks else ""
        print(f"  {name:<10} {spec.description}{suffix}")
    print("gates:", ", ".join(GATES.names()))
    refs = store.refs()
    if refs:
        print(f"store {store.root}: {len(refs)} refs, "
              f"{len(store.runs())} recorded runs")
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    store = ArtifactStore(args.store)
    for path in args.configs:
        config = load_config(path)
        outcomes = run_config(config, store, scale=args.scale,
                              quiet=args.quiet)
        for outcome in outcomes:
            print(f"stored {outcome.experiment} -> {outcome.record.artifact_id}"
                  f" ({outcome.ref})")
    return 0


def cmd_smoke(args: argparse.Namespace) -> int:
    store = ArtifactStore(args.store)
    outcomes = run_smoke(store, scale=args.scale, quiet=not args.verbose)
    print(f"smoke: {len(outcomes)} experiment runs stored under smoke/* refs")
    return 0


def cmd_gate(args: argparse.Namespace) -> int:
    store = ArtifactStore(args.store)
    entries = load_gate_config(args.config)
    only = None
    if args.only:
        only = {name.strip() for name in args.only.split(",") if name.strip()}
        known = {entry.name for entry in entries}
        unknown = only - known
        if unknown:
            print(f"gate: unknown gate(s) {sorted(unknown)}; "
                  f"configured: {sorted(known)}", file=sys.stderr)
            return 2
    results = run_gates(entries, store, only=only)
    print(format_gate_results(results))
    if args.output:
        payload = {
            "all_ok": all(r.ok for r in results),
            "gates": {r.gate: r.to_dict() for r in results},
        }
        Path(args.output).write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n")
        print(f"wrote {args.output}")
    return 0 if results and all(r.ok for r in results) else 1


def cmd_report(args: argparse.Namespace) -> int:
    store = ArtifactStore(args.store)
    experiments = None
    if args.experiments:
        experiments = [n.strip() for n in args.experiments.split(",") if n.strip()]
    report = build_report(store, experiments=experiments, limit=args.limit)
    if args.output:
        Path(args.output).write_text(report)
        print(f"wrote {args.output}")
    else:
        print(report)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.bench",
        description="Registry-driven experiment pipeline "
                    "(configs, artifact store, gates, trend reports)",
    )
    parser.add_argument("--store", default=DEFAULT_ROOT,
                        help=f"artifact store directory (default {DEFAULT_ROOT})")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="registered experiments and store state"
                   ).set_defaults(func=cmd_list)

    run = sub.add_parser("run", help="run declarative experiment configs")
    run.add_argument("configs", nargs="+", metavar="CONFIG",
                     help="TOML/JSON experiment config path(s)")
    run.add_argument("--scale", type=float, default=None,
                     help="override the config's scale (and $REPRO_SCALE)")
    run.add_argument("--quiet", action="store_true",
                     help="skip the per-run describe() tables")
    run.set_defaults(func=cmd_run)

    smoke = sub.add_parser(
        "smoke", help="run every registered experiment at smoke scale")
    smoke.add_argument("--scale", type=float, default=None,
                       help="base smoke scale (default: $REPRO_SCALE or 1.0)")
    smoke.add_argument("--verbose", action="store_true",
                       help="print each experiment's describe() output")
    smoke.set_defaults(func=cmd_smoke)

    gate = sub.add_parser("gate", help="run the configured CI gates")
    gate.add_argument("--config", required=True,
                      help="gates TOML (e.g. ci/gates.toml)")
    gate.add_argument("--only", default=None,
                      help="comma-separated subset of gate names to run")
    gate.add_argument("--output", default=None,
                      help="write structured gate results JSON here")
    gate.set_defaults(func=cmd_gate)

    report = sub.add_parser("report", help="build the markdown trend report")
    report.add_argument("--output", default=None,
                        help="write the markdown here (default: stdout)")
    report.add_argument("--experiments", default=None,
                        help="comma-separated experiment subset")
    report.add_argument("--limit", type=int, default=10,
                        help="history rows per experiment")
    report.set_defaults(func=cmd_report)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, GateConfigError, ArtifactError, RegistryError) as exc:
        print(f"repro.bench: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        return 0  # stdout piped into a pager/head that exited early


if __name__ == "__main__":
    sys.exit(main())
