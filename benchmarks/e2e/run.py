#!/usr/bin/env python3
"""The repository's end-to-end benchmark.  See README.md beside this file.

    python3 benchmarks/e2e/run.py --workload W --seed N --seconds S --trace 0|1
        one run of one workload; the last line of stdout is one JSON object
        (end-to-end metrics with --trace 0, per-layer metrics with --trace 1)
    python3 benchmarks/e2e/run.py --seed N
        every workload, untraced then traced, each run in a fresh process;
        prints every metric by name with its unit
    python3 benchmarks/e2e/run.py --repeat 10
        repeatability check: N untraced runs per workload, each with another
        seed; fails if a spread exceeds the metric's bound
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import pathlib
import platform
import statistics
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
# This file runs as a script: make its package and the program importable.
sys.path[:0] = [str(ROOT / "src"), str(HERE.parent)]


def _metric_units(section: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in SPEC[section]}


ADDR_NO_RANDOMIZE = 0x0040000  # <sys/personality.h>


def _steady_process() -> None:
    """Remove the run-to-run differences a process is born with.

    Address-space randomisation: with it on, the allocator lays the same
    arrays out differently in every process, and the peak RSS of one seed
    varied by +-10 %; with it off it repeats to 0.1 MB.  So the run
    re-executes itself once with randomisation off (everything it starts
    inherits the flag).  Hash randomisation: set iteration order inside the
    program must not differ between runs.  CPU placement: see
    ``_pin_to_one_cpu``.  Where the kernel refuses any of this the run goes
    on without it.
    """
    _pin_to_one_cpu()
    try:
        libc = ctypes.CDLL(None)
        persona = libc.personality(0xFFFFFFFF)
    except (OSError, AttributeError):
        return
    if persona == -1 or persona & ADDR_NO_RANDOMIZE:
        return
    if libc.personality(persona | ADDR_NO_RANDOMIZE) == -1:
        return
    os.environ["PYTHONHASHSEED"] = "0"
    sys.stdout.flush()
    os.execv(sys.executable, [sys.executable, *sys.argv])


def _pin_to_one_cpu() -> None:
    """Keep this process and everything it starts on one CPU.

    On the 2-vCPU reference VM the scheduler's choice of which threads share
    a CPU made served throughput bimodal (1500 to 3000 req/s for the same code
    and seed): a request crosses four thread wake-ups, and a wake-up of an idle
    vCPU costs as much as the request.  One CPU for the clients, the server
    and its workers removes that choice.  The highest-numbered CPU is used
    because CPU 0 takes the VM's device interrupts.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def run_one(args: argparse.Namespace) -> int:
    """One workload in this process; prints the result object last."""
    if not (ROOT / "src" / "repro").is_dir():
        print(f"the program is missing: no {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    _steady_process()
    from e2e import inprocess, serving, workloads

    if args.workload not in workloads.NAMES:
        print(f"unknown workload {args.workload!r}; have {workloads.NAMES}", file=sys.stderr)
        return 2
    driver = inprocess if args.workload in workloads.IN_PROCESS else serving
    outcome = driver.run(args.workload, args.seed, args.seconds, args.scale, bool(args.trace))
    for note in outcome.notes:
        print(f"note: {note}", file=sys.stderr)

    units = _metric_units("per_layer" if args.trace else "end_to_end")
    undeclared = sorted(set(outcome.metrics) - set(units))
    if undeclared:
        raise SystemExit(f"metrics missing from BENCHMARK.json: {undeclared}")
    if not args.trace and set(units) - set(outcome.metrics):
        raise SystemExit(f"end-to-end metrics not measured: {set(units) - set(outcome.metrics)}")
    # A per-layer metric of a layer the workload never enters reads 0.
    metrics = {
        name: {"value": float(outcome.metrics.get(name, 0.0)), "unit": unit}
        for name, unit in units.items()
    }
    print(json.dumps({
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }))
    return 0


def _child(workload: str, seed: int, trace: int, args: argparse.Namespace) -> dict:
    command = [
        sys.executable, str(HERE / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(args.seconds),
        "--trace", str(trace), "--scale", str(args.scale),
    ]
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True, timeout=900)
    if done.returncode != 0:
        raise SystemExit(f"{' '.join(command)} exited with {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def run_all(args: argparse.Namespace) -> int:
    """Every workload, untraced then traced; prints name, value and unit."""
    failed = 0
    for workload in [w["name"] for w in SPEC["workloads"]]:
        for trace in (0, 1):
            result = _child(workload, args.seed, trace, args)
            failed += result["failed"]
            kind = "per-layer (traced run)" if trace else "end-to-end (untraced run)"
            print(f"\n== {workload}: {kind}; attempted {result['attempted']}, "
                  f"failed {result['failed']}, "
                  f"fail_ratio {result['failed'] / result['attempted']:.6f}")
            for name, metric in result["metrics"].items():
                print(f"{name:44s} {metric['value']:>16.6g} {metric['unit']}")
    return 1 if failed else 0


def host() -> dict[str, object]:
    import numpy

    model = ""
    for line in pathlib.Path("/proc/cpuinfo").read_text().splitlines():
        if line.startswith("model name"):
            model = line.split(":", 1)[1].strip()
            break
    return {
        "nproc": os.cpu_count(), "cpu": model,
        "python": platform.python_version(), "numpy": numpy.__version__,
    }


def repeat(args: argparse.Namespace) -> int:
    """N untraced runs per workload on seeds seed..seed+N-1: median, range,
    quartile spread and bound of every end-to-end metric; JSON report last."""
    from e2e.measure import quartile_spread

    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    report: dict[str, object] = {"host": host(), "runs": args.repeat, "workloads": {}}
    worst = 0
    for workload in [w["name"] for w in SPEC["workloads"]]:
        results = [_child(workload, args.seed + i, 0, args) for i in range(args.repeat)]
        rows = {}
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in results]
            median = statistics.median(values)
            spread = quartile_spread(values)
            rows[name] = {
                "median": median, "spread": spread, "bound": bound, "values": values,
            }
            # The set-up time may spread; its bound still holds between medians.
            over = spread > bound and name != "setup_s"
            worst += over
            print(f"{workload:20s} {name:14s} median {median:12.6g}  "
                  f"range {min(values):.6g}..{max(values):.6g}  "
                  f"spread {spread:6.2%}  bound {bound:.0%}{'  OVER' if over else ''}",
                  file=sys.stderr)
        failed = sum(r["failed"] for r in results)
        worst += failed
        report["workloads"][workload] = {"failed": failed, "metrics": rows}
    print(json.dumps(report, indent=1))
    return 1 if worst else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default=None)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=float(SPEC["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="shrink the tables (smoke tests only)")
    parser.add_argument("--repeat", type=int, default=0, metavar="N")
    args = parser.parse_args(argv)
    if args.repeat:
        return repeat(args)
    if args.workload is None:
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
