"""Small statistics shared by the drivers and the repeatability check."""

from __future__ import annotations

import pathlib
import re
import statistics
from dataclasses import dataclass, field


@dataclass
class Outcome:
    """What one run of one workload hands back to ``run.py``."""

    attempted: int
    failed: int
    metrics: dict[str, float]
    notes: list[str] = field(default_factory=list)


PER_MILLE = (500, 900, 990, 999)  # p50, p90, p99, p99.9, in exact arithmetic
TAIL = 99  # the tail percentile the end-to-end metrics are named after


def supported_percentile(samples: int) -> float:
    """The highest of p50/p90/p99/p99.9 with at least ten samples beyond it."""
    best = PER_MILLE[0]
    for per_mille in PER_MILLE:
        if samples * (1000 - per_mille) >= 10 * 1000:
            best = per_mille
    return best / 10


def tail_percentile(samples: int) -> float:
    """``TAIL``, or the highest percentile ``samples`` supports if that is
    lower (only smoke-scale runs have fewer than 1000 samples)."""
    return min(TAIL, supported_percentile(samples))


def quartile_spread(values: list[float]) -> float:
    """Distance between first and third quartile as a share of the median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def peak_rss_mb(pid: "int | str" = "self") -> float:
    """High-water resident set size of one process, from ``/proc``; 0 once
    the process is gone."""
    try:
        status = pathlib.Path(f"/proc/{pid}/status").read_text()
    except OSError:
        return 0.0
    match = re.search(r"VmHWM:\s+(\d+) kB", status)
    return int(match.group(1)) / 1024 if match else 0.0
