"""Shared physical operators: gathers, grouping, ordering.

These are the MonetDB-style building blocks engines and the TPC-H plans
compose.  Each operator reports its access pattern to the active recorder so
modeled costs track what the engines actually did.
"""

from __future__ import annotations

import numpy as np

from repro.stats.counters import StatsRecorder, global_recorder


def scan_select(
    values: np.ndarray, mask: np.ndarray, recorder: StatsRecorder | None = None
) -> np.ndarray:
    """Positions of set bits after a full sequential scan."""
    recorder = recorder or global_recorder()
    recorder.sequential(len(values))
    return np.flatnonzero(mask)


def ordered_gather(
    values: np.ndarray, positions: np.ndarray, recorder: StatsRecorder | None = None
) -> np.ndarray:
    """Positional lookups with positions in ascending order (cache friendly)."""
    recorder = recorder or global_recorder()
    recorder.ordered(len(positions), len(values))
    return values[positions]


def random_gather(
    values: np.ndarray,
    positions: np.ndarray,
    recorder: StatsRecorder | None = None,
    region: int | None = None,
) -> np.ndarray:
    """Positional lookups in arbitrary order.

    ``region`` narrows the touched area (e.g. lookups into a small cracked
    slice are cache-resident even though unordered).
    """
    recorder = recorder or global_recorder()
    recorder.random(len(positions), region if region is not None else len(values))
    return values[positions]


def group_by(
    keys: list[np.ndarray], recorder: StatsRecorder | None = None
) -> tuple[np.ndarray, np.ndarray, list[np.ndarray]]:
    """Group rows by one or more key columns.

    Returns ``(group_ids, order, group_keys)`` where ``order`` permutes rows
    so groups are contiguous, ``group_ids`` are dense ids per *reordered*
    row, and ``group_keys`` holds each group's key values (one array per key
    column).  Group-by destroys tuple order, like the paper says.
    """
    recorder = recorder or global_recorder()
    if not keys:
        raise ValueError("group_by needs at least one key column")
    n = len(keys[0])
    recorder.sequential(n * len(keys))
    order = np.lexsort(tuple(reversed(keys)))
    sorted_keys = [k[order] for k in keys]
    if n == 0:
        return np.empty(0, dtype=np.int64), order, [k[:0] for k in keys]
    change = np.zeros(n, dtype=bool)
    for k in sorted_keys:
        change[1:] |= k[1:] != k[:-1]
    group_ids = np.cumsum(change).astype(np.int64)
    firsts = np.concatenate([[0], np.flatnonzero(change)]).astype(np.int64)
    group_keys = [k[firsts] for k in sorted_keys]
    recorder.write(n)
    return group_ids, order, group_keys


def segmented_aggregate(
    group_ids: np.ndarray,
    values: np.ndarray,
    func: str,
    recorder: StatsRecorder | None = None,
) -> np.ndarray:
    """Aggregate ``values`` (already grouped contiguously) per group id."""
    recorder = recorder or global_recorder()
    recorder.sequential(len(values))
    n_groups = int(group_ids[-1]) + 1 if len(group_ids) else 0
    if func == "count":
        return np.bincount(group_ids, minlength=n_groups).astype(np.float64)
    if func == "sum":
        return np.bincount(group_ids, weights=values, minlength=n_groups)
    if func == "avg":
        sums = np.bincount(group_ids, weights=values, minlength=n_groups)
        counts = np.bincount(group_ids, minlength=n_groups)
        return sums / np.maximum(counts, 1)
    if func in ("max", "min"):
        op = np.maximum if func == "max" else np.minimum
        out = np.full(n_groups, -np.inf if func == "max" else np.inf)
        op.at(out, group_ids, values)
        return out
    raise ValueError(f"unknown aggregate {func!r}")


def grouped(
    columns: dict[str, np.ndarray],
    keys: tuple[str, ...],
    aggregates: tuple[tuple[str, str], ...],
    recorder: StatsRecorder | None = None,
) -> dict[str, np.ndarray]:
    """Group-by + per-group aggregation over positionally aligned columns.

    Returns one row per group: the ``keys`` columns, then one
    ``func(attr)`` column per aggregate.
    """
    group_ids, order, group_keys = group_by([columns[a] for a in keys], recorder)
    out = {attr: group_keys[i] for i, attr in enumerate(keys)}
    for func, attr in aggregates:
        values = columns[attr][order].astype("float64")
        out[f"{func}({attr})"] = segmented_aggregate(group_ids, values, func, recorder)
    return out


def sort_rows(
    keys: list[np.ndarray],
    descending: "list[bool] | None" = None,
    recorder: StatsRecorder | None = None,
) -> np.ndarray:
    """Row order for an ``order by`` over the given key columns."""
    recorder = recorder or global_recorder()
    if not keys:
        raise ValueError("sort_rows needs at least one key column")
    recorder.sequential(len(keys[0]) * len(keys))
    adjusted = []
    flags = descending or [False] * len(keys)
    for k, desc in zip(keys, flags):
        adjusted.append(-k if desc else k)
    return np.lexsort(tuple(reversed(adjusted)))
