"""Seeded input generation for the five e2e workloads (numpy only).

The program under test never sees the seed: it receives the generated
tables (dicts of int64 arrays), query specs (turned into ``Query`` objects
or SQL strings by the drivers) and update batches.  All values are uniform
int64 in ``[1, DOMAIN]``; every predicate is an open range ``lo < attr < hi``
of a fixed width, the ranges spread evenly over the domain (``_ranges``).

Sizes are fixed: they were set so that one 14 s timed window holds at least
1000 query samples on the 2-core reference host (see README.md).  ``scale``
shrinks only the row counts, for smoke tests.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

DOMAIN = 10**7
TABLE = "R"

# One id per workload keeps the random streams of different workloads apart.
_STREAM = {
    "tr_sideways": 1,
    "partial_budget": 2,
    "mixed_updates": 3,
    "serve_zipf_narrow": 4,
    "serve_unique_wide": 5,
}
NAMES = tuple(_STREAM)
IN_PROCESS = ("tr_sideways", "partial_budget", "mixed_updates")
SERVED = ("serve_zipf_narrow", "serve_unique_wide")

_ROWS = {
    "tr_sideways": 1_000_000,
    "partial_budget": 1_000_000,
    "mixed_updates": 500_000,
    "serve_zipf_narrow": 1_000_000,
    "serve_unique_wide": 1_000_000,
}
_COLUMNS = {
    "tr_sideways": ("A",) + tuple(f"B{i}" for i in range(1, 9)),
    "partial_budget": ("A",)
    + tuple(f"B{i}" for i in range(1, 6))
    + tuple(f"C{i}" for i in range(1, 6)),
    "mixed_updates": ("A", "B", "C"),
    "serve_zipf_narrow": ("A", "B", "C", "D"),
    "serve_unique_wide": ("A", "B", "C", "D"),
}

#: Queries per repetition of an in-process workload (one repetition = one
#: fresh ``Database`` answering this many queries).
QUERIES_PER_REPETITION = {
    "tr_sideways": 1000,
    "partial_budget": 500,
    "mixed_updates": 400,
}
UPDATE_EVERY = 10  # mixed_updates: one insert+delete op per this many queries
UPDATE_ROWS = 10
PARTIAL_BATCH = 25  # partial_budget: queries per type before the type changes
PARTIAL_TYPES = 5
PARTIAL_BUDGET_FACTOR = 2  # chunk budget = this many tuples per base row

ZIPF_TEMPLATES = 2000
ZIPF_EXPONENT = 1.2
ZIPF_REQUESTS = 80_000  # three times what two clients send in warm-up + a 4.7 s lap
UNIQUE_REQUESTS = 8_000
CLIENTS = 2  # closed-loop TCP connections, = nproc of the reference host
#: Requests sent before the clock starts.  The first misses crack million-row
#: pieces and cost 10x a later one; with them inside the window the tail
#: latency follows the seed, not the code.
WARMUP_REQUESTS = {"serve_zipf_narrow": 6_000, "serve_unique_wide": 400}


@dataclass(frozen=True)
class QuerySpec:
    """``select <projections>, <aggregates> from R where lo < attr < hi and ...``"""

    predicates: tuple[tuple[str, int, int], ...]
    projections: tuple[str, ...] = ()
    aggregates: tuple[tuple[str, str], ...] = ()

    def sql(self) -> str:
        items = list(self.projections) + [f"{f}({a})" for f, a in self.aggregates]
        where = " and ".join(
            f"{attr} > {lo} and {attr} < {hi}" for attr, lo, hi in self.predicates
        )
        return f"select {', '.join(items)} from {TABLE} where {where}"


@dataclass(frozen=True)
class UpdateSpec:
    """One update op: insert ``rows`` (they get ``keys``), delete ``victims``."""

    rows: dict
    keys: np.ndarray
    victims: np.ndarray


def rows_of(name: str, scale: float = 1.0) -> int:
    return max(2_000, int(_ROWS[name] * scale))


def _rng(seed: int, name: str, *more: int) -> np.random.Generator:
    return np.random.default_rng([seed, _STREAM[name], *more])


def make_table(seed: int, name: str, scale: float = 1.0) -> dict[str, np.ndarray]:
    rng = _rng(seed, name)
    rows = rows_of(name, scale)
    return {c: rng.integers(1, DOMAIN + 1, rows) for c in _COLUMNS[name]}


_GOLDEN = (5**0.5 - 1) / 2


def _ranges(rng: np.random.Generator, count: int, selectivity: float):
    """``count`` open ranges of one width, spread evenly over the domain.

    The lower ends are a golden-ratio sequence, frac(u + q * 0.618...), with
    the seed choosing u: equidistributed like independent draws, but the gaps
    between the first q ends are nearly the same for every u, so every seed
    cracks pieces of the same sizes in the same order.  With independent
    draws the cost of the ten slowest queries of a sequence, and so its 99th
    percentile, followed the seed: 7 to 12 ms over ten seeds on ``tr_sideways``.
    """
    width = max(2, int(DOMAIN * selectivity))
    ends = DOMAIN - width + 1
    lo = ((rng.random() + np.arange(count) * _GOLDEN) % 1.0 * ends).astype(np.int64)
    return lo, lo + width + 1  # open range holding `width` domain values


def repetition_ops(seed: int, name: str, scale: float = 1.0) -> list:
    """The op sequence every repetition of an in-process workload runs."""
    rng = _rng(seed, name, 1)
    count = QUERIES_PER_REPETITION[name]
    lo, hi = _ranges(rng, count, 0.01)
    if name == "tr_sideways":
        return [
            QuerySpec(
                (("A", int(lo[q]), int(hi[q])),),
                aggregates=tuple(("max", f"B{i}") for i in range(1, q % 8 + 2)),
            )
            for q in range(count)
        ]
    if name == "partial_budget":
        blo, bhi = _ranges(rng, count, 0.5)
        ops = []
        for q in range(count):
            i = (q // PARTIAL_BATCH) % PARTIAL_TYPES + 1
            ops.append(QuerySpec(
                (("A", int(lo[q]), int(hi[q])), (f"B{i}", int(blo[q]), int(bhi[q]))),
                projections=(f"C{i}",),
            ))
        return ops
    assert name == "mixed_updates"
    rows = rows_of(name, scale)
    # Victims come from a key set kept here, so no tombstone scan is needed:
    # keys are row positions, and inserted rows get the next positions.  Each
    # op deletes as many rows as it inserts, so new keys take the victims' slots.
    live = np.arange(rows, dtype=np.int64)
    next_key = rows
    ops = []
    for q in range(count):
        if q % UPDATE_EVERY == UPDATE_EVERY - 1:
            new_rows = {
                c: rng.integers(1, DOMAIN + 1, UPDATE_ROWS) for c in _COLUMNS[name]
            }
            picks = rng.choice(rows, UPDATE_ROWS, replace=False)
            keys = np.arange(next_key, next_key + UPDATE_ROWS, dtype=np.int64)
            ops.append(UpdateSpec(new_rows, keys, live[picks].copy()))
            live[picks] = keys
            next_key += UPDATE_ROWS
        ops.append(QuerySpec((("A", int(lo[q]), int(hi[q])),), projections=("B", "C")))
    return ops


def served_requests(seed: int, name: str) -> tuple[list[QuerySpec], np.ndarray]:
    """Distinct request templates and the order the clients send them in.

    Client ``c`` of ``CLIENTS`` sends ``order[c::CLIENTS]``.  Half the
    templates have one predicate (on the partitioned attribute A), half add
    a second, 50 %-selective predicate on D.
    """
    rng = _rng(seed, name, 1)
    if name == "serve_zipf_narrow":
        count, selectivity = ZIPF_TEMPLATES, 0.0002
        projections, aggregates = ("B",), (("max", "C"),)
    else:
        count, selectivity = UNIQUE_REQUESTS, 0.01
        projections, aggregates = ("B", "C"), (("max", "C"),)
    lo, hi = _ranges(rng, count, selectivity)
    dlo, dhi = _ranges(rng, count, 0.5)
    templates = []
    for i in range(count):
        predicates = (("A", int(lo[i]), int(hi[i])),)
        if i % 2:
            predicates += (("D", int(dlo[i]), int(dhi[i])),)
        templates.append(QuerySpec(predicates, projections, aggregates))
    if name == "serve_zipf_narrow":
        weights = 1.0 / np.arange(1, count + 1) ** ZIPF_EXPONENT
        order = rng.choice(count, size=ZIPF_REQUESTS, p=weights / weights.sum())
    else:
        order = np.arange(count)
    return templates, order


def content_sample(seed: int, name: str, part: int, count: int) -> np.ndarray:
    """Which of ``count`` ops get their full row content checked (about 5 %)."""
    return _rng(seed, name, 0, part).random(count) < 0.05


def fingerprint(seed: int, name: str, scale: float = 1.0) -> str:
    """sha1 over everything generated for (seed, workload): same seed, same bytes."""
    h = hashlib.sha1()
    for column, values in make_table(seed, name, scale).items():
        h.update(column.encode())
        h.update(values.tobytes())
    if name in IN_PROCESS:
        for op in repetition_ops(seed, name, scale):
            if isinstance(op, UpdateSpec):
                for values in (*op.rows.values(), op.keys, op.victims):
                    h.update(values.tobytes())
            else:
                h.update(op.sql().encode())
    else:
        templates, order = served_requests(seed, name)
        for template in templates:
            h.update(template.sql().encode())
        h.update(order.tobytes())
    return h.hexdigest()
