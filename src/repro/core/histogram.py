"""Cracker indices as self-organizing histograms.

The piece boundaries of a cracker index record exactly how many tuples fall
in each learned value range, so result sizes of new predicates can be
estimated without touching data: exact when the predicate matches existing
boundaries, otherwise bounded by whole-piece counts and tightened by linear
interpolation inside the boundary pieces (Section 3.3 of the paper).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cracking.bounds import Bound, Interval
from repro.cracking.index import CrackerIndex


@dataclass(frozen=True)
class Estimate:
    """A result-size estimate with its hard bounds.

    ``low``/``high`` are guaranteed bounds from whole pieces; ``value`` is
    the interpolated point estimate, always within ``[low, high]``.
    """

    value: float
    low: int
    high: int
    exact: bool


def _interpolate(piece_lo: int, piece_hi: int, lo_val: float, hi_val: float,
                 cut: float) -> float:
    """Estimated position of value ``cut`` inside a piece assumed uniform on
    ``[lo_val, hi_val]``."""
    size = piece_hi - piece_lo
    if size <= 0 or hi_val <= lo_val:
        return float(piece_lo)
    frac = (cut - lo_val) / (hi_val - lo_val)
    frac = min(1.0, max(0.0, frac))
    return piece_lo + frac * size


def _position_estimate(
    index: CrackerIndex, n: int, bound: Bound, domain_lo: float, domain_hi: float
) -> tuple[float, int, int, bool]:
    """Estimated position of ``bound``: (point, floor, ceiling, exact)."""
    exact = index.position_of(bound)
    if exact is not None:
        return float(exact), exact, exact, True
    lo_pos, hi_pos = index.enclosing(bound, n)
    pred = index.predecessor(bound)
    succ = index.successor(bound)
    lo_val = domain_lo if pred is None else pred[0].value
    hi_val = domain_hi if succ is None else succ[0].value
    point = _interpolate(lo_pos, hi_pos, lo_val, hi_val, bound.value)
    return point, lo_pos, hi_pos, False


def estimate_result_size(
    index: CrackerIndex,
    n: int,
    interval: Interval,
    domain_lo: float,
    domain_hi: float,
) -> Estimate:
    """Estimate how many of the ``n`` tuples qualify ``interval``.

    ``domain_lo``/``domain_hi`` are (approximate) attribute extremes used for
    interpolation in unexplored pieces.
    """
    lower = interval.lower_bound()
    upper = interval.upper_bound()

    if lower is None:
        lo_point, lo_floor, lo_ceil, lo_exact = 0.0, 0, 0, True
    else:
        lo_point, lo_floor, lo_ceil, lo_exact = _position_estimate(
            index, n, lower, domain_lo, domain_hi
        )
    if upper is None:
        hi_point, hi_floor, hi_ceil, hi_exact = float(n), n, n, True
    else:
        hi_point, hi_floor, hi_ceil, hi_exact = _position_estimate(
            index, n, upper, domain_lo, domain_hi
        )

    # Upper bound: widest possible area; lower bound: narrowest.
    high = max(0, hi_ceil - lo_floor)
    low = max(0, hi_floor - lo_ceil)
    value = min(float(high), max(float(low), hi_point - lo_point))
    return Estimate(value=value, low=low, high=high, exact=lo_exact and hi_exact)
