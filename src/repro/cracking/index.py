"""The cracker index: crack boundaries in flat sorted arrays.

Each boundary (:class:`~repro.cracking.bounds.Bound`) maps to the array
position where it currently sits.  Boundaries are kept sorted by
``(value, side)`` in a Python key list — point lookups are one ``bisect`` on
it — with a parallel int64 position vector, so the position maintenance the
Ripple merge needs (:meth:`CrackerIndex.apply_shifts`,
:meth:`CrackerIndex.apply_order_shifts`) is one vectorised pass instead of a
walk over tree nodes, and :mod:`repro.cracking.ripple` reads piece starts and
ends straight from the vector.

The paper uses AVL trees for cracker indices; see DESIGN.md for why this
reproduction does not.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from repro.analysis.sanitizer import register_structure
from repro.cracking.bounds import Bound, Side
from repro.errors import CrackError, InvariantError, InvariantViolation


@dataclass(frozen=True)
class Piece:
    """One contiguous piece of a cracked array.

    ``lo_bound``/``hi_bound`` are ``None`` at the array's extremes.  All
    elements in ``[lo_pos, hi_pos)`` satisfy the right side of ``lo_bound``
    and the left side of ``hi_bound``.
    """

    lo_bound: Bound | None
    hi_bound: Bound | None
    lo_pos: int
    hi_pos: int

    @property
    def size(self) -> int:
        return self.hi_pos - self.lo_pos


def _cumulative_shift(shifts: list[tuple[int, int]], at: np.ndarray) -> np.ndarray:
    """Per element of ``at``, the summed delta of every shift keyed ``<=`` it."""
    shifts = sorted(shifts)
    points = np.array([p for p, _ in shifts], dtype=np.int64)
    cumulative = np.zeros(len(shifts) + 1, dtype=np.int64)
    np.cumsum([d for _, d in shifts], out=cumulative[1:])
    return cumulative[np.searchsorted(points, at, side="right")]


class CrackerIndex:
    """Crack boundaries sorted by ``(value, side)``, with their positions."""

    def __init__(self) -> None:
        self._keys: list[tuple[float, Side]] = []
        self._bounds: list[Bound] = []
        self._pos = np.empty(0, dtype=np.int64)
        register_structure(self, "index")

    def __len__(self) -> int:
        return len(self._keys)

    @property
    def piece_count(self) -> int:
        """Number of pieces the indexed array is cracked into."""
        return len(self._keys) + 1

    # -- mutation --------------------------------------------------------------

    def insert(self, bound: Bound, pos: int) -> None:
        """Register ``bound`` at ``pos``; re-inserting an existing bound must
        agree on the position."""
        key = (bound.value, bound.side)
        keys = self._keys
        i = bisect_left(keys, key)
        if i < len(keys) and keys[i] == key:
            if self._pos[i] != pos:
                raise CrackError(
                    f"bound {bound} re-inserted at {pos}, already at {self._pos[i]}"
                )
            return
        keys.insert(i, key)
        self._bounds.insert(i, bound)
        old = self._pos
        grown = np.empty(len(old) + 1, dtype=np.int64)
        grown[:i] = old[:i]
        grown[i] = pos
        grown[i + 1:] = old[i:]
        self._pos = grown

    # -- queries ----------------------------------------------------------------

    def position_of(self, bound: Bound) -> int | None:
        """Exact position of ``bound`` or ``None`` if it was never cracked."""
        key = (bound.value, bound.side)
        keys = self._keys
        i = bisect_left(keys, key)
        if i < len(keys) and keys[i] == key:
            return self._pos.item(i)
        return None

    def predecessor(self, bound: Bound) -> tuple[Bound, int] | None:
        """The greatest boundary strictly less than ``bound``."""
        i = bisect_left(self._keys, (bound.value, bound.side)) - 1
        return None if i < 0 else (self._bounds[i], self._pos.item(i))

    def successor(self, bound: Bound) -> tuple[Bound, int] | None:
        """The least boundary strictly greater than ``bound``."""
        i = bisect_right(self._keys, (bound.value, bound.side))
        return None if i == len(self._keys) else (self._bounds[i], self._pos.item(i))

    def enclosing(self, bound: Bound, n: int) -> tuple[int, int]:
        """Positions ``[lo, hi)`` of the piece that ``bound`` falls into.

        When ``bound`` is already indexed the piece is degenerate:
        ``lo == hi == position_of(bound)``.
        """
        key = (bound.value, bound.side)
        keys = self._keys
        i = bisect_left(keys, key)
        if i == len(keys):
            return (self._pos.item(i - 1) if i else 0), n
        hi = self._pos.item(i)
        if keys[i] == key:
            return hi, hi
        return (self._pos.item(i - 1) if i else 0), hi

    def inorder(self) -> Iterator[tuple[Bound, int]]:
        """All boundaries in ascending ``(value, side)`` order."""
        return zip(self._bounds, self._pos.tolist())

    def pieces(self, n: int) -> Iterator[Piece]:
        """The pieces of an array of length ``n`` under this index."""
        bounds = self._bounds
        positions = self._pos.tolist()
        return map(
            Piece, [None, *bounds], [*bounds, None], [0, *positions], [*positions, n]
        )

    def bounds(self) -> list[Bound]:
        return list(self._bounds)

    def rank_of(self, bound: Bound) -> int:
        """Number of boundaries strictly less than ``bound`` — its in-order
        rank when it is indexed (the key :meth:`apply_order_shifts` takes)."""
        return bisect_left(self._keys, (bound.value, bound.side))

    def piece_edges(self, n: int) -> np.ndarray:
        """``[0, *boundary positions, n]``: piece ``j`` of an array of length
        ``n`` spans ``[edges[j], edges[j + 1])``."""
        return np.concatenate(([0], self._pos, [n]))

    def piece_ids(self, values: np.ndarray) -> np.ndarray:
        """The piece (0-based, in boundary order) each value belongs to.

        A value ``v`` lies left of boundary ``(bv, LT)`` iff ``v < bv`` and
        left of ``(bv, LE)`` iff ``v <= bv``; its piece is the number of
        boundaries it does *not* lie left of — the keys up to ``(v, LT)``.
        """
        keys, lt = self._keys, Side.LT
        return np.array(
            [bisect_right(keys, (v, lt)) for v in np.asarray(values).tolist()],
            dtype=np.int64,
        )

    def clone(self) -> "CrackerIndex":
        """An independent copy (used when recovering dropped chunk heads)."""
        out = CrackerIndex()
        out._keys = self._keys.copy()
        out._bounds = self._bounds.copy()
        out._pos = self._pos.copy()
        return out

    # -- maintenance under updates ----------------------------------------------

    def apply_shifts(self, shifts: list[tuple[int, int]]) -> None:
        """Shift boundary positions after insertions grew some pieces.

        ``shifts`` is a list of ``(position, delta)``: every boundary whose
        current position is ``>= position`` moves by ``delta``.  Deltas may be
        negative (deletions).  All shifts are applied against the *pre-shift*
        positions, so callers pass the state before the merge.
        """
        if shifts and len(self._pos):
            self._pos += _cumulative_shift(shifts, self._pos)

    def apply_order_shifts(self, shifts: list[tuple[int, int]]) -> None:
        """Shift boundaries keyed by in-order *rank* instead of position.

        ``shifts`` is a list of ``(rank, delta)``: every boundary whose
        in-order index is ``>= rank`` moves by ``delta``.  Insertion merges
        need this form: rows appended at the end of piece ``j`` displace
        exactly the boundaries ranked ``>= j`` — a position-keyed shift
        cannot say that when empty pieces make several boundaries share one
        position (the lower boundary of the target piece must stay put).
        """
        if shifts and len(self._pos):
            self._pos += _cumulative_shift(shifts, np.arange(len(self._pos)))

    # -- sanity -------------------------------------------------------------------

    def validate(self, n: int | None = None, deep: bool = False) -> None:
        """Check key order and monotone, in-range positions.

        Raises :class:`~repro.errors.InvariantError` carrying structured
        violations (the unified ``check_invariants`` shape; ``deep`` is
        accepted for signature uniformity — the index has no deep checks).
        """
        violations: list[InvariantViolation] = []
        keys = self._keys
        if keys != [(b.value, b.side) for b in self._bounds] or len(keys) != len(self._pos):
            violations.append(InvariantViolation(
                "cracker_index", "index-sorted",
                f"keys ({len(keys)}), boundaries ({len(self._bounds)}) and "
                f"positions ({len(self._pos)}) are not parallel",
            ))
        for before, after in zip(keys, keys[1:]):
            if not before < after:
                violations.append(InvariantViolation(
                    "cracker_index", "index-sorted",
                    f"boundary keys out of order: {before} before {after}",
                    (("before", before), ("after", after)),
                ))
        prev = -1
        for bound, pos in self.inorder():
            if pos < prev:
                violations.append(InvariantViolation(
                    "cracker_index", "index-monotone",
                    f"non-monotone position at {bound}: {pos} < {prev}",
                    (("bound", str(bound)), ("pos", pos), ("prev", prev)),
                ))
            if n is not None and not (0 <= pos <= n):
                violations.append(InvariantViolation(
                    "cracker_index", "index-position-range",
                    f"position {pos} of {bound} outside [0, {n}]",
                    (("bound", str(bound)), ("pos", pos), ("n", n)),
                ))
            prev = pos
        if violations:
            raise InvariantError.from_violations(violations)
