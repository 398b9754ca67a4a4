"""Progressive cracking: bounded per-query reorganization budgets.

Plain cracking pays for each fresh bound with a full partition pass over the
enclosing piece — the first queries of a workload are dramatically more
expensive than the steady state.  Progressive cracking (the PMDD1R idea of
Halim et al., VLDB 2012) caps that spike: a query may spend at most a
*budget* of partitioning work; if the enclosing piece is larger, the piece is
left *partially* cracked and later queries resume the work.

The partial state of one bound is a :class:`PendingCrack`: within the
enclosing piece ``[lo, hi)`` the prefix ``[lo, left)`` is already known to be
below the bound, the suffix ``[right, hi)`` known to be not-below, and the
window ``[left, right)`` is still unclassified.  The bound enters the
:class:`~repro.cracking.index.CrackerIndex` only on completion, so every
existing piece invariant holds unchanged while work is in flight.

One :func:`progressive_step` narrows the window by a chosen amount ``k``
while touching at most ``2 * k`` elements per array — the property that makes
"worst query cost within 2x of the budget" hold *by construction*
(see the step kernel in :mod:`repro.cracking.kernels`).  Steps are pure
functions of ``(array state, bound, left, right, k)``, so they are logged to
the cracker tape as :class:`~repro.core.tape.ProgressiveCrackEntry` records
and replayed deterministically by sibling maps, exactly like eager cracks.

A completed progressive crack places the boundary at the same position as an
eager ``crack_two`` and produces the same value multisets on both sides, but
not the same element *order* (the eager kernel is stable, the step kernel
relocates displaced elements).  Sibling alignment is unaffected — all maps
replay the same step sequence — but a budgeted structure is order-equivalent,
not bit-equivalent, to its eager twin.  ``docs/stochastic.md`` discusses the
trade-off.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from repro.cracking.bounds import Bound, Interval
from repro.cracking.index import CrackerIndex
from repro.cracking.kernels import progressive_step_kernel
from repro.cracking.stochastic import account_partition
from repro.errors import CrackError, PlanError
from repro.stats.counters import StatsRecorder


@dataclass
class PendingCrack:
    """The in-flight partition state of one bound inside one piece.

    ``[lo, left)`` is below ``bound``, ``[right, hi)`` is not-below, and
    ``[left, right)`` is the still-unclassified window.  The bound is *not*
    registered in the cracker index until ``left == right``.
    """

    bound: Bound
    lo: int
    hi: int
    left: int
    right: int

    @property
    def done(self) -> bool:
        return self.left == self.right

    def clone(self) -> "PendingCrack":
        return replace(self)


#: Per-structure pending state: at most one in-flight bound per piece.
PendingMap = dict[Bound, PendingCrack]


@dataclass(frozen=True)
class ProgressiveBudget:
    """How much partitioning work one query may spend on one structure.

    Either an absolute element count or a fraction of the structure's rows;
    the per-query allowance is ``max(elements, fraction * n)`` of the parts
    given (at least 1, so every query makes progress).  A physical step over
    a window of ``k`` elements may move up to ``2k`` of them, so worst-case
    per-query writes are bounded by twice this allowance.
    """

    fraction: float | None = None
    elements: int | None = None

    def __post_init__(self) -> None:
        if self.fraction is None and self.elements is None:
            raise PlanError("a ProgressiveBudget needs a fraction or an element count")
        if self.fraction is not None and not (0 < self.fraction <= 1):
            raise PlanError(f"budget fraction {self.fraction} outside (0, 1]")
        if self.elements is not None and self.elements < 1:
            raise PlanError(f"budget element count {self.elements} must be >= 1")

    def per_query(self, n: int) -> int:
        allowance = 0
        if self.elements is not None:
            allowance = self.elements
        if self.fraction is not None:
            allowance = max(allowance, int(self.fraction * n))
        return max(1, allowance)

    def describe(self) -> str:
        parts = []
        if self.fraction is not None:
            parts.append(f"{self.fraction:g} of column")
        if self.elements is not None:
            parts.append(f"{self.elements} elements")
        return " | ".join(parts)


def parse_budget(spec: "ProgressiveBudget | str | float | int | None") -> ProgressiveBudget | None:
    """Normalize a budget spec: instance, ``None``, number, or CLI string.

    Numbers below 1 are fractions of the column, otherwise element counts —
    matching the ``--crack-budget`` CLI flag (``0.05`` or ``50000``).
    """
    if spec is None or isinstance(spec, ProgressiveBudget):
        return spec
    if isinstance(spec, str):
        text = spec.strip().lower()
        try:
            value: float = float(text)
        except ValueError:
            raise PlanError(
                f"cannot parse crack budget {spec!r}; use a fraction like 0.05 "
                "or an element count like 50000"
            ) from None
        spec = value
    if isinstance(spec, (int, float)):
        if spec <= 0:
            raise PlanError(f"crack budget {spec} must be positive")
        if spec < 1:
            return ProgressiveBudget(fraction=float(spec))
        return ProgressiveBudget(elements=int(spec))
    raise PlanError(f"cannot interpret {spec!r} as a crack budget")


class BudgetTracker:
    """Per-structure budget accounting: one allowance per query.

    Besides the per-query allowance the tracker keeps lifetime totals
    (``queries``, ``spent_total``, ``spent_peak``).  The serving layer reads
    them as *lock-hold* instrumentation: a cracker holds a structure's write
    lock for the duration of one budgeted operation, so the per-query spend
    is exactly the work done inside the critical section and the budget is
    the knob that caps write-lock hold time.
    """

    def __init__(self, budget: ProgressiveBudget | None) -> None:
        self.budget = budget
        self._remaining: float = math.inf
        self.spent_last_query = 0
        self.queries = 0
        self.spent_total = 0
        self.spent_peak = 0

    def begin_query(self, n: int) -> None:
        self._remaining = self.budget.per_query(n) if self.budget else math.inf
        self.spent_last_query = 0
        self.queries += 1

    def remaining(self) -> float:
        return self._remaining

    def consume(self, amount: int) -> None:
        self._remaining -= amount
        self.spent_last_query += amount
        self.spent_total += amount
        if self.spent_last_query > self.spent_peak:
            self.spent_peak = self.spent_last_query

    def hold_stats(self) -> dict[str, int]:
        """Lifetime critical-section work: what the serving layer exports."""
        return {
            "queries": self.queries,
            "spent_total": self.spent_total,
            "spent_peak": self.spent_peak,
        }


@dataclass
class CrackProgress:
    """The per-operation progressive context threaded through ``crack_into``.

    ``pending`` is the owning structure's persistent :data:`PendingMap`;
    ``tracker`` is its budget accounting (``None`` means unlimited — pendings
    encountered are then finished eagerly).  ``ops`` records, in order, what
    physically happened so the owner can log equivalent tape entries:
    ``("eager", bound, aux_cuts)`` for a full policy-assisted crack (with the
    auxiliary cut bounds it performed, in temporal order) and
    ``("step", bound, k, done)`` for one progressive step of window ``k``.
    """

    pending: PendingMap
    tracker: BudgetTracker | None = None
    ops: list[tuple] = field(default_factory=list)
    #: Position ranges whose membership the last ``crack_into`` left
    #: undecided (filled from :func:`resolve_area`).
    holes: list[tuple[int, int]] = field(default_factory=list)

    def remaining(self) -> float:
        return self.tracker.remaining() if self.tracker else math.inf

    def consume(self, amount: int) -> None:
        if self.tracker is not None:
            self.tracker.consume(amount)


def crack_progress(
    pending: PendingMap,
    tracker: BudgetTracker,
    budgeted: bool = True,
    rows: int | None = None,
) -> CrackProgress | None:
    """The crack context for one live operation on a structure.

    ``None`` (the exact legacy path, bit-identical tapes) when no budget
    applies and nothing is in flight.  Unbudgeted contexts still resume
    pendings — a piece holding one must finish it before it can move on.
    ``rows`` starts a new per-query allowance over that many rows; owners
    whose planner already did (one allowance per query, however many
    structures it touches) leave it out.
    """
    if budgeted and tracker.budget is not None:
        if rows is not None:
            tracker.begin_query(rows)
        return CrackProgress(pending, tracker)
    return CrackProgress(pending) if pending else None


def pending_in_piece(pending: PendingMap, lo: int, hi: int) -> PendingCrack | None:
    """The in-flight crack of piece ``[lo, hi)``, if any.

    A piece holding a pending crack is never cracked elsewhere until the
    pending completes (``crack_bound`` resumes it first), so the pending's
    recorded piece always matches the current enclosing piece exactly.
    """
    for p in pending.values():
        if p.lo == lo and p.hi == hi:
            return p
    return None


def progressive_step(
    head: np.ndarray,
    tails,
    p: PendingCrack,
    k: int,
    recorder: StatsRecorder | None = None,
) -> int:
    """Advance ``p`` by classifying a window of ``k`` elements.

    Returns the number of elements physically touched (``<= 2 * k`` per
    array).  Delegates the array work to
    :func:`~repro.cracking.kernels.progressive_step_kernel` and updates the
    pending's ``left`` / ``right`` markers.
    """
    k = min(int(k), p.right - p.left)
    if k <= 0:
        return 0
    left, right, touched = progressive_step_kernel(
        head, tails, p.bound, p.left, p.right, k
    )
    if not (p.lo <= left <= right <= p.hi):
        raise CrackError(
            f"progressive step left markers [{left}, {right}) outside piece "
            f"[{p.lo}, {p.hi})"
        )
    p.left = left
    p.right = right
    if recorder is not None:
        account_partition(recorder, touched, 1 + len(tails))
    return touched


def finish_pending(
    index: CrackerIndex,
    head: np.ndarray,
    tails,
    pending: PendingMap,
    bound: Bound,
    recorder: StatsRecorder | None = None,
) -> int:
    """Run one pending crack to completion and register its boundary.

    The live-side twin of replaying a ``ProgressiveCrackEntry(bound, None)``;
    returns the final boundary position.
    """
    p = pending[bound]
    progressive_step(head, tails, p, p.right - p.left, recorder)
    index.insert(bound, p.left)
    del pending[bound]
    if recorder is not None:
        recorder.event("cracks")
    return p.left


def replay_progressive(
    index: CrackerIndex,
    head: np.ndarray,
    tails,
    pending: PendingMap,
    bound: Bound,
    step: int | None,
    recorder: StatsRecorder | None = None,
) -> None:
    """Replay one :class:`~repro.core.tape.ProgressiveCrackEntry`.

    Creates the pending on first sight (from the current enclosing piece,
    which deterministic replay guarantees matches the primary site's), then
    applies one step of window ``step`` — or runs to completion when ``step``
    is ``None`` (a force-finish entry).  A bound that is already a boundary
    makes the entry a no-op.
    """
    if index.position_of(bound) is not None:
        return
    p = pending.get(bound)
    if p is None:
        lo, hi = index.enclosing(bound, len(head))
        p = PendingCrack(bound, lo, hi, lo, hi)
        pending[bound] = p
    k = p.right - p.left if step is None else step
    progressive_step(head, tails, p, k, recorder)
    if p.done:
        index.insert(bound, p.left)
        del pending[bound]
        if recorder is not None:
            recorder.event("cracks")


def resolve_area(
    index: CrackerIndex,
    n: int,
    interval: Interval,
    pending: PendingMap | None,
) -> tuple[int, int, list[tuple[int, int]]]:
    """The qualifying window of ``interval`` plus its uncertainty holes.

    With every bound a boundary this is exactly the classic contiguous area
    and ``holes`` is empty.  A bound still in flight (or skipped because the
    budget ran out) contributes the largest *certain* window plus a hole
    ``[h_lo, h_hi)`` of positions whose membership must be decided by
    filtering head values.  Holes never overlap the certain window.
    """
    holes: list[tuple[int, int]] = []
    pending = pending or {}

    def _resolve(bound: Bound) -> tuple[int, int]:
        """(below_end, above_start): everything before ``below_end`` is below
        the bound, everything from ``above_start`` on is not-below."""
        pos = index.position_of(bound)
        if pos is not None:
            return pos, pos
        p = pending.get(bound)
        if p is not None:
            holes.append((p.left, p.right))
            return p.left, p.right
        lo, hi = index.enclosing(bound, n)
        holes.append((lo, hi))
        return lo, hi

    lower = interval.lower_bound()
    upper = interval.upper_bound()
    w_lo = 0 if lower is None else _resolve(lower)[1]
    w_hi = n if upper is None else _resolve(upper)[0]
    if w_lo > w_hi:
        w_lo = w_hi
    return w_lo, w_hi, merge_holes(holes)


def merge_holes(holes: list[tuple[int, int]]) -> list[tuple[int, int]]:
    """Sort, drop empties, and coalesce overlapping hole windows."""
    out: list[tuple[int, int]] = []
    for lo, hi in sorted(h for h in holes if h[0] < h[1]):
        if out and lo <= out[-1][1]:
            out[-1] = (out[-1][0], max(out[-1][1], hi))
        else:
            out.append((lo, hi))
    return out
