"""Cracker columns: selection cracking over one attribute.

The first time an attribute is selected on, a copy of its base column is
taken (values in the head, tuple keys in the tail).  Every subsequent range
selection physically reorganizes the copy so the qualifying tuples become a
contiguous area, registering the new piece boundaries in the cracker
index.  Results are *keys* in cracked (not insertion) order — the root cause
of the expensive scattered tuple reconstruction that sideways cracking fixes.

Pending updates are merged on demand, restricted to the value range the
current query touches (Ripple).
"""

from __future__ import annotations

import numpy as np

from repro.analysis.sanitizer import checkpoint_crack, register_structure
from repro.cracking.bounds import Interval
from repro.cracking.crack import crack_into
from repro.cracking.index import CrackerIndex
from repro.cracking.pending import PendingUpdates
from repro.cracking.progressive import (
    BudgetTracker,
    PendingMap,
    ProgressiveBudget,
    crack_progress,
    finish_pending,
    parse_budget,
)
from repro.cracking.ripple import delete_positions, locate_deletions, merge_insertions
from repro.cracking.stochastic import CrackPolicy, policy_rng
from repro.faults.guard import atomic
from repro.stats.counters import StatsRecorder, global_recorder
from repro.storage.bat import BAT


class CrackerColumn:
    """The cracked copy of one base column plus its index and pending buffers.

    ``policy`` selects the crack policy (query-driven when ``None``); ``rng``
    is the column's own seeded generator for stochastic pivots, so runs are
    reproducible per structure.
    """

    def __init__(
        self,
        base: BAT,
        recorder: StatsRecorder | None = None,
        policy: CrackPolicy | None = None,
        rng: np.random.Generator | None = None,
        label: str | None = None,
        budget: "ProgressiveBudget | str | float | None" = None,
    ) -> None:
        self._recorder = recorder or global_recorder()
        self.head: np.ndarray = base.values.copy()
        self.keys: np.ndarray = base.materialized_keys().copy()
        self.index = CrackerIndex()
        self.pending = PendingUpdates(n_tails=1)
        self.policy = policy
        self._rng = rng if rng is not None else policy_rng(0, "column")
        self.stochastic_cuts = 0
        self.pending_cracks: PendingMap = {}
        self.set_budget(budget)
        self.label = label
        # The base BAT, kept for the sanitizer's deep permutation check
        # (refreshed by the Database facade when appends replace the BAT).
        self._base = base
        # Creating the cracker column costs a full sequential copy.
        self._recorder.sequential(2 * len(self.head))
        self._recorder.write(2 * len(self.head))
        register_structure(self, "column", label)

    def __len__(self) -> int:
        return len(self.head)

    # -- progressive budget -------------------------------------------------------

    def set_budget(self, budget: "ProgressiveBudget | str | float | None") -> None:
        """Install the per-query reorganization budget (``None`` = eager)."""
        self.budget = parse_budget(budget)
        self._tracker = BudgetTracker(self.budget)

    # -- querying -----------------------------------------------------------------

    def probe(self, interval: Interval) -> np.ndarray | None:
        """Answer ``interval`` without reorganizing, or ``None`` if it can't.

        The serving layer's shared-read fast path: when both interval bounds
        are already registered piece boundaries and no pending update falls
        inside the range, the answer is a pure read of the cracked area —
        safe for many threads to run concurrently under a shared (read)
        lock.  Anything that would require mutation (an uncracked bound, a
        pending insertion/deletion, an in-flight progressive crack for a
        bound of this interval) returns ``None``; the caller then retries
        through :meth:`select` under an exclusive lock.
        """
        if self.pending.has_pending(interval):
            return None
        lower = interval.lower_bound()
        upper = interval.upper_bound()
        lo = 0 if lower is None else self.index.position_of(lower)
        hi = len(self.head) if upper is None else self.index.position_of(upper)
        if lo is None or hi is None:
            return None
        if lo > hi:
            lo = hi
        self._recorder.sequential(hi - lo)
        return self.keys[lo:hi].copy()

    def select(self, interval: Interval) -> np.ndarray:
        """Keys of tuples qualifying ``interval`` (in cracked order).

        Merges relevant pending updates, cracks, and returns a copy of the
        qualifying tail area.  Under a progressive budget the area may carry
        uncertainty holes; their keys are qualified by value here, so the
        result is always exact.
        """
        with atomic(self, "column"):
            self.apply_pending(interval)
            lo, hi, holes = self._crack(interval, budgeted=True)
        self._recorder.sequential(hi - lo)
        if not holes:
            return self.keys[lo:hi].copy()
        parts = [self.keys[lo:hi]]
        for h_lo, h_hi in holes:
            self._recorder.sequential(h_hi - h_lo)
            mask = interval.mask(self.head[h_lo:h_hi])
            parts.append(self.keys[h_lo:h_hi][mask])
        return np.concatenate(parts)

    def select_area(self, interval: Interval) -> tuple[int, int]:
        """Crack for ``interval`` and return the qualifying area ``[lo, hi)``.

        The contiguous-area contract cannot represent holes, so this path
        runs any in-flight cracks for the interval's bounds to completion
        regardless of the budget.
        """
        with atomic(self, "column"):
            self.apply_pending(interval)
            lo, hi, _ = self._crack(interval, budgeted=False)
            return lo, hi

    def _crack(
        self, interval: Interval, budgeted: bool
    ) -> tuple[int, int, list[tuple[int, int]]]:
        cuts: list = []
        progress = crack_progress(
            self.pending_cracks, self._tracker, budgeted, len(self.head)
        )
        lo, hi = crack_into(
            self.index, self.head, [self.keys], interval, self._recorder,
            policy=self.policy, rng=self._rng, cut_sink=cuts, progress=progress,
        )
        self.stochastic_cuts += len(cuts)
        checkpoint_crack(self, "column")
        return lo, hi, (progress.holes if progress is not None else [])

    def count(self, interval: Interval) -> int:
        with atomic(self, "column"):
            self.apply_pending(interval)
            lo, hi, holes = self._crack(interval, budgeted=True)
        total = hi - lo
        for h_lo, h_hi in holes:
            self._recorder.sequential(h_hi - h_lo)
            total += int(interval.mask(self.head[h_lo:h_hi]).sum())
        return total

    # -- updates --------------------------------------------------------------------

    def add_insertions(self, values: np.ndarray, keys: np.ndarray) -> None:
        self.pending.add_insertions(np.asarray(values), [np.asarray(keys, dtype=np.int64)])

    def add_deletions(self, values: np.ndarray, keys: np.ndarray) -> None:
        self.pending.add_deletions(values, keys)

    def apply_pending(self, interval: Interval | None = None) -> None:
        """Merge pending updates whose values fall inside ``interval``."""
        if not self.pending.has_pending(interval):
            return
        with atomic(self, "column"):
            # Ripple merges shift piece positions, which would invalidate the
            # left/right markers of in-flight cracks: finish them first.
            self.finish_pending_cracks()
            ins_head, ins_tails = self.pending.take_insertions(interval)
            if len(ins_head):
                self.head, tails = merge_insertions(
                    self.index, self.head, [self.keys], ins_head, ins_tails,
                    self._recorder,
                )
                self.keys = tails[0]
            del_values, del_keys = self.pending.take_deletions(interval)
            if len(del_values):
                positions = locate_deletions(
                    self.index, self.head, self.keys, del_values, del_keys,
                    self._recorder,
                )
                self.head, tails = delete_positions(
                    self.index, self.head, [self.keys], positions, self._recorder
                )
                self.keys = tails[0]

    def finish_pending_cracks(self) -> None:
        """Run every in-flight crack to completion (deterministic order)."""
        for bound in sorted(self.pending_cracks):
            finish_pending(
                self.index, self.head, [self.keys], self.pending_cracks,
                bound, self._recorder,
            )

    # -- invariants (used by tests and CrackSan) ---------------------------------------

    def check_invariants(self, deep: bool = False) -> None:
        """Run the shared invariant catalog; raises ``InvariantError``."""
        from repro.analysis.invariants import check_or_raise

        check_or_raise(self, "column", deep=deep, label=self.label)
