"""Cracker maps ``M_AB``.

A map stores values of the head attribute A and the tail attribute B of the
same relational tuples, position-aligned.  It is cracked on head predicates;
the tail rides along, so after cracking the qualifying B values form a
contiguous area — tuple reconstruction becomes a slice.

A map replays its set's tape to stay aligned with sibling maps
(:meth:`CrackerMap.replay_entry`); the set drives alignment because delete
entries need the set-level ``M_Akey`` map to locate victims.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.sanitizer import checkpoint_crack, register_structure
from repro.cracking.bounds import Bound, Interval
from repro.cracking.crack import crack_into
from repro.cracking.index import CrackerIndex
from repro.cracking.kernels import sort_piece
from repro.cracking.progressive import CrackProgress, PendingMap, replay_progressive
from repro.cracking.ripple import delete_positions, merge_insertions
from repro.cracking.stochastic import CrackPolicy
from repro.core.tape import (
    CrackEntry,
    DeleteEntry,
    InsertEntry,
    ProgressiveCrackEntry,
    SortEntry,
    TapeEntry,
)
from repro.errors import AlignmentError
from repro.stats.counters import StatsRecorder, global_recorder


class CrackerMap:
    """One two-column cracker map.

    Parameters
    ----------
    head_attr / tail_attr:
        Attribute names (the tail may equal the reserved name ``"@key"`` for
        the set's ``M_Akey`` map).
    head / tail:
        The initial, position-aligned value arrays (the set's base snapshot).
    fetch_tail:
        Callback ``keys -> tail values`` used when replaying insert entries;
        reads the map's own tail attribute from its base column.
    """

    def __init__(
        self,
        head_attr: str,
        tail_attr: str,
        head: np.ndarray,
        tail: np.ndarray,
        fetch_tail,
        recorder: StatsRecorder | None = None,
    ) -> None:
        if len(head) != len(tail):
            raise AlignmentError("map head and tail must be equally long")
        self.head_attr = head_attr
        self.tail_attr = tail_attr
        self.head = head
        self.tail = tail
        self.index = CrackerIndex()
        self.cursor = 0
        self.accesses = 0
        self.pending_cracks: PendingMap = {}
        self._fetch_tail = fetch_tail
        self._recorder = recorder or global_recorder()
        self._recorder.event("map_creations")
        self._recorder.sequential(2 * len(head))
        self._recorder.write(2 * len(head))
        register_structure(self, "map", f"M_{head_attr},{tail_attr}")

    def __len__(self) -> int:
        return len(self.head)

    @property
    def storage_tuples(self) -> int:
        """Storage footprint in (head, tail) pairs."""
        return len(self.head)

    # -- cracking -------------------------------------------------------------

    def crack(
        self,
        interval: Interval,
        policy: CrackPolicy | None = None,
        rng: np.random.Generator | None = None,
        cut_sink: list[Bound] | None = None,
        progress: CrackProgress | None = None,
    ) -> tuple[int, int]:
        """Crack on a head predicate; returns the qualifying area ``[lo, hi)``.

        A stochastic ``policy`` may add auxiliary cuts (reported through
        ``cut_sink`` so the owning set can log them to its tape).  A
        ``progress`` context makes the crack budget-aware: the returned area
        is then the certain window and ``progress.holes`` the undecided
        ranges.  Replay (:meth:`replay_entry`) never passes either.
        """
        self.accesses += 1
        area = crack_into(
            self.index, self.head, [self.tail], interval, self._recorder,
            policy=policy, rng=rng, cut_sink=cut_sink, progress=progress,
        )
        checkpoint_crack(self, "map")
        return area

    def area_of(self, interval: Interval) -> tuple[int, int] | None:
        """The qualifying area if ``interval``'s bounds already exist, else None."""
        lower = interval.lower_bound()
        upper = interval.upper_bound()
        lo = 0 if lower is None else self.index.position_of(lower)
        hi = len(self.head) if upper is None else self.index.position_of(upper)
        if lo is None or hi is None:
            return None
        return lo, hi

    # -- tape replay ------------------------------------------------------------

    def replay_entry(self, entry: TapeEntry) -> None:
        """Apply one tape entry and advance the cursor.

        Delete entries must already carry cached positions (the map set
        guarantees this by locating victims through ``M_Akey`` first).
        """
        self._recorder.event("alignment_replays")
        if isinstance(entry, CrackEntry):
            crack_into(
                self.index, self.head, [self.tail], entry.interval, self._recorder,
                progress=(
                    CrackProgress(self.pending_cracks) if self.pending_cracks else None
                ),
            )
        elif isinstance(entry, ProgressiveCrackEntry):
            replay_progressive(
                self.index, self.head, [self.tail], self.pending_cracks,
                entry.bound, entry.step, self._recorder,
            )
        elif isinstance(entry, InsertEntry):
            if self.pending_cracks:
                raise AlignmentError(
                    "insert entry replayed with in-flight progressive cracks"
                )
            tail_values = self._fetch_tail(entry.keys)
            self.head, tails = merge_insertions(
                self.index, self.head, [self.tail], entry.values, [tail_values],
                self._recorder,
            )
            self.tail = tails[0]
        elif isinstance(entry, DeleteEntry):
            if entry.positions is None:
                raise AlignmentError(
                    "delete entry replayed before its positions were located"
                )
            self.head, tails = delete_positions(
                self.index, self.head, [self.tail], entry.positions, self._recorder
            )
            self.tail = tails[0]
        elif isinstance(entry, SortEntry):
            lo = 0 if entry.lo_bound is None else self.index.position_of(entry.lo_bound)
            hi = (
                len(self.head)
                if entry.hi_bound is None
                else self.index.position_of(entry.hi_bound)
            )
            if lo is None or hi is None:
                raise AlignmentError("sort entry references unknown piece bounds")
            sort_piece(self.head, [self.tail], lo, hi)
            self._recorder.sequential(2 * (hi - lo))
            self._recorder.write(2 * (hi - lo))
        else:  # pragma: no cover - exhaustive match
            raise AlignmentError(f"unknown tape entry {entry!r}")
        self.cursor += 1

    # -- invariants ---------------------------------------------------------------

    def check_invariants(self, deep: bool = False) -> None:
        """Run the shared invariant catalog; raises ``InvariantError``."""
        from repro.analysis.invariants import check_or_raise

        check_or_raise(self, "map", deep=deep)
