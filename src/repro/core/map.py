"""Cracked pairs and cracker maps ``M_AB``.

A :class:`CrackedPair` stores values of a head attribute A and a tail
attribute B of the same relational tuples, position-aligned.  It is cracked
on head predicates; the tail rides along, so after cracking the qualifying B
values form a contiguous area — tuple reconstruction becomes a slice.  A
:class:`CrackerMap` is the pair over a whole map-set snapshot; a partial-map
:class:`~repro.core.partial.chunk.Chunk` is the pair over one chunk-map area.

A pair replays its owner's tape to stay aligned with its siblings
(:meth:`CrackedPair.replay_entry`); the owning set drives alignment because
delete entries need the set-level ``M_Akey`` map to locate victims.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.analysis.sanitizer import checkpoint_crack, register_structure
from repro.cracking.bounds import Bound, Interval
from repro.cracking.crack import crack_into
from repro.cracking.index import CrackerIndex
from repro.cracking.progressive import CrackProgress, PendingMap
from repro.cracking.stochastic import CrackPolicy
from repro.core.replay import apply_entry
from repro.core.tape import TapeEntry
from repro.errors import AlignmentError
from repro.stats.counters import StatsRecorder, global_recorder
from repro.storage.relation import Relation

#: Reserved tail name of a set's ``M_Akey`` map: the tail holds tuple keys.
KEY_TAIL = "@key"


def tail_fetcher(
    relation: Relation, tail_attr: str, recorder: StatsRecorder
) -> Callable[[np.ndarray], np.ndarray]:
    """The ``keys -> tail values`` callback of a pair over ``relation``."""
    if tail_attr == KEY_TAIL:
        return lambda keys: np.asarray(keys, dtype=np.int64).copy()

    def fetch(keys: np.ndarray) -> np.ndarray:
        # Resolve the column at call time: appends replace the BAT object.
        column = relation.column(tail_attr)
        recorder.random(len(keys), len(column))
        return column.values[np.asarray(keys, dtype=np.int64)]

    return fetch


class CrackedPair:
    """A head array and one tail cracked together, with a tape cursor.

    Parameters
    ----------
    head / tail:
        The initial, position-aligned value arrays (the owner's snapshot).
    fetch_tail:
        Callback ``keys -> tail values`` used when replaying insert entries;
        reads the pair's own tail attribute from its base column.
    """

    #: Structure kind in the sanitizer / invariant catalog.
    kind: str

    def __init__(
        self,
        head: np.ndarray,
        tail: np.ndarray,
        fetch_tail: Callable[[np.ndarray], np.ndarray],
        recorder: StatsRecorder | None = None,
    ) -> None:
        if len(head) != len(tail):
            raise AlignmentError("map head and tail must be equally long")
        self.head: np.ndarray | None = head
        self.tail = tail
        self.index = CrackerIndex()
        self.cursor = 0
        self.accesses = 0
        self.pending_cracks: PendingMap = {}
        self._fetch_tail = fetch_tail
        self._recorder = recorder or global_recorder()

    def __len__(self) -> int:
        return len(self.tail)

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
        ``cut_sink`` so the owner can log them to its tape).  A ``progress``
        context makes the crack budget-aware: the returned area is then the
        certain window and ``progress.holes`` the undecided ranges.  Replay
        (:meth:`replay_entry`) never passes either.
        """
        area = crack_into(
            self.index, self.head, [self.tail], interval, self._recorder,
            policy=policy, rng=rng, cut_sink=cut_sink, progress=progress,
        )
        checkpoint_crack(self, self.kind)
        return area

    def replay_entry(self, entry: TapeEntry) -> None:
        """Apply one tape entry and advance the cursor.

        Delete entries must already carry cached positions (the owning set
        guarantees this by locating victims through ``M_Akey`` first).
        """
        if self.head is None:
            raise AlignmentError("head was dropped; recover it before replaying")
        self._recorder.event("alignment_replays")
        self.head, (self.tail,) = apply_entry(
            self.index, self.head, [self.tail], self.pending_cracks, entry,
            (self._fetch_tail,), self._recorder,
        )
        self.cursor += 1

    def check_invariants(self, deep: bool = False) -> None:
        """Run the shared invariant catalog; raises ``InvariantError``."""
        from repro.analysis.invariants import check_or_raise

        check_or_raise(self, self.kind, deep=deep)


class CrackerMap(CrackedPair):
    """One two-column cracker map over a map set's snapshot.

    ``head_attr`` / ``tail_attr`` are attribute names; the tail may equal
    :data:`KEY_TAIL` for the set's ``M_Akey`` map.
    """

    kind = "map"

    def __init__(
        self,
        head_attr: str,
        tail_attr: str,
        head: np.ndarray,
        tail: np.ndarray,
        fetch_tail: Callable[[np.ndarray], np.ndarray],
        recorder: StatsRecorder | None = None,
    ) -> None:
        super().__init__(head, tail, fetch_tail, recorder)
        self.head_attr = head_attr
        self.tail_attr = tail_attr
        self._recorder.event("map_creations")
        self._recorder.sequential(2 * len(head))
        self._recorder.write(2 * len(head))
        register_structure(self, "map", f"M_{head_attr},{tail_attr}")

    @property
    def storage_tuples(self) -> int:
        """Storage footprint in (head, tail) pairs."""
        return len(self.head)

    def area_of(self, interval: Interval) -> tuple[int, int] | None:
        """The qualifying area if ``interval``'s bounds already exist, else None."""
        lower = interval.lower_bound()
        upper = interval.upper_bound()
        lo = 0 if lower is None else self.index.position_of(lower)
        hi = len(self.head) if upper is None else self.index.position_of(upper)
        if lo is None or hi is None:
            return None
        return lo, hi
