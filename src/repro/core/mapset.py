"""Map sets ``S_A``: all cracker maps headed by one attribute.

The set owns the cracker tape, the base snapshot that new maps are created
from, the pending-update buffers, and the special ``M_Akey`` map used to
locate deletions.  *Adaptive alignment* lives here: a map is brought up to
date by replaying tape entries from its cursor, only when a query actually
needs it.

Snapshot discipline (what makes late map creation correct): the set freezes
its view of the base table at creation time — ``snapshot_rows`` rows minus
any keys already deleted.  Rows inserted later reach maps only through
``InsertEntry`` replay, never through the snapshot, so every map starts from
the identical start state and deterministic replay yields identical
permutations.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.invariants import (
    boundary_signature,
    format_boundaries,
    pending_signature,
)
from repro.analysis.sanitizer import checkpoint_crack, register_structure
from repro.core.map import KEY_TAIL, CrackerMap, tail_fetcher
from repro.core.replay import align_gang, log_crack
from repro.core.tape import (
    CrackerTape,
    DeleteEntry,
    InsertEntry,
    ProgressiveCrackEntry,
)
from repro.cracking.bounds import Bound, Interval
from repro.cracking.pending import PendingUpdates
from repro.cracking.progressive import (
    BudgetTracker,
    ProgressiveBudget,
    crack_progress,
    parse_budget,
    resolve_area,
)
from repro.cracking.ripple import locate_deletions
from repro.cracking.stochastic import CrackPolicy, is_stochastic, policy_rng
from repro.errors import (
    AlignmentError,
    CatalogError,
    InvariantError,
    InvariantViolation,
)
from repro.faults.guard import atomic
from repro.faults.plan import fault_hook
from repro.stats.counters import StatsRecorder, global_recorder
from repro.storage.relation import Relation


class MapSet:
    """The map set of one head attribute of one relation."""

    def __init__(
        self,
        relation: Relation,
        head_attr: str,
        recorder: StatsRecorder | None = None,
        storage: "FullMapStorage | None" = None,
        policy: CrackPolicy | None = None,
        rng: np.random.Generator | None = None,
        budget: "ProgressiveBudget | str | float | None" = None,
    ) -> None:
        self.relation = relation
        self.head_attr = head_attr
        self.tape = CrackerTape()
        self.maps: dict[str, CrackerMap] = {}
        self.pending = PendingUpdates(n_tails=1)  # tail = keys
        self._recorder = recorder or global_recorder()
        self._storage = storage
        self.policy = policy
        self._rng = rng if rng is not None else policy_rng(0, "mapset", head_attr)
        self.stochastic_cuts = 0
        # Bounds with a progressive crack still in flight at the tape's end
        # (mirrors the pending_cracks of any fully-aligned map).
        self.open_pendings: set[Bound] = set()
        self.set_budget(budget)
        # Piece-boundary signature of the last fully-aligned map, used to
        # assert that replaying a stochastic tape reproduces identical pieces.
        self._sig: tuple[int, tuple] | None = None
        # Freeze the snapshot: current rows, minus nothing (deletions that
        # happened before this set existed were already applied physically by
        # the Database facade or never seen by it).
        self.snapshot_rows = len(relation)
        self._snapshot_excluded: np.ndarray = np.empty(0, dtype=np.int64)
        register_structure(self, "mapset", f"S_{head_attr}")

    # -- progressive budget ----------------------------------------------------

    def set_budget(self, budget: "ProgressiveBudget | str | float | None") -> None:
        """Install the per-query reorganization budget (``None`` = eager)."""
        self.budget = parse_budget(budget)
        self._tracker = BudgetTracker(self.budget)

    @property
    def progressive_active(self) -> bool:
        """Is any budget installed or any crack still in flight?

        Callers running multi-map plans use this to decide between the
        legacy per-map ``select`` and the leader/follower
        ``select_window`` / ``window_of`` pair.
        """
        return self.budget is not None or bool(self.open_pendings)

    # -- snapshot --------------------------------------------------------------

    def exclude_from_snapshot(self, keys: np.ndarray) -> None:
        """Mark keys that must not appear in newly created maps.

        Used by the Database facade when tombstones predate this set.
        """
        if len(self.maps):
            raise AlignmentError("cannot change the snapshot once maps exist")
        self._snapshot_excluded = np.union1d(self._snapshot_excluded, keys)

    def _snapshot_mask(self) -> np.ndarray | None:
        if len(self._snapshot_excluded) == 0:
            return None
        keys = np.arange(self.snapshot_rows, dtype=np.int64)
        return ~np.isin(keys, self._snapshot_excluded)

    def _snapshot_arrays(self, tail_attr: str) -> tuple[np.ndarray, np.ndarray]:
        head = self.relation.values(self.head_attr)[: self.snapshot_rows]
        if tail_attr == KEY_TAIL:
            tail = np.arange(self.snapshot_rows, dtype=np.int64)
        else:
            tail = self.relation.values(tail_attr)[: self.snapshot_rows]
        mask = self._snapshot_mask()
        if mask is not None:
            return head[mask].copy(), tail[mask].copy()
        return head.copy(), tail.copy()

    # -- map lifecycle -------------------------------------------------------------

    def has_map(self, tail_attr: str) -> bool:
        return tail_attr in self.maps

    def get_map(self, tail_attr: str, align: bool = False) -> CrackerMap:
        """The map ``M_{A,tail}``, creating it from the snapshot on demand."""
        if tail_attr != KEY_TAIL and tail_attr not in self.relation:
            raise CatalogError(
                f"relation {self.relation.name!r} has no attribute {tail_attr!r}"
            )
        cmap = self.maps.get(tail_attr)
        if cmap is None:
            if self._storage is not None:
                self._storage.ensure_room(self._map_size_estimate())
            head, tail = self._snapshot_arrays(tail_attr)
            cmap = CrackerMap(
                self.head_attr, tail_attr, head, tail,
                tail_fetcher(self.relation, tail_attr, self._recorder),
                self._recorder,
            )
            self.maps[tail_attr] = cmap
            if self._storage is not None:
                self._storage.register(self, tail_attr, cmap)
        if align:
            self.align(cmap)
        return cmap

    def _map_size_estimate(self) -> int:
        mask = self._snapshot_mask()
        return self.snapshot_rows if mask is None else int(mask.sum())

    def drop_map(self, tail_attr: str) -> None:
        """Drop a map entirely (storage pressure); the tape is retained, so a
        recreated map pays a full replay to realign."""
        self.maps.pop(tail_attr, None)
        self._recorder.event("chunk_drops")

    # -- alignment -------------------------------------------------------------------

    def align(self, cmap: CrackerMap, upto: int | None = None) -> None:
        """Replay tape entries from ``cmap``'s cursor to ``upto`` (default end).

        Sibling maps standing at the same cursor are dragged along as a gang
        led by ``cmap`` (:func:`~repro.core.replay.align_gang`); delete
        entries on the way get their victims located through ``M_Akey``
        first.
        """
        end = len(self.tape) if upto is None else upto
        if cmap.cursor > end:
            raise AlignmentError(
                f"map cursor {cmap.cursor} already past requested position {end}"
            )
        with atomic(self, "mapset"):
            gang = [cmap]
            if cmap.cursor < end:
                fault_hook("mapset.align", cmap.head)
                gang += [
                    m
                    for m in self.maps.values()
                    if m is not cmap and m.cursor == cmap.cursor
                ]
                self._locate_deletes(cmap.cursor, end)
                align_gang(
                    self.tape, gang, end, self._recorder, "mapset.gang_replay"
                )
            for m in gang:
                self._check_replay_boundaries(m, end)

    def _check_replay_boundaries(self, cmap: CrackerMap, end: int) -> None:
        """Assert sibling maps agree on piece boundaries after full alignment.

        Only meaningful under a stochastic policy, where a replay bug (e.g. a
        policy consuming RNG during replay) would silently desynchronize
        sibling maps.  Compares an (boundary, position) signature across maps
        aligned to the same tape position.
        """
        if not is_stochastic(self.policy) or end != len(self.tape):
            return
        sig = (
            boundary_signature(cmap.index),
            pending_signature(cmap.pending_cracks),
        )
        if self._sig is not None and self._sig[0] == end and self._sig[1] != sig:
            expected, actual = self._sig[1], sig
            raise InvariantError.from_violations([InvariantViolation(
                structure=f"S_{self.head_attr}",
                invariant="replay-boundaries",
                detail=(
                    f"map {cmap.tail_attr!r} reproduced different piece "
                    f"boundaries at tape position {end}: expected "
                    f"{format_boundaries(expected[0])} (pending {expected[1]}), "
                    f"got {format_boundaries(actual[0])} (pending {actual[1]})"
                ),
                context=(
                    ("map", cmap.tail_attr), ("tape_position", end),
                    ("expected", expected[0]), ("actual", actual[0]),
                    ("expected_pending", expected[1]),
                    ("actual_pending", actual[1]),
                ),
            )])
        self._sig = (end, sig)

    def _locate_deletes(self, start: int, end: int) -> None:
        """Fill in the victim positions of delete entries in ``[start, end)``.

        For each entry not located yet, ``M_Akey`` is aligned to just before
        it, victims are located by scanning the pieces their old head values
        map to, and the positions are cached on the entry for every replay.
        (No update entry lies at or past the tape's ``min_safe_cursor``.)
        """
        for idx in range(start, min(end, self.tape.min_safe_cursor)):
            entry = self.tape[idx]
            if not isinstance(entry, DeleteEntry) or entry.positions is not None:
                continue
            key_map = self.get_map(KEY_TAIL)
            self.align(key_map, upto=idx)
            if key_map.cursor != idx:
                raise AlignmentError(
                    "M_Akey overtook a delete entry whose positions were never located"
                )
            entry.positions = locate_deletions(
                key_map.index, key_map.head, key_map.tail,
                entry.values, entry.keys, self._recorder,
            )

    # -- pending updates ------------------------------------------------------------------

    def add_insertions(self, values: np.ndarray, keys: np.ndarray) -> None:
        self.pending.add_insertions(np.asarray(values), [np.asarray(keys, np.int64)])

    def add_deletions(self, values: np.ndarray, keys: np.ndarray) -> None:
        self.pending.add_deletions(values, keys)

    def merge_pending(self, interval: Interval | None = None) -> None:
        """Turn pending updates in ``interval`` into tape entries.

        The entries are *not* applied here — callers align their maps
        afterwards, which replays them in order.
        """
        if not self.pending.has_pending(interval):
            return
        with atomic(self, "mapset"):
            # Ripple merges shift piece positions, which would invalidate the
            # window markers of in-flight progressive cracks: tape
            # force-finish entries first so every replay completes them
            # before it sees the update entries.
            self._finish_open_pendings()
            ins_values, ins_tails = self.pending.take_insertions(interval)
            if len(ins_values):
                self.tape.append(InsertEntry(ins_values, ins_tails[0]))
            del_values, del_keys = self.pending.take_deletions(interval)
            if len(del_values):
                self.tape.append(DeleteEntry(del_values, del_keys))

    def _finish_open_pendings(self) -> None:
        """Tape a force-finish entry for every in-flight progressive crack."""
        for bound in sorted(self.open_pendings):
            self.tape.append(ProgressiveCrackEntry(bound, None))
        self.open_pendings.clear()

    # -- the sideways.select core ------------------------------------------------------------

    def select(self, tail_attr: str, interval: Interval) -> tuple[CrackerMap, int, int]:
        """Steps 1-8 of ``sideways.select``: create, align, crack, log.

        Returns the map and the qualifying area ``[lo, hi)``; the tail slice
        of that area is the (non-materialized view of the) result.  The
        legacy contiguous-area contract: any uncertainty left by a
        progressive budget is resolved by running the interval's in-flight
        cracks to completion.
        """
        cmap, lo, hi, holes = self.select_window(tail_attr, interval)
        if holes:
            cmap, lo, hi, holes = self.select_window(
                tail_attr, interval, budgeted=False
            )
            assert not holes  # unbudgeted cracks always complete
        return cmap, lo, hi

    def select_window(
        self, tail_attr: str, interval: Interval, budgeted: bool = True
    ) -> tuple[CrackerMap, int, int, list[tuple[int, int]]]:
        """Budget-aware ``select``: the certain window plus uncertainty holes.

        Like :meth:`select`, but under a progressive budget the crack may
        stop partway; the returned ``[lo, hi)`` is then the largest *certain*
        window and ``holes`` lists position ranges whose membership callers
        must decide by filtering head values.  Without a budget (or with
        ``budgeted=False``) holes is always empty.
        """
        with atomic(self, "mapset"):
            cmap = self.get_map(tail_attr)
            self.merge_pending(interval)
            self.align(cmap)
            cuts: list[Bound] = []
            progress = crack_progress(
                cmap.pending_cracks, self._tracker, budgeted, len(cmap.head)
            )
            cmap.accesses += 1
            lo, hi = cmap.crack(interval, self.policy, self._rng, cuts, progress)
            self.stochastic_cuts += len(cuts)
            holes = list(progress.holes) if progress is not None else []
            log_crack(self.tape, self.open_pendings, interval, cuts, progress)
            cmap.cursor = len(self.tape)
            self._sig = None
            checkpoint_crack(self, "mapset")
        return cmap, lo, hi, holes

    def window_of(
        self, tail_attr: str, interval: Interval
    ) -> tuple[CrackerMap, int, int, list[tuple[int, int]]]:
        """Align a map and resolve ``interval``'s window without new cracking.

        The follower half of a multi-map plan: a leader ``select_window``
        spends the query's budget and tapes its work; followers replay that
        tape (reaching the identical physical state) and merely resolve the
        window, so one query spends one budget no matter how many maps it
        touches — and every map reports the same window and holes.
        """
        with atomic(self, "mapset"):
            cmap = self.get_map(tail_attr)
            self.merge_pending(interval)
            self.align(cmap)
            cmap.accesses += 1
            self._recorder.event("index_lookups", 2)
            lo, hi, holes = resolve_area(
                cmap.index, len(cmap.head), interval, cmap.pending_cracks
            )
        return cmap, lo, hi, holes

    # -- invariants -----------------------------------------------------------------------------

    def check_invariants(self, deep: bool = False) -> None:
        """Run the shared invariant catalog; raises ``InvariantError``."""
        from repro.analysis.invariants import check_or_raise

        check_or_raise(self, "mapset", deep=deep)

    # -- introspection --------------------------------------------------------------------------

    def alignment_distance(self, tail_attr: str) -> int | None:
        """Tape entries the map still has to replay; ``None`` if absent."""
        cmap = self.maps.get(tail_attr)
        if cmap is None:
            return None
        return len(self.tape) - cmap.cursor

    def most_aligned_map(self) -> CrackerMap | None:
        """The map with the smallest alignment distance (histogram source)."""
        best: CrackerMap | None = None
        for cmap in self.maps.values():
            if best is None or cmap.cursor > best.cursor:
                best = cmap
        return best

    def storage_tuples(self) -> int:
        return sum(m.storage_tuples for m in self.maps.values())


class FullMapStorage:
    """Least-frequently-accessed eviction of whole maps under a tuple budget.

    This is the storage policy the paper uses for *full* maps: "existing maps
    are only dropped if there is not sufficient storage for newly requested
    maps.  We always drop the least frequently accessed map(s)."
    """

    def __init__(self, budget_tuples: int | None, recorder: StatsRecorder | None = None) -> None:
        self.budget_tuples = budget_tuples
        self._recorder = recorder or global_recorder()
        #: ``id(set)`` -> the set and its registered maps by tail.  Dict
        #: order is the order the sets registered in, which breaks
        #: access-count ties between sets (an ``id()`` would make the victim
        #: depend on where the allocator put them).
        self._sets: dict[int, tuple[MapSet, dict[str, CrackerMap]]] = {}
        self._pinned: set[tuple[str, str]] = set()

    def register(self, mapset: MapSet, tail_attr: str, cmap: CrackerMap) -> None:
        self._sets.setdefault(id(mapset), (mapset, {}))[1][tail_attr] = cmap

    def unregister(self, mapset: MapSet, tail_attr: str) -> None:
        """Forget one map (eviction / fault rollback)."""
        entry = self._sets.get(id(mapset))
        if entry is not None:
            entry[1].pop(tail_attr, None)
            if not entry[1]:
                del self._sets[id(mapset)]

    def unregister_set(self, mapset: MapSet) -> None:
        """Forget every map of ``mapset`` (quarantine healing)."""
        self._sets.pop(id(mapset), None)

    @property
    def used_tuples(self) -> int:
        return sum(
            m.storage_tuples for _, maps in self._sets.values() for m in maps.values()
        )

    def pin(self, pairs: "set[tuple[str, str]]") -> None:
        """Protect maps ``(head_attr, tail_attr)`` of the running query."""
        self._pinned = set(pairs)

    def unpin(self) -> None:
        self._pinned = set()

    def ensure_room(self, new_tuples: int) -> None:
        """Drop least-frequently-accessed unpinned maps until it fits.

        Ties go to the set registered first, then to the smaller tail name.
        """
        if self.budget_tuples is None:
            return
        while self.used_tuples + new_tuples > self.budget_tuples:
            # (accesses, set order, tail) is unique: the set never compares.
            victims = [
                (cmap.accesses, order, attr, mapset)
                for order, (mapset, maps) in enumerate(self._sets.values())
                for attr, cmap in maps.items()
                if (mapset.head_attr, attr) not in self._pinned
            ]
            if not victims:
                return  # nothing evictable; allow overshoot rather than fail
            _, _, tail_attr, mapset = min(victims)
            self.unregister(mapset, tail_attr)
            mapset.drop_map(tail_attr)
