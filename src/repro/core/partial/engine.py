"""Partial sideways cracking: per-area preparation and the facade's plan.

The operators are :class:`repro.core.sideways.SidewaysFacade`'s; this
module materializes what they run over chunk-wise.  Key behaviors from
Section 4:

* **chunk-wise processing** — every operator handles one area at a time:
  load/create the chunk, align it, crack it if it is a boundary chunk
  (:meth:`PartialMapSet.prepare_area`), run the operator over it;
* **partial alignment** — chunks that will not be cracked are aligned only
  up to the maximum cursor of the sibling chunks used by the same query,
  not to the tape end;
* **monitored alignment** — a boundary chunk replays its tape only until the
  needed bound appears; cracking (and hence full alignment) happens only if
  the bound was never cracked before;
* **storage management** — chunk creation goes through a budgeted LFU
  storage manager; head columns can be dropped and recovered.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from repro.analysis.sanitizer import checkpoint_crack, register_structure
from repro.core.partial.chunk import Chunk
from repro.core.partial.chunkmap import Area, ChunkMap
from repro.core.partial.partial_map import KEY_TAIL, PartialMap
from repro.core.partial.storage import ChunkStorage
from repro.core.replay import align_gang, log_crack
from repro.core.sideways import PreparedArea, SidewaysFacade, qualify_holes
from repro.core.tape import DeleteEntry, InsertEntry, ProgressiveCrackEntry
from repro.cracking.bounds import Bound, Interval, interval_from_bounds
from repro.cracking.index import CrackerIndex
from repro.cracking.pending import PendingUpdates
from repro.cracking.progressive import (
    BudgetTracker,
    ProgressiveBudget,
    crack_progress,
    parse_budget,
)
from repro.cracking.stochastic import CrackPolicy, is_stochastic, policy_rng
from repro.cracking.ripple import (
    delete_positions,
    locate_deletions,
    merge_insertions,
)
from repro.faults.guard import atomic
from repro.faults.plan import fault_hook
from repro.stats.counters import StatsRecorder, global_recorder
from repro.storage.relation import Relation


@dataclass(frozen=True)
class PartialConfig:
    """Tuning knobs for partial sideways cracking.

    ``partial_alignment=False`` degrades every alignment to a full replay
    (the ablation baseline).  ``head_drop_mode`` is ``"off"``, ``"cold"``
    (drop heads of chunks not cracked for ``cold_threshold`` accesses), or
    ``"cache"`` (sort-then-drop once every piece fits ``cache_piece_tuples``).
    """

    partial_alignment: bool = True
    head_drop_mode: str = "off"
    cold_threshold: int = 8
    cache_piece_tuples: int = 4096
    max_chunk_tuples: int | None = None


class PartialMapSet:
    """The partial map set of one head attribute: chunk map + partial maps."""

    def __init__(
        self,
        relation: Relation,
        head_attr: str,
        storage: ChunkStorage,
        config: PartialConfig,
        recorder: StatsRecorder | None = None,
        excluded_keys: np.ndarray | None = None,
        policy: CrackPolicy | None = None,
        rng: np.random.Generator | None = None,
        budget: "ProgressiveBudget | str | float | int | None" = None,
    ) -> None:
        self.relation = relation
        self.head_attr = head_attr
        self.storage = storage
        self.config = config
        self._recorder = recorder or global_recorder()
        self.snapshot_rows = len(relation)
        self._excluded_keys = excluded_keys
        self.policy = policy
        self._rng = rng if rng is not None else policy_rng(0, "pset", head_attr)
        self.stochastic_cuts = 0
        self.chunkmap: ChunkMap | None = None
        self.maps: dict[str, PartialMap] = {}
        self.pending = PendingUpdates(n_tails=1)
        self.set_budget(budget)
        register_structure(self, "partial_set", f"P_{head_attr}")

    def set_budget(
        self, budget: "ProgressiveBudget | str | float | int | None"
    ) -> None:
        """Install (or clear) the per-query progressive crack budget.

        The tracker is shared by every area this set cracks: one query gets
        one allowance (refreshed in :meth:`plan`), no matter how many
        boundary chunks it touches.
        """
        self.budget = parse_budget(budget)
        self._tracker = BudgetTracker(self.budget)

    # -- lazy construction --------------------------------------------------------

    def _chunkmap(self) -> ChunkMap:
        if self.chunkmap is None:
            self.chunkmap = ChunkMap(
                self.relation, self.head_attr, self.snapshot_rows,
                self._recorder, self._excluded_keys,
                policy=self.policy, rng=self._rng,
            )
        return self.chunkmap

    def map_for(self, tail_attr: str) -> PartialMap:
        pmap = self.maps.get(tail_attr)
        if pmap is None:
            pmap = PartialMap(self._chunkmap(), tail_attr, self._recorder)
            self.maps[tail_attr] = pmap
            self.storage.register_map(pmap)
        return pmap

    # -- pending updates --------------------------------------------------------------

    def add_insertions(self, values: np.ndarray, keys: np.ndarray) -> None:
        self.pending.add_insertions(np.asarray(values), [np.asarray(keys, np.int64)])

    def add_deletions(self, values: np.ndarray, keys: np.ndarray) -> None:
        self.pending.add_deletions(values, keys)

    def merge_pending(self, interval: Interval | None = None) -> None:
        """Route pending updates: physical merges into unfetched ``H_A``
        regions, tape entries for fetched areas."""
        if not self.pending.has_pending(interval):
            return
        with atomic(self, "partial_set"):
            cmap = self._chunkmap()
            ins_values, ins_tails = self.pending.take_insertions(interval)
            if len(ins_values):
                self._route_insertions(cmap, ins_values, ins_tails[0])
            del_values, del_keys = self.pending.take_deletions(interval)
            if len(del_values):
                self._route_deletions(cmap, del_values, del_keys)

    def _area_membership(self, cmap: ChunkMap, values: np.ndarray) -> list[np.ndarray]:
        """Boolean masks grouping ``values`` by the area they belong to."""
        masks = []
        for area in cmap.areas:
            iv = interval_from_bounds(area.lo_bound, area.hi_bound)
            masks.append(iv.mask(values))
        return masks

    def _route_insertions(
        self, cmap: ChunkMap, values: np.ndarray, keys: np.ndarray
    ) -> None:
        unfetched_mask = np.zeros(len(values), dtype=bool)
        for area, mask in zip(cmap.areas, self._area_membership(cmap, values)):
            if not mask.any():
                continue
            if area.fetched:
                assert area.tape is not None
                self._finish_area_pendings(area)
                area.tape.append(InsertEntry(values[mask], keys[mask]))
            else:
                unfetched_mask |= mask
        if unfetched_mask.any():
            cmap.head, tails = merge_insertions(
                cmap.index, cmap.head, [cmap.keys],
                values[unfetched_mask], [keys[unfetched_mask]], self._recorder,
                frozen=cmap.fetched_pieces(),
            )
            cmap.keys = tails[0]

    def _route_deletions(
        self, cmap: ChunkMap, values: np.ndarray, keys: np.ndarray
    ) -> None:
        unfetched_mask = np.zeros(len(values), dtype=bool)
        for area, mask in zip(cmap.areas, self._area_membership(cmap, values)):
            if not mask.any():
                continue
            if area.fetched:
                assert area.tape is not None
                self._finish_area_pendings(area)
                area.tape.append(DeleteEntry(values[mask], keys[mask]))
            else:
                unfetched_mask |= mask
        if unfetched_mask.any():
            positions = locate_deletions(
                cmap.index, cmap.head, cmap.keys,
                values[unfetched_mask], keys[unfetched_mask], self._recorder,
            )
            cmap.head, tails = delete_positions(
                cmap.index, cmap.head, [cmap.keys], positions, self._recorder,
                frozen=cmap.fetched_pieces(),
            )
            cmap.keys = tails[0]

    def _finish_area_pendings(self, area: Area) -> None:
        """Force-finish every in-flight progressive crack of one area.

        Ripple merges and deletes shift positions, which would invalidate the
        ``[left, right)`` markers of any pending crack; a deterministic
        force-finish entry per open bound drains them first, on the live
        chunks and on every later replayer alike.
        """
        if not area.open_pendings:
            return
        assert area.tape is not None
        for bound in sorted(area.open_pendings):
            area.tape.append(ProgressiveCrackEntry(bound, None))
        area.open_pendings.clear()

    # -- delete-entry location ----------------------------------------------------------

    def _ensure_located(self, area: Area, upto: int) -> None:
        """Locate victim positions for delete entries in ``[0, upto)``.

        Location runs over the area's key chunk (``M_Akey`` materialized
        chunk-wise), aligned to just before each entry; positions are cached
        on the entries as with full maps.
        """
        assert area.tape is not None
        pending_idx = [
            i for i in range(min(upto, area.tape.min_safe_cursor))
            if isinstance(area.tape[i], DeleteEntry) and area.tape[i].positions is None
        ]
        if not pending_idx:
            return
        key_pmap = self.map_for(KEY_TAIL)
        chunk = key_pmap.get_chunk(area)
        if chunk is None:
            chunk = self._create_chunk(key_pmap, area)
        for idx in pending_idx:
            entry = area.tape[idx]
            assert isinstance(entry, DeleteEntry)
            self._bring_to(key_pmap, chunk, area, idx)
            if chunk.head_dropped:
                # Already at ``idx``, so _bring_to left the head dropped.
                self._recover_head(key_pmap, chunk, area)
            entry.positions = locate_deletions(
                chunk.index, chunk.head, chunk.tail,
                entry.values, entry.keys, self._recorder,
            )
            chunk.replay_entry(entry)

    # -- chunk management ------------------------------------------------------------------

    def _create_chunk(self, pmap: PartialMap, area: Area) -> Chunk:
        cmap = self._chunkmap()
        self.storage.ensure_room(cmap.area_size(area))
        chunk = pmap.create_chunk(area)
        self.storage.pin(pmap, area.area_id)
        return chunk

    def acquire_chunk(self, tail_attr: str, area: Area) -> tuple[PartialMap, Chunk]:
        pmap = self.map_for(tail_attr)
        chunk = pmap.get_chunk(area)
        if chunk is None:
            chunk = self._create_chunk(pmap, area)
        else:
            self.storage.pin(pmap, area.area_id)
        chunk.touch()
        return pmap, chunk

    def _bring_to(self, pmap: PartialMap, chunk: Chunk, area: Area, target: int) -> None:
        """Align a chunk to tape position ``target``, recovering its head
        and pre-locating delete positions as needed."""
        assert area.tape is not None
        if chunk.cursor >= target:
            return
        fault_hook("partial.align", chunk.head)
        self._ensure_located(area, target)
        if chunk.head_dropped:
            self._recover_head(pmap, chunk, area)
        pmap.align_chunk(chunk, area, upto=target)

    def _recover_head(self, pmap: PartialMap, chunk: Chunk, area: Area) -> None:
        """Rebuild a dropped head from the best source (Section 4.1)."""
        assert area.tape is not None
        best: Chunk | None = None
        for sibling_map in self.maps.values():
            sibling = sibling_map.get_chunk(area)
            if (
                sibling is not None
                and sibling is not chunk
                and not sibling.head_dropped
                and sibling.cursor <= chunk.cursor
                and (best is None or sibling.cursor > best.cursor)
            ):
                best = sibling
        if best is not None:
            chunk.recover_head(
                area.tape, best.head, best.index, best.cursor,
                best.pending_cracks,
            )
        else:
            head_slice, _ = self._chunkmap().area_slice(area)
            chunk.recover_head(area.tape, head_slice, CrackerIndex(), 0)

    def _bring_group_to(
        self,
        area: Area,
        pairs: "list[tuple[PartialMap, Chunk]]",
        target: int,
    ) -> None:
        """Align several chunks of one area to ``target`` as a gang
        (:func:`~repro.core.replay.align_gang`), recovering dropped heads
        and pre-locating delete positions as needed."""
        assert area.tape is not None
        todo = [(pmap, chunk) for pmap, chunk in pairs if chunk.cursor < target]
        if len(todo) == 1:
            self._bring_to(*todo[0], area, target)
        elif todo:
            self._ensure_located(area, target)
            for pmap, chunk in todo:
                if chunk.head_dropped:
                    self._recover_head(pmap, chunk, area)
            align_gang(
                area.tape, [chunk for _, chunk in todo], target,
                self._recorder, "partial.gang_replay",
            )

    # -- the per-area preparation core -------------------------------------------------------

    def prepare_area(
        self, area: Area, interval: Interval, tail_attrs: list[str]
    ) -> PreparedArea:
        """Align/crack the chunks of ``tail_attrs`` for one area and return
        them with the certain qualifying window ``[lo, hi)`` they share,
        plus the uncertainty holes a progressive budget may have left behind.

        Implements monitored + partial alignment: the first chunk replays
        entries only until the needed bounds appear (or cracks at the tape
        end); every other chunk aligns to exactly the cursor the first one
        reached, so the window is resolved once, on the first chunk.  Each
        hole is ``(h_lo, h_hi, qualifies)`` with the head predicate
        evaluated once against the (shared, aligned) head values; window and
        masks apply position-wise to every returned chunk.
        """
        assert area.tape is not None
        with atomic(self, "partial_set"):
            lower, upper = area.clip(interval)
            needed = [b for b in (lower, upper) if b is not None]
            acquired = [self.acquire_chunk(attr, area) for attr in tail_attrs]

            baseline = max(chunk.cursor for _, chunk in acquired)
            # Never stop short of merged updates: membership must be current.
            baseline = max(baseline, area.tape.min_safe_cursor)
            if not self.config.partial_alignment:
                baseline = len(area.tape)

            first_map, first_chunk = acquired[0]
            if needed:
                target = self._align_and_crack(first_map, first_chunk, area, needed,
                                               lower, upper, baseline)
            else:
                target = baseline
                self._bring_to(first_map, first_chunk, area, target)
            self._bring_group_to(area, acquired[1:], target)

        lo, hi, holes = first_chunk.window_between(lower, upper)
        # Holes exist only when this query's crack ran out of budget, and
        # the crack path always recovers the first chunk's head.
        assert not holes or first_chunk.head is not None
        return (
            {attr: chunk for attr, (_, chunk) in zip(tail_attrs, acquired)},
            lo, hi,
            # Inside the area the clipped predicate is the predicate.
            qualify_holes(self._recorder, first_chunk.head, holes, interval),
        )

    def _align_and_crack(
        self,
        pmap: PartialMap,
        chunk: Chunk,
        area: Area,
        needed: list[Bound],
        lower: Bound | None,
        upper: Bound | None,
        baseline: int,
    ) -> int:
        """Monitored alignment of a boundary chunk; returns the common cursor."""
        assert area.tape is not None
        self._bring_to(pmap, chunk, area, baseline)
        if self.config.partial_alignment:
            # Full alignment only while the bound is still missing; stop the
            # moment it shows up among the replayed cracks.
            while not chunk.bounds_present(needed) and chunk.cursor < len(area.tape):
                self._bring_to(pmap, chunk, area, chunk.cursor + 1)
        else:
            self._bring_to(pmap, chunk, area, len(area.tape))
        if chunk.bounds_present(needed):
            return chunk.cursor
        # Still missing: full alignment, then crack and log.
        self._bring_to(pmap, chunk, area, len(area.tape))
        if chunk.head_dropped:
            self._recover_head(pmap, chunk, area)
        clipped = interval_from_bounds(lower, upper)
        cuts: list[Bound] = []
        # One allowance per query, begun by :meth:`plan`, however many
        # boundary chunks the query cracks.
        progress = crack_progress(chunk.pending_cracks, self._tracker)
        chunk.crack(clipped, self.policy, self._rng, cuts, progress)
        self.stochastic_cuts += len(cuts)
        log_crack(area.tape, area.open_pendings, clipped, cuts, progress)
        chunk.cursor = len(area.tape)
        checkpoint_crack(self, "partial_set")
        return chunk.cursor

    # -- invariants ------------------------------------------------------------------------------

    def check_invariants(self, deep: bool = False) -> None:
        """Run the shared invariant catalog; raises ``InvariantError``."""
        from repro.analysis.invariants import check_or_raise

        check_or_raise(self, "partial_set", deep=deep)

    # -- planning --------------------------------------------------------------------------------

    def plan(self, interval: Interval) -> list[Area]:
        """Merge relevant pending updates and cover ``interval`` with areas.

        The returned areas are pinned (they stay fetched even if eviction
        drops all their chunks mid-query); callers must :meth:`release` them.
        """
        with atomic(self, "partial_set"):
            cmap = self._chunkmap()
            if self.budget is not None:
                self._tracker.begin_query(self.snapshot_rows)
            self.merge_pending(interval)
            areas = cmap.cover(interval, self.config.max_chunk_tuples)
        for area in areas:
            area.pin_count += 1
        return areas

    def release(self, areas: list[Area]) -> None:
        for area in areas:
            area.pin_count -= 1

    # -- head-drop policy ---------------------------------------------------------------------------

    def apply_head_drop_policy(self, used: list[tuple[str, Area]]) -> None:
        mode = self.config.head_drop_mode
        if mode == "off":
            return
        for attr, area in used:
            pmap = self.maps.get(attr)
            chunk = pmap.get_chunk(area) if pmap else None
            if chunk is None or chunk.head_dropped:
                continue
            if mode == "cold":
                # Never-cracked chunks are used "as is" and qualify too.
                idle = chunk.accesses - chunk.last_crack_access
                if idle >= self.config.cold_threshold:
                    chunk.drop_head()
            elif mode == "cache":
                assert area.tape is not None
                if chunk.cursor != len(area.tape):
                    continue
                if area.open_pendings or chunk.pending_cracks:
                    # Sorting would destroy in-flight partition markers.
                    continue
                pieces = list(chunk.index.pieces(len(chunk)))
                if pieces and max(p.size for p in pieces) <= self.config.cache_piece_tuples:
                    chunk.sort_all_pieces(area.tape)
                    chunk.drop_head()

    def storage_cells(self) -> int:
        cells = sum(p.storage_cells for p in self.maps.values())
        if self.chunkmap is not None:
            cells += self.chunkmap.storage_cells
        return cells


class PartialSidewaysCracker(SidewaysFacade):
    """Partial sideways cracking over one relation (public facade)."""

    def __init__(
        self,
        relation: Relation,
        budget_tuples: int | None = None,
        config: PartialConfig | None = None,
        recorder: StatsRecorder | None = None,
        storage: ChunkStorage | None = None,
        tombstone_keys=None,
        policy: CrackPolicy | None = None,
        crack_seed: int = 0,
        crack_budget: "ProgressiveBudget | str | float | int | None" = None,
    ) -> None:
        super().__init__(
            relation, recorder, tombstone_keys, policy, crack_seed, crack_budget
        )
        self.config = config or PartialConfig()
        self.storage = storage or ChunkStorage(budget_tuples, self._recorder)

    def set_for(self, head_attr: str) -> PartialMapSet:
        pset = self.sets.get(head_attr)
        if pset is None:
            dead = None
            if self._tombstone_keys is not None:
                dead = np.asarray(self._tombstone_keys(), dtype=np.int64)
            pset = PartialMapSet(
                self.relation, head_attr, self.storage, self.config,
                self._recorder, excluded_keys=dead,
                policy=self.policy,
                rng=policy_rng(self.crack_seed, "pset", self.relation.name, head_attr),
                budget=self.crack_budget,
            )
            self.sets[head_attr] = pset
        return pset

    def _histogram(self, attr: str) -> tuple[CrackerIndex, int] | None:
        pset = self.sets.get(attr)
        if pset is not None and pset.chunkmap is not None and len(pset.chunkmap.index):
            return pset.chunkmap.index, len(pset.chunkmap)
        return None

    # -- the plan: one area at a time ------------------------------------------------

    @contextmanager
    def _plan(
        self, head_attr: str, interval: Interval, attrs: list[str], everything: bool
    ) -> Iterator[Iterator[PreparedArea]]:
        """Chunk-wise processing: cover the predicate with areas, prepare
        each when the evaluator reaches it (chunk creation and eviction
        follow the evaluation order)."""
        pset = self.set_for(head_attr)
        # Disjunctions must inspect the areas outside w, i.e. everything.
        areas = pset.plan(Interval() if everything else interval)
        try:
            yield self._prepared(pset, areas, interval, attrs)
            pset.apply_head_drop_policy(
                [(attr, area) for area in areas for attr in attrs]
            )
        finally:
            pset.release(areas)
            self.storage.unpin_all()

    @staticmethod
    def _prepared(
        pset: PartialMapSet, areas: list[Area], interval: Interval, attrs: list[str]
    ) -> Iterator[PreparedArea]:
        lower = interval.lower_bound()
        upper = interval.upper_bound()
        for area in areas:
            if area.overlaps(lower, upper):
                yield pset.prepare_area(area, interval, attrs)
            else:
                # Outside w: the chunks as they are, and the empty window.
                pairs, _, _, _ = pset.prepare_area(area, Interval(), attrs)
                yield pairs, 0, 0, []

    # -- bookkeeping -----------------------------------------------------------------------------

    def storage_tuples(self) -> float:
        return sum(s.storage_cells() for s in self.sets.values()) / 2

    def describe_state(self) -> str:
        """A human-readable summary of the chunk-wise organized state."""
        lines = [f"partial sideways cracker over {self.relation.name!r}: "
                 f"{len(self.sets)} map set(s), "
                 f"{self.storage_tuples():,.0f} tuples of auxiliary storage"]
        if is_stochastic(self.policy):
            lines.append(f"  crack policy: {self.policy.describe()}")
        for head, pset in sorted(self.sets.items()):
            if pset.chunkmap is None:
                lines.append(f"  set S_{head}: (chunk map not yet created)")
                continue
            areas = pset.chunkmap.areas
            fetched = sum(a.fetched for a in areas)
            stochastic_note = ""
            if is_stochastic(self.policy):
                cuts = pset.stochastic_cuts + pset.chunkmap.stochastic_cuts
                stochastic_note = f", {cuts} stochastic cut(s)"
            lines.append(
                f"  set S_{head}: {len(areas)} areas ({fetched} fetched), "
                f"{len(pset.maps)} partial map(s)" + stochastic_note
            )
            for tail, pmap in sorted(pset.maps.items()):
                dropped = sum(c.head_dropped for c in pmap.chunks.values())
                lines.append(
                    f"    {pmap.name}: {len(pmap.chunks)} chunk(s), "
                    f"{len(pmap):,} tuples, {dropped} head-dropped"
                )
        return "\n".join(lines)
