"""The sideways-cracking query operators over full maps (Section 3).

:class:`SidewaysCracker` owns the map sets of one relation and implements the
paper's operator suite:

* ``sideways.select`` — single selection, one projection per map
  (:meth:`SidewaysCracker.select_project`);
* ``sideways.select_create_bv`` / ``select_refine_bv`` / ``reconstruct`` —
  conjunctive multi-selection plans over one *aligned* map set, filtering
  false candidates with a bit vector (:meth:`SidewaysCracker.query`);
* the symmetric disjunctive plan;
* map-set choice driven by the cracker indices acting as self-organizing
  histograms (most selective predicate for conjunctions, least selective for
  disjunctions).
"""

from __future__ import annotations

import numpy as np

from repro.core.bitvector import BitVector
from repro.core.histogram import estimate_result_size
from repro.core.map import KEY_TAIL
from repro.core.mapset import FullMapStorage, MapSet
from repro.cracking.bounds import Interval
from repro.cracking.index import CrackerIndex
from repro.cracking.progressive import parse_budget
from repro.cracking.stochastic import CrackPolicy, is_stochastic, policy_rng
from repro.errors import PlanError
from repro.stats.counters import StatsRecorder, global_recorder
from repro.storage.relation import Relation


class SidewaysFacade:
    """What the full-map and the partial-map facade share.

    Update fan-out to every existing map set, and map-set choice driven by
    the cracker indices acting as self-organizing histograms.  Subclasses
    own ``sets`` (head attribute -> map set) and say which index is the
    histogram of an attribute (:meth:`_histogram`).
    """

    def __init__(
        self,
        relation: Relation,
        recorder: StatsRecorder | None,
        tombstone_keys,
        policy: CrackPolicy | None,
        crack_seed: int,
        crack_budget,
    ) -> None:
        self.relation = relation
        self._recorder = recorder or global_recorder()
        self._tombstone_keys = tombstone_keys
        self.policy = policy
        self.crack_seed = crack_seed
        self.crack_budget = parse_budget(crack_budget)
        self.sets: dict = {}
        self._domain_cache: dict[str, tuple[float, float]] = {}

    def set_crack_budget(self, budget) -> None:
        """Install (or clear) a progressive budget on every current and
        future set."""
        self.crack_budget = parse_budget(budget)
        for mapset in self.sets.values():
            mapset.set_budget(self.crack_budget)

    def notify_insertions(self, rows: dict[str, np.ndarray], keys: np.ndarray) -> None:
        """Register appended tuples as pending insertions with every set."""
        for head_attr, mapset in self.sets.items():
            mapset.add_insertions(np.asarray(rows[head_attr]), keys)

    def notify_deletions(self, values_by_attr: dict[str, np.ndarray], keys: np.ndarray) -> None:
        """Register deleted tuples (old values per attribute) with every set."""
        for head_attr, mapset in self.sets.items():
            mapset.add_deletions(np.asarray(values_by_attr[head_attr]), keys)

    # -- selectivity estimation ----------------------------------------------------

    def _domain(self, attr: str) -> tuple[float, float]:
        cached = self._domain_cache.get(attr)
        if cached is None:
            values = self.relation.values(attr)
            self._recorder.sequential(len(values))
            cached = (float(values.min()), float(values.max())) if len(values) else (0.0, 0.0)
            self._domain_cache[attr] = cached
        return cached

    def _histogram(self, attr: str) -> tuple[CrackerIndex, int] | None:
        """The cracked index over ``attr`` (and its row count), if any."""
        raise NotImplementedError

    def estimate_count(self, attr: str, interval: Interval) -> float:
        """Estimated number of qualifying tuples for a predicate on ``attr``.

        Uses the attribute's cracker index as a self-organizing histogram;
        falls back to a uniform assumption over the attribute domain while
        nothing is cracked yet.
        """
        lo, hi = self._domain(attr)
        histogram = self._histogram(attr)
        if histogram is not None:
            index, n = histogram
            return estimate_result_size(index, n, interval, lo, hi).value
        # Uniform fallback over [lo, hi].
        n = len(self.relation)
        span = hi - lo
        if span <= 0:
            return float(n)
        plo = lo if interval.lo is None else max(lo, min(hi, interval.lo))
        phi = hi if interval.hi is None else max(lo, min(hi, interval.hi))
        return max(0.0, (phi - plo) / span * n)

    def choose_head(
        self, predicates: dict[str, Interval], conjunctive: bool = True
    ) -> str:
        """Pick the map set for a multi-selection plan.

        Conjunctions want the most selective predicate (smallest bit vector);
        disjunctions the least selective (smallest area outside ``w``).
        """
        if not predicates:
            raise PlanError("a multi-selection plan needs at least one predicate")
        scored = sorted(
            (self.estimate_count(attr, iv), attr) for attr, iv in predicates.items()
        )
        return scored[0][1] if conjunctive else scored[-1][1]


class SidewaysCracker(SidewaysFacade):
    """Sideways cracking (full maps) over one relation."""

    def __init__(
        self,
        relation: Relation,
        recorder: StatsRecorder | None = None,
        storage: FullMapStorage | None = None,
        tombstone_keys=None,
        policy: CrackPolicy | None = None,
        crack_seed: int = 0,
        crack_budget=None,
    ) -> None:
        super().__init__(
            relation, recorder, tombstone_keys, policy, crack_seed, crack_budget
        )
        self._storage = storage

    # -- map-set management ------------------------------------------------------

    def set_for(self, head_attr: str) -> MapSet:
        mapset = self.sets.get(head_attr)
        if mapset is None:
            mapset = MapSet(
                self.relation, head_attr, self._recorder, self._storage,
                policy=self.policy,
                rng=policy_rng(self.crack_seed, "mapset", self.relation.name, head_attr),
                budget=self.crack_budget,
            )
            if self._tombstone_keys is not None:
                dead = np.asarray(self._tombstone_keys(), dtype=np.int64)
                if len(dead):
                    mapset.exclude_from_snapshot(dead)
            self.sets[head_attr] = mapset
        return mapset

    def _histogram(self, attr: str) -> tuple[CrackerIndex, int] | None:
        # The most-aligned map of ``S_attr`` knows the most boundaries.
        mapset = self.sets.get(attr)
        cmap = mapset.most_aligned_map() if mapset is not None else None
        if cmap is not None and len(cmap.index):
            return cmap.index, len(cmap)
        return None

    # -- single-selection, multi-projection (Section 3.2) ----------------------------

    def _pin(self, head_attr: str, tail_attrs: list[str]) -> None:
        """Protect the running plan's maps (and ``M_Akey``) from eviction."""
        if self._storage is not None:
            pairs = {(head_attr, attr) for attr in tail_attrs}
            pairs.add((head_attr, KEY_TAIL))
            self._storage.pin(pairs)

    def _unpin(self) -> None:
        if self._storage is not None:
            self._storage.unpin()

    def select_project(
        self, head_attr: str, interval: Interval, projections: list[str]
    ) -> dict[str, np.ndarray]:
        """``select p1, .., pk from R where interval(head_attr)``.

        One ``sideways.select`` per projection; adaptive alignment keeps the
        result slices positionally aligned across maps.
        """
        mapset = self.set_for(head_attr)
        self._pin(head_attr, projections)
        try:
            out: dict[str, np.ndarray] = {}
            selector = self._plan_selector(mapset, interval)
            for attr in projections:
                cmap, lo, hi, holes = selector(attr)
                self._recorder.sequential(hi - lo)
                # Copy: the map keeps reorganizing under future queries.
                out[attr] = self._gather(cmap, lo, hi, holes, interval).copy()
            return out
        finally:
            self._unpin()

    def _plan_selector(self, mapset: MapSet, interval: Interval):
        """One query plan's map accessor: leader cracks, followers resolve.

        Without progressive state this is the classic per-map ``select``
        (bit-identical behavior and tape).  With a budget, only the first
        access spends it; later maps of the same plan replay the leader's
        taped work and resolve the identical window, so one query costs one
        budget however many maps it touches.
        """
        if not mapset.progressive_active:
            def _legacy(attr: str):
                cmap, lo, hi = mapset.select(attr, interval)
                return cmap, lo, hi, []
            return _legacy

        state = {"first": True}

        def _progressive(attr: str):
            if state["first"]:
                state["first"] = False
                return mapset.select_window(attr, interval)
            return mapset.window_of(attr, interval)

        return _progressive

    def _gather(
        self,
        cmap,
        lo: int,
        hi: int,
        holes: list[tuple[int, int]],
        interval: Interval,
    ) -> np.ndarray:
        """Tail values qualifying ``interval``: certain window + holes.

        Hole positions are undecided by position alone; their head values
        are filtered explicitly.  Every aligned map yields the same hole
        masks, so concatenation order is positionally consistent across the
        maps of one plan.
        """
        if not holes:
            return cmap.tail[lo:hi]
        parts = [cmap.tail[lo:hi]]
        for h_lo, h_hi in holes:
            self._recorder.sequential(2 * (h_hi - h_lo))
            qual = interval.mask(cmap.head[h_lo:h_hi])
            parts.append(cmap.tail[h_lo:h_hi][qual])
        return np.concatenate(parts)

    # -- multi-selection plans (Section 3.3) --------------------------------------------

    def query(
        self,
        predicates: dict[str, Interval],
        projections: list[str],
        conjunctive: bool = True,
        head_attr: str | None = None,
    ) -> dict[str, np.ndarray]:
        """A full multi-selection / multi-projection sideways plan.

        Returns positionally aligned projection arrays of the qualifying
        tuples.  ``head_attr`` overrides the histogram-driven map-set choice
        (used by the ablation benchmarks).
        """
        if head_attr is None:
            head_attr = self.choose_head(predicates, conjunctive)
        if head_attr not in predicates:
            raise PlanError(f"head attribute {head_attr!r} has no predicate")
        tails = [a for a in predicates if a != head_attr] + list(projections)
        self._pin(head_attr, tails)
        try:
            if conjunctive:
                return self._conjunctive(head_attr, predicates, projections)
            return self._disjunctive(head_attr, predicates, projections)
        finally:
            self._unpin()

    def _conjunctive(
        self, head_attr: str, predicates: dict[str, Interval], projections: list[str]
    ) -> dict[str, np.ndarray]:
        mapset = self.set_for(head_attr)
        head_interval = predicates[head_attr]
        others = [(a, iv) for a, iv in predicates.items() if a != head_attr]

        selector = self._plan_selector(mapset, head_interval)
        bv: BitVector | None = None
        area: tuple | None = None
        # select_create_bv on the first non-head predicate, select_refine_bv
        # on the rest.
        for attr, iv in others:
            cmap, lo, hi, holes = selector(attr)
            area = (lo, hi, tuple(holes))
            self._recorder.sequential(hi - lo)
            mask = iv.mask(self._gather(cmap, lo, hi, holes, head_interval))
            if bv is None:
                bv = BitVector.from_mask(mask)
            else:
                bv.refine_and(mask)

        out: dict[str, np.ndarray] = {}
        for attr in projections:
            cmap, lo, hi, holes = selector(attr)
            if area is not None and (lo, hi, tuple(holes)) != area:
                raise PlanError("aligned maps disagree on the candidate area")
            area = (lo, hi, tuple(holes))
            self._recorder.sequential(hi - lo)
            values = self._gather(cmap, lo, hi, holes, head_interval)
            out[attr] = values[bv.bits] if bv is not None else values.copy()
        return out

    def _disjunctive(
        self, head_attr: str, predicates: dict[str, Interval], projections: list[str]
    ) -> dict[str, np.ndarray]:
        mapset = self.set_for(head_attr)
        head_interval = predicates[head_attr]
        others = [(a, iv) for a, iv in predicates.items() if a != head_attr]

        selector = self._plan_selector(mapset, head_interval)
        bv: BitVector | None = None
        for attr, iv in others:
            cmap, lo, hi, holes = selector(attr)
            if bv is None:
                bv = BitVector(len(cmap))
                bv.set_range(lo, hi)
                # Hole positions qualifying the head predicate are result
                # tuples regardless of the other predicates.
                for h_lo, h_hi in holes:
                    self._recorder.sequential(h_hi - h_lo)
                    bv.bits[h_lo:h_hi] |= head_interval.mask(cmap.head[h_lo:h_hi])
            # Only the areas outside w can contain additional qualifiers
            # (holes lie outside w and are covered by these two scans).
            self._recorder.sequential(len(cmap) - (hi - lo))
            bv.bits[:lo] |= iv.mask(cmap.tail[:lo])
            bv.bits[hi:] |= iv.mask(cmap.tail[hi:])

        out: dict[str, np.ndarray] = {}
        for attr in projections:
            cmap, lo, hi, holes = selector(attr)
            if bv is None:
                # Degenerate: a single-predicate "disjunction".
                self._recorder.sequential(hi - lo)
                out[attr] = self._gather(cmap, lo, hi, holes, head_interval).copy()
            else:
                self._recorder.sequential(len(cmap))
                out[attr] = cmap.tail[bv.bits]
        return out

    # -- bookkeeping -----------------------------------------------------------------------

    def storage_tuples(self) -> int:
        return sum(s.storage_tuples() for s in self.sets.values())

    def describe_state(self) -> str:
        """A human-readable summary of the self-organized state."""
        lines = [f"sideways cracker over {self.relation.name!r}: "
                 f"{len(self.sets)} map set(s), "
                 f"{self.storage_tuples():,} tuples of auxiliary storage"]
        if is_stochastic(self.policy):
            lines.append(f"  crack policy: {self.policy.describe()}")
        for head, mapset in sorted(self.sets.items()):
            lines.append(
                f"  set S_{head}: {len(mapset.maps)} map(s), "
                f"tape length {len(mapset.tape)}, "
                f"{mapset.pending.insertion_count} pending insert(s), "
                f"{mapset.pending.deletion_count} pending delete(s)"
                + (
                    f", {mapset.stochastic_cuts} stochastic cut(s)"
                    if is_stochastic(self.policy)
                    else ""
                )
            )
            for tail, cmap in sorted(mapset.maps.items()):
                behind = len(mapset.tape) - cmap.cursor
                lines.append(
                    f"    M_{head},{tail}: {len(cmap):,} tuples, "
                    f"{cmap.index.piece_count} pieces, "
                    f"{cmap.accesses} accesses, {behind} entries behind"
                )
        return "\n".join(lines)
