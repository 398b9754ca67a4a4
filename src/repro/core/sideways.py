"""The sideways-cracking operator suite (Section 3) and its full-map facade.

:class:`SidewaysFacade` owns the paper's operators, written once:

* ``sideways.select`` — single selection, one projection per map
  (:meth:`SidewaysFacade.select_project`);
* ``sideways.select_create_bv`` / ``select_refine_bv`` / ``reconstruct`` —
  conjunctive multi-selection plans over one *aligned* map set, filtering
  false candidates with a bit vector (:meth:`SidewaysFacade.query`);
* the symmetric disjunctive plan;
* map-set choice driven by the cracker indices acting as self-organizing
  histograms (most selective predicate for conjunctions, least selective for
  disjunctions).

The operators run over *prepared areas* (:data:`PreparedArea`) and do not
know how a map is chunked (Section 4: "every operator handles one area at a
time").  A facade supplies only :meth:`SidewaysFacade._plan`, which opens a
plan and yields its areas: :class:`SidewaysCracker` (full maps) yields one,
:class:`~repro.core.partial.engine.PartialSidewaysCracker` one per
chunk-map area.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import ContextManager, Iterable, Iterator

import numpy as np

from repro.core.bitvector import BitVector
from repro.core.histogram import estimate_result_size
from repro.core.map import KEY_TAIL, CrackedPair
from repro.core.mapset import FullMapStorage, MapSet
from repro.cracking.bounds import Interval
from repro.cracking.index import CrackerIndex
from repro.cracking.progressive import parse_budget
from repro.cracking.stochastic import CrackPolicy, is_stochastic, policy_rng
from repro.errors import PlanError
from repro.stats.counters import StatsRecorder, global_recorder
from repro.storage.relation import Relation

#: A hole of a prepared area: positions ``[h_lo, h_hi)`` a progressive budget
#: left undecided, with the head predicate already evaluated on them.
Hole = tuple[int, int, np.ndarray]

#: What a plan runs over: ``(pairs, lo, hi, holes)``.  ``pairs`` maps each
#: tail attribute of the plan to its :class:`CrackedPair`, all mutually
#: aligned (identical head order), so ``[lo, hi)`` — the certain window of
#: the head predicate — and the hole masks apply position-wise to every one.
PreparedArea = tuple[dict[str, CrackedPair], int, int, list[Hole]]


def qualify_holes(
    recorder: StatsRecorder,
    head: np.ndarray,
    holes: list[tuple[int, int]],
    interval: Interval,
) -> list[Hole]:
    """Evaluate the head predicate on an area's hole rows, once per area."""
    qualified = []
    for h_lo, h_hi in holes:
        recorder.sequential(h_hi - h_lo)
        qualified.append((h_lo, h_hi, interval.mask(head[h_lo:h_hi])))
    return qualified


def _concat(parts: list[np.ndarray]) -> np.ndarray:
    """One array the caller owns; a lone part that already is one is kept."""
    if not parts:
        return np.empty(0, dtype=np.int64)
    if len(parts) > 1:
        return np.concatenate(parts)
    return parts[0] if parts[0].flags.owndata else parts[0].copy()


class SidewaysFacade:
    """What the full-map and the partial-map facade share: everything but
    the maps.

    The operator suite (:meth:`select_project`, :meth:`query`), update
    fan-out to every existing map set, and map-set choice driven by the
    cracker indices acting as self-organizing histograms.  Subclasses own
    ``sets`` (head attribute -> map set), open a plan over them
    (:meth:`_plan`) and say which index is the histogram of an attribute
    (:meth:`_histogram`).
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

    # -- the operator suite (Sections 3.2 and 3.3) -------------------------------------

    def select_project(
        self, head_attr: str, interval: Interval, projections: list[str]
    ) -> dict[str, np.ndarray]:
        """``select p1, .., pk from R where interval(head_attr)``.

        One ``sideways.select`` per projection; adaptive alignment keeps the
        result slices positionally aligned across maps.
        """
        return self._run(head_attr, interval, [], projections, True)

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
        others = [(a, iv) for a, iv in predicates.items() if a != head_attr]
        return self._run(
            head_attr, predicates[head_attr], others, projections, conjunctive
        )

    def _plan(
        self, head_attr: str, interval: Interval, attrs: list[str], everything: bool
    ) -> ContextManager[Iterable[PreparedArea]]:
        """Open a plan on ``S_head_attr`` over the tail attributes ``attrs``.

        Entering yields the prepared areas in value order, each with the
        certain window of ``interval`` and its qualified holes; with
        ``everything`` the areas cover the whole relation (those outside
        ``w`` report the empty window).  An area may be prepared only when
        the evaluator reaches it.  Leaving releases whatever the plan pinned.
        """
        raise NotImplementedError

    def _run(
        self,
        head_attr: str,
        interval: Interval,
        others: list[tuple[str, Interval]],
        projections: list[str],
        conjunctive: bool,
    ) -> dict[str, np.ndarray]:
        """Evaluate one plan: ``interval`` on the head, ``others`` on tails.

        Results are materialized before the plan closes — closing may sort
        or drop what they were gathered from — and never alias a live tail.
        """
        attrs = list(dict.fromkeys([a for a, _ in others] + list(projections)))
        if not attrs:
            return {}
        parts: dict[str, list[np.ndarray]] = {attr: [] for attr in projections}
        with self._plan(head_attr, interval, attrs, not conjunctive) as areas:
            for pairs, lo, hi, holes in areas:
                if conjunctive:
                    # select_create_bv on the first non-head predicate,
                    # select_refine_bv on the rest, reconstruct through it.
                    bv: BitVector | None = None
                    for attr, iv in others:
                        mask = iv.mask(self._gather(pairs[attr], lo, hi, holes))
                        if bv is None:
                            bv = BitVector.from_mask(mask)
                        else:
                            bv.refine_and(mask)
                    for attr, found in parts.items():
                        values = self._gather(pairs[attr], lo, hi, holes)
                        found.append(values if bv is None else values[bv.bits])
                else:
                    # w and the qualifying hole rows are results whatever
                    # the other predicates say; only the rows outside w can
                    # add qualifiers (holes lie outside w, so the two scans
                    # cover them).
                    bv = BitVector(len(pairs[attrs[0]]))
                    bv.set_range(lo, hi)
                    for h_lo, h_hi, qualifies in holes:
                        bv.bits[h_lo:h_hi] |= qualifies
                    for attr, iv in others:
                        tail = pairs[attr].tail
                        self._recorder.sequential(len(tail) - (hi - lo))
                        bv.bits[:lo] |= iv.mask(tail[:lo])
                        bv.bits[hi:] |= iv.mask(tail[hi:])
                    for attr, found in parts.items():
                        tail = pairs[attr].tail
                        self._recorder.sequential(len(tail))
                        found.append(tail[bv.bits])
            return {attr: _concat(found) for attr, found in parts.items()}

    def _gather(
        self, pair: CrackedPair, lo: int, hi: int, holes: list[Hole]
    ) -> np.ndarray:
        """Tail values of the certain window plus every qualifying hole row.

        Gathering in (window, hole, hole, ...) order with the area's shared
        hole masks keeps the rows of different attributes aligned with each
        other.  Without holes the result is a view of the live tail.
        """
        self._recorder.sequential(hi - lo)
        if not holes:
            return pair.tail[lo:hi]
        parts = [pair.tail[lo:hi]]
        for h_lo, h_hi, qualifies in holes:
            self._recorder.sequential(h_hi - h_lo)
            parts.append(pair.tail[h_lo:h_hi][qualifies])
        return np.concatenate(parts)

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
    """Sideways cracking (full maps) over one relation.

    A full map set is the one-area case of the chunk-wise plan: the whole
    map is the area, and every map of the plan reports the same window.
    """

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

    # -- the plan: one area, the whole map -------------------------------------------

    @contextmanager
    def _plan(
        self, head_attr: str, interval: Interval, attrs: list[str], everything: bool
    ) -> Iterator[list[PreparedArea]]:
        """``sideways.select`` on every map of the plan; adaptive alignment
        makes them agree on the window, which is checked."""
        mapset = self.set_for(head_attr)
        if self._storage is not None:
            # Protect the running plan's maps (and ``M_Akey``) from eviction.
            self._storage.pin({(head_attr, attr) for attr in (*attrs, KEY_TAIL)})
        try:
            if everything:
                # The rows outside ``w`` are read too: no update may stay
                # pending anywhere, not only inside the head interval.
                mapset.merge_pending()
            selector = self._plan_selector(mapset, interval)
            pairs: dict[str, CrackedPair] = {}
            window = None
            for attr in attrs:
                cmap, lo, hi, holes = selector(attr)
                if pairs and (lo, hi, holes) != window:
                    raise PlanError("aligned maps disagree on the candidate area")
                window = (lo, hi, holes)
                pairs[attr] = cmap
            yield [(
                pairs, lo, hi,
                qualify_holes(self._recorder, cmap.head, holes, interval),
            )]
        finally:
            if self._storage is not None:
                self._storage.unpin()

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
