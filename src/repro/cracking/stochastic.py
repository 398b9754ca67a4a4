"""Stochastic cracking policies (Halim, Idreos, Karras, Yap, VLDB 2012).

Query-driven cracking takes every partition boundary from a query predicate,
so adversarial sequences — sequential sweeps, zoom-ins — keep cracking one
huge leftover piece and degenerate to a near-full scan per query.  The fix is
to inject *auxiliary* cuts that depend on the data rather than the query:

``DDC``
    Data-Driven Center: before cracking at the query bound, recursively cut
    the enclosing piece at its value-range center until the piece holding
    the bound is at most ``min_piece`` tuples.  Heavy first queries, strong
    convergence, and the fastest median wall clock of the family on most
    exp14 patterns.
``MDD1R``
    Materialized DD1R: one random cut and the query-bound crack are *fused
    into a single partition pass* (``crack_three``), so robustness costs no
    extra scan at all.  It touches the fewest bytes of the family.
``QueryDriven``
    The original behavior, kept as an explicit (default) policy.

Halim et al. reach MDD1R through DDR, DD1C and DD1R.  Each of those touches
more bytes than DDC on every exp14 pattern and is no faster beyond the
spread of the runs (``docs/stochastic.md``), so none of them is kept.

Determinism and tape replay
---------------------------
Policies draw pivots from an explicit seeded :class:`numpy.random.Generator`
owned by the column / map set, and *only at primary crack sites* (the first
time a structure cracks for a bound).  Every auxiliary cut is reported
through ``cut_sink`` so the owner can log it as its own one-sided
:class:`~repro.core.tape.CrackEntry` ahead of the query's entry.  Replays —
sibling-map alignment, chunk head recovery — therefore never touch the RNG:
they apply logged bounds with the same stable kernels, reproducing the exact
permutation.  (Stable two-way partitions commute: cracking a set of bounds
yields the same arrangement in any order, which is why a fused
``crack_three`` may be replayed as two ``crack_two`` entries.)

Every auxiliary cut is charged to the :class:`StatsRecorder` (``dd_cuts``,
``random_cracks``, and a per-policy ``policy_cuts`` breakdown) on top of the
partition-pass element touches, so the cost model sees the investment.
"""

from __future__ import annotations

import abc
import zlib
from typing import Sequence

import numpy as np

from repro.cracking.bounds import Bound, Side
from repro.cracking.index import CrackerIndex
from repro.cracking.kernels import crack_three, crack_two
from repro.errors import PlanError
from repro.stats.counters import StatsRecorder
from repro.stats.memory_model import MemoryModel, DEFAULT_MODEL


def default_min_piece(model: MemoryModel | None = None) -> int:
    """Smallest piece auxiliary cuts still target, derived from the cache.

    Pieces at or below this size are cracked purely query-driven: once a
    piece is a small fraction of the cache (1/16th — head and tail of
    several such pieces co-resident), further data-driven cuts cannot
    reduce memory traffic, they only add boundary bookkeeping.  The
    ``min_piece`` constructor argument of :class:`CrackPolicy` overrides
    the derivation; ``bench.micro``'s sensitivity sweep measures how flat
    the optimum is around this default.
    """
    model = model or DEFAULT_MODEL
    return max(1, model.cache_elements // 16)


#: Derived default for the standard memory model (see
#: :func:`default_min_piece`); kept as a module constant so tests and docs
#: have a stable name for "the default".
DEFAULT_MIN_PIECE = default_min_piece()


def account_partition(recorder: StatsRecorder, width: int, n_arrays: int) -> None:
    """Charge one partition pass over ``width`` elements of ``n_arrays`` arrays."""
    recorder.sequential(width * n_arrays)
    recorder.write(width * n_arrays)


def policy_rng(seed: int, *tags: object) -> np.random.Generator:
    """A stable per-structure generator derived from a base seed and tags.

    Uses ``crc32`` (not ``hash``, which is salted per process) so the same
    ``(seed, tags)`` always yields the same stream — the seed-to-permutation
    mapping is pinned by regression tests.
    """
    words = [seed & 0xFFFFFFFF] + [zlib.crc32(str(t).encode()) for t in tags]
    return np.random.default_rng(words)


class CrackPolicy(abc.ABC):
    """Strategy deciding how a fresh crack of one piece is performed.

    ``crack_piece`` replaces the plain ``crack_two`` step of
    :func:`repro.cracking.crack.crack_bound`: it may perform auxiliary cuts
    (inserting them into ``index`` and appending their bounds to
    ``cut_sink``) before partitioning at the query ``bound``, and returns the
    bound's split position.  The caller inserts ``bound`` itself.
    """

    name = "abstract"
    is_query_driven = False

    def __init__(self, min_piece: int | None = None) -> None:
        self.min_piece = default_min_piece() if min_piece is None else int(min_piece)

    @abc.abstractmethod
    def crack_piece(
        self,
        index: CrackerIndex,
        head: np.ndarray,
        tails: Sequence[np.ndarray],
        lo: int,
        hi: int,
        bound: Bound,
        rng: np.random.Generator,
        recorder: StatsRecorder,
        cut_sink: list[Bound] | None,
    ) -> int:
        """Crack ``head[lo:hi)`` so ``bound`` becomes a boundary; return its split."""

    def describe(self) -> str:
        return f"{self.name} (min_piece={self.min_piece})"

    def __repr__(self) -> str:
        return f"{type(self).__name__}(min_piece={self.min_piece})"

    # -- shared steps ---------------------------------------------------------

    def _final(
        self,
        head: np.ndarray,
        tails: Sequence[np.ndarray],
        lo: int,
        hi: int,
        bound: Bound,
        recorder: StatsRecorder,
    ) -> int:
        """The query-driven crack that ends every policy's work on a piece."""
        split = crack_two(head, tails, lo, hi, bound)
        account_partition(recorder, hi - lo, 1 + len(tails))
        recorder.event("cracks")
        return split

    def _random_pivot(
        self,
        head: np.ndarray,
        lo: int,
        hi: int,
        rng: np.random.Generator,
        recorder: StatsRecorder,
    ) -> Bound:
        """A pivot equal to a randomly picked element of the piece."""
        pos = int(rng.integers(lo, hi))
        recorder.random(1, hi - lo)
        return Bound(float(head[pos]), Side.LE)

    def _usable(self, index: CrackerIndex, pivot: Bound | None, bound: Bound) -> bool:
        """A pivot must be fresh and distinct from the query bound."""
        return (
            pivot is not None
            and pivot != bound
            and index.position_of(pivot) is None
        )


class QueryDriven(CrackPolicy):
    """The original behavior: boundaries come only from query predicates."""

    name = "query_driven"
    is_query_driven = True

    def crack_piece(self, index, head, tails, lo, hi, bound, rng, recorder, cut_sink):
        return self._final(head, tails, lo, hi, bound, recorder)

    def describe(self) -> str:
        return self.name


class DDC(CrackPolicy):
    """Data-Driven Center: recursive midpoint cuts down to ``min_piece``."""

    name = "ddc"

    def crack_piece(self, index, head, tails, lo, hi, bound, rng, recorder, cut_sink):
        while hi - lo > self.min_piece:
            pivot = self._center_pivot(head, lo, hi, recorder)
            if not self._usable(index, pivot, bound):
                break
            split = self._cut(index, head, tails, lo, hi, pivot, recorder, cut_sink)
            if split is None:
                break
            if bound < pivot:
                hi = split
            else:
                lo = split
        return self._final(head, tails, lo, hi, bound, recorder)

    def _center_pivot(
        self, head: np.ndarray, lo: int, hi: int, recorder: StatsRecorder
    ) -> Bound | None:
        """The value-range midpoint of the piece (one extra scan to find it)."""
        seg = head[lo:hi]
        recorder.sequential(hi - lo)
        mn = seg.min()
        mx = seg.max()
        if mn == mx:
            return None
        return Bound(float(mn + (mx - mn) / 2), Side.LE)

    def _cut(
        self,
        index: CrackerIndex,
        head: np.ndarray,
        tails: Sequence[np.ndarray],
        lo: int,
        hi: int,
        pivot: Bound,
        recorder: StatsRecorder,
        cut_sink: list[Bound] | None,
    ) -> int | None:
        """One auxiliary cut at ``pivot``; ``None`` if it made no progress.

        Degenerate pivots (everything on one side) are not registered — the
        pass is still charged, but no boundary, tape entry, or event is
        produced, so replays stay exact.
        """
        split = crack_two(head, tails, lo, hi, pivot)
        account_partition(recorder, hi - lo, 1 + len(tails))
        if split <= lo or split >= hi:
            return None
        index.insert(pivot, split)
        if cut_sink is not None:
            cut_sink.append(pivot)
        recorder.event("dd_cuts")
        recorder.policy_cut(self.name)
        return split


class MDD1R(CrackPolicy):
    """Materialized DD1R: random cut fused with the query crack in one pass.

    A single stable ``crack_three`` partitions the piece around both the
    random pivot and the query bound, so the auxiliary cut is free — the
    piece was being scanned anyway.  Replay logs the pivot as its own entry;
    stability makes two sequential ``crack_two`` replays land on the exact
    same permutation as the fused pass.
    """

    name = "mdd1r"

    def crack_piece(self, index, head, tails, lo, hi, bound, rng, recorder, cut_sink):
        if hi - lo <= self.min_piece:
            return self._final(head, tails, lo, hi, bound, recorder)
        pivot = self._random_pivot(head, lo, hi, rng, recorder)
        if not self._usable(index, pivot, bound):
            return self._final(head, tails, lo, hi, bound, recorder)
        lower, upper = (pivot, bound) if pivot < bound else (bound, pivot)
        p1, p2 = crack_three(head, tails, lo, hi, lower, upper)
        account_partition(recorder, hi - lo, 1 + len(tails))
        recorder.event("cracks")
        pivot_pos, bound_pos = (p1, p2) if pivot < bound else (p2, p1)
        if lo < pivot_pos < hi:
            index.insert(pivot, pivot_pos)
            if cut_sink is not None:
                cut_sink.append(pivot)
            recorder.event("dd_cuts")
            recorder.event("random_cracks")
            recorder.policy_cut(self.name)
        return bound_pos


POLICIES: dict[str, type[CrackPolicy]] = {
    cls.name: cls for cls in (QueryDriven, DDC, MDD1R)
}

POLICY_NAMES = tuple(POLICIES) + ("auto",)


def resolve_policy(
    policy: "CrackPolicy | str | None", min_piece: int | None = None
) -> CrackPolicy | None:
    """Normalize a policy spec: instance, name, or ``None`` (query-driven).

    ``min_piece`` overrides the cache-derived default when the policy is
    constructed from a name; an already-built instance keeps its own value.
    Each policy has one spelling (case-insensitive, ``-`` read as ``_``);
    any other name raises :class:`PlanError` listing :data:`POLICY_NAMES`.
    ``"auto"`` resolves to the workload-adaptive selector from
    :mod:`repro.cracking.adaptive` (imported lazily — that module depends
    on this one).
    """
    if policy is None or isinstance(policy, CrackPolicy):
        return policy
    if isinstance(policy, str):
        name = policy.strip().lower().replace("-", "_")
        if name == "auto":
            from repro.cracking.adaptive import AdaptivePolicy

            return AdaptivePolicy(min_piece=min_piece)
        cls = POLICIES.get(name)
        if cls is None:
            raise PlanError(
                f"unknown crack policy {policy!r}; choose one of "
                f"{', '.join(POLICY_NAMES)}"
            )
        return cls(min_piece=min_piece)
    raise PlanError(f"cannot interpret {policy!r} as a crack policy")


def is_stochastic(policy: CrackPolicy | None) -> bool:
    """Does ``policy`` inject auxiliary cuts (i.e. need tape logging)?"""
    return policy is not None and not policy.is_query_driven
