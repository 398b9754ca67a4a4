"""The shared range-cracking routine.

``crack_into`` is the single code path through which cracker columns, cracker
maps, and partial-map chunks physically reorganize themselves.  Having one
deterministic implementation is what makes tape replay produce identical
permutations everywhere (see :mod:`repro.cracking.kernels`).

A :class:`~repro.cracking.stochastic.CrackPolicy` may be threaded through to
inject data-driven auxiliary cuts at *fresh* crack sites (stochastic
cracking).  Replay paths never pass a policy: auxiliary cuts performed at
primary sites are logged to the owner's tape as ordinary crack entries, so
replays are policy-free and deterministic.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.cracking.bounds import Bound, Interval
from repro.cracking.index import CrackerIndex
from repro.cracking.kernels import crack_three, crack_two, sort_piece
from repro.cracking.progressive import (
    CrackProgress,
    PendingCrack,
    pending_in_piece,
    progressive_step,
    resolve_area,
)
from repro.cracking.stochastic import CrackPolicy, account_partition, is_stochastic
from repro.faults.plan import fault_hook
from repro.stats.counters import StatsRecorder, global_recorder


def _account_partition(
    recorder: StatsRecorder, width: int, n_arrays: int
) -> None:
    """Charge a partition pass over ``width`` elements of ``n_arrays`` arrays."""
    account_partition(recorder, width, n_arrays)
    recorder.event("cracks")


def _wants_progress(progress: CrackProgress | None) -> bool:
    """Does the context require the budget-aware path?

    Only when a budget is being tracked, pendings are in flight, or the
    operation already logged an op — otherwise the classic eager path runs
    unchanged (zero overhead, and bit-identical tapes for unbudgeted
    structures).  The last case matters once a bound drained the pendings:
    the next bound's crack must still reach ``progress.ops``, or the owner's
    tape would miss it.
    """
    return progress is not None and (
        bool(progress.pending) or progress.tracker is not None or bool(progress.ops)
    )


def crack_bound(
    index: CrackerIndex,
    head: np.ndarray,
    tails: Sequence[np.ndarray],
    bound: Bound,
    recorder: StatsRecorder | None = None,
    policy: CrackPolicy | None = None,
    rng: np.random.Generator | None = None,
    cut_sink: list[Bound] | None = None,
    progress: CrackProgress | None = None,
) -> int | None:
    """Ensure ``bound`` is a piece boundary; crack its piece if it is not.

    Returns the boundary's position.  With a stochastic ``policy``, the
    fresh crack may perform auxiliary cuts first (reported via ``cut_sink``).
    With a budget-tracking ``progress`` context the crack may instead be
    performed *partially* (or not at all once the budget is spent); the
    return value is then ``None`` when the bound did not become a boundary —
    consult :func:`~repro.cracking.progressive.resolve_area` for the certain
    window and the uncertainty holes.
    """
    fault_hook("crack.crack_bound")
    recorder = recorder or global_recorder()
    recorder.event("index_lookups")
    pos = index.position_of(bound)
    if pos is not None:
        return pos
    lo, hi = index.enclosing(bound, len(head))
    if policy is not None and hasattr(policy, "observe"):
        policy.observe(index, bound, lo, hi, len(head))
    if _wants_progress(progress):
        return _progressive_bound(
            index, head, tails, bound, recorder, policy, rng, cut_sink, progress
        )
    if is_stochastic(policy):
        split = policy.crack_piece(
            index, head, tails, lo, hi, bound, rng, recorder, cut_sink
        )
    else:
        split = crack_two(head, tails, lo, hi, bound)
        _account_partition(recorder, hi - lo, 1 + len(tails))
    index.insert(bound, split)
    return split


def _progressive_bound(
    index: CrackerIndex,
    head: np.ndarray,
    tails: Sequence[np.ndarray],
    bound: Bound,
    recorder: StatsRecorder,
    policy: CrackPolicy | None,
    rng: np.random.Generator | None,
    cut_sink: list[Bound] | None,
    progress: CrackProgress,
) -> int | None:
    """The budget-aware twin of the ``crack_bound`` body.

    Invariant: a piece holding a pending crack is never cracked at another
    bound — the pending is resumed first, with whatever budget is left.
    Fresh bounds are cracked eagerly (policy-assisted) when the remaining
    budget covers the whole piece, and progressively (one step, no auxiliary
    cuts) otherwise.  Every step is appended to ``progress.ops`` so the owner
    can log matching tape entries.
    """
    n = len(head)
    while True:
        pos = index.position_of(bound)
        if pos is not None:
            return pos
        lo, hi = index.enclosing(bound, n)
        p = pending_in_piece(progress.pending, lo, hi)
        if p is None:
            remaining = progress.remaining()
            if remaining >= hi - lo:
                # Auxiliary cuts are collected per-op (not straight into
                # ``cut_sink``) so owners can tape them in temporal order
                # relative to surrounding step entries.
                op_cuts: list[Bound] = []
                if is_stochastic(policy):
                    split = policy.crack_piece(
                        index, head, tails, lo, hi, bound, rng, recorder, op_cuts
                    )
                else:
                    split = crack_two(head, tails, lo, hi, bound)
                    _account_partition(recorder, hi - lo, 1 + len(tails))
                index.insert(bound, split)
                progress.consume(hi - lo)
                progress.ops.append(("eager", bound, tuple(op_cuts)))
                if cut_sink is not None:
                    cut_sink.extend(op_cuts)
                return split
            if remaining < 1:
                return None
            p = PendingCrack(bound, lo, hi, lo, hi)
            progress.pending[bound] = p
        k = int(min(progress.remaining(), p.right - p.left))
        if k < 1:
            return None
        progressive_step(head, tails, p, k, recorder)
        progress.consume(k)
        if p.done:
            index.insert(p.bound, p.left)
            del progress.pending[p.bound]
            recorder.event("cracks")
            progress.ops.append(("step", p.bound, k, True))
            if is_stochastic(policy) and rng is not None:
                _queue_aux_pending(
                    index, head, tails, bound, p, policy, rng, recorder, progress
                )
            # Loop: either p.bound was the requested bound (now a boundary)
            # or the piece is free for it — retry with the leftover budget.
        else:
            # k < window only happens when the budget ran dry.
            progress.ops.append(("step", p.bound, k, False))
            return None


def _queue_aux_pending(
    index: CrackerIndex,
    head: np.ndarray,
    tails: Sequence[np.ndarray],
    bound: Bound,
    completed: PendingCrack,
    policy: CrackPolicy,
    rng: np.random.Generator,
    recorder: StatsRecorder,
    progress: CrackProgress,
) -> None:
    """Queue the stochastic follow-up cut of a finished progressive crack.

    Eager stochastic policies inject a data-driven cut alongside every query
    crack; on the progressive path the piece is usually larger than any
    single query's allowance, so the cut is queued as its own pending (in
    the larger remnant of the just-finished crack) and resolved by later
    queries' budgets.  This is what keeps budgeted stochastic cracking
    convergent on adversarial workloads: random cuts still reach pieces the
    budget can never crack eagerly.
    """
    if progress.remaining() < 1:
        return
    split = completed.left
    halves = ((completed.lo, split), (split, completed.hi))
    a_lo, a_hi = max(halves, key=lambda half: half[1] - half[0])
    if a_hi - a_lo <= policy.min_piece:
        return
    if pending_in_piece(progress.pending, a_lo, a_hi) is not None:
        return
    pivot = policy._random_pivot(head, a_lo, a_hi, rng, recorder)
    if not policy._usable(index, pivot, bound) or pivot in progress.pending:
        return
    aux = PendingCrack(pivot, a_lo, a_hi, a_lo, a_hi)
    progress.pending[pivot] = aux
    recorder.event("dd_cuts")
    recorder.event("random_cracks")
    recorder.policy_cut(policy.name)
    # One minimal step puts the pending on the owner's tape; whatever
    # budget the current query has left flows into it through the normal
    # resume path on the next enclosing lookup.
    progressive_step(head, tails, aux, 1, recorder)
    progress.consume(1)
    progress.ops.append(("step", pivot, 1, aux.done))


def crack_into(
    index: CrackerIndex,
    head: np.ndarray,
    tails: Sequence[np.ndarray],
    interval: Interval,
    recorder: StatsRecorder | None = None,
    policy: CrackPolicy | None = None,
    rng: np.random.Generator | None = None,
    cut_sink: list[Bound] | None = None,
    progress: CrackProgress | None = None,
) -> tuple[int, int]:
    """Physically cluster the tuples qualifying ``interval`` into one area.

    Cracks the enclosing piece(s) as needed (crack-in-three when both new
    bounds fall into the same piece, crack-in-two otherwise) and returns the
    contiguous qualifying area ``[w_lo, w_hi)``.  A stochastic ``policy``
    routes both bounds through the policy-assisted :func:`crack_bound` so
    each fresh crack can inject auxiliary cuts.

    With a budget-tracking ``progress`` context, each bound may be resolved
    only partially; the return value is then the largest *certain* window and
    ``progress.holes`` lists the position ranges whose membership is still
    undecided (callers qualify them against head values).
    """
    recorder = recorder or global_recorder()
    n = len(head)
    lower = interval.lower_bound()
    upper = interval.upper_bound()

    if _wants_progress(progress):
        for bound in (lower, upper):
            if bound is not None:
                crack_bound(
                    index, head, tails, bound, recorder, policy, rng,
                    cut_sink, progress,
                )
        w_lo, w_hi, progress.holes = resolve_area(
            index, n, interval, progress.pending
        )
        return w_lo, w_hi

    if lower is not None and upper is not None:
        recorder.event("index_lookups", 2)
        lo_pos = index.position_of(lower)
        hi_pos = index.position_of(upper)
        if lo_pos is None and hi_pos is None and not is_stochastic(policy):
            piece_lo_l, piece_hi_l = index.enclosing(lower, n)
            piece_lo_u, piece_hi_u = index.enclosing(upper, n)
            if (piece_lo_l, piece_hi_l) == (piece_lo_u, piece_hi_u):
                p1, p2 = crack_three(
                    head, tails, piece_lo_l, piece_hi_l, lower, upper
                )
                _account_partition(recorder, piece_hi_l - piece_lo_l, 1 + len(tails))
                index.insert(lower, p1)
                index.insert(upper, p2)
                return p1, p2
        w_lo = lo_pos if lo_pos is not None else crack_bound(
            index, head, tails, lower, recorder, policy, rng, cut_sink
        )
        w_hi = hi_pos if hi_pos is not None else crack_bound(
            index, head, tails, upper, recorder, policy, rng, cut_sink
        )
        return w_lo, w_hi

    w_lo = 0
    w_hi = n
    if lower is not None:
        w_lo = crack_bound(index, head, tails, lower, recorder, policy, rng, cut_sink)
    if upper is not None:
        w_hi = crack_bound(index, head, tails, upper, recorder, policy, rng, cut_sink)
    return w_lo, w_hi


# ---------------------------------------------------------------------------
# Gang replay: one shared permutation for every same-cursor sibling.
# ---------------------------------------------------------------------------
#
# Sibling maps / chunks standing at the same tape cursor hold bit-identical
# head arrays (the `aligned-head-equality` invariant), so replaying a crack
# entry computes the *same* permutation on each of them.  Gang replay
# exploits that: the leader cracks once with every follower's head and tail
# passed as extra tails, then the new boundaries are mirrored into the
# followers' indexes at the leader's positions.  Work charged to the
# recorder is identical to replaying each member individually (the partition
# pass covers 2·k arrays either way); the saved work — one mask + one
# permutation instead of k — is real wall-clock, not model cost.


def gang_replay_crack(
    members: Sequence,
    interval: Interval,
    recorder: StatsRecorder | None = None,
) -> None:
    """Replay one crack entry over same-cursor siblings via a shared permutation.

    ``members`` need ``.head`` / ``.tail`` / ``.index`` attributes (cracker
    maps and partial-map chunks both qualify) and must all stand at the tape
    position of the entry being replayed, with bit-identical heads.  Replay
    is policy-free, exactly like :meth:`CrackerMap.replay_entry`.
    """
    gang_replay_cracks(members, (interval,), recorder)


def gang_replay_cracks(
    members: Sequence,
    intervals: Sequence[Interval],
    recorder: StatsRecorder | None = None,
) -> None:
    """Replay a *run* of consecutive crack entries over same-cursor siblings.

    The batched form of :func:`gang_replay_crack`: the followers' extra-tail
    list is assembled once and every interval of the run is cracked through
    the same co-array set in one pass — the arena scratch buffers stay hot
    and the per-entry Python dispatch is paid once per *run* instead of once
    per entry per member.  Entries are applied in tape order (later cracks
    may subdivide pieces earlier ones created) and each new boundary is
    mirrored into the followers' indexes at the leader's position before the
    next entry runs, so the result is bit-identical to entry-at-a-time
    replay.
    """
    recorder = recorder or global_recorder()
    leader = members[0]
    extra: list[np.ndarray] = []
    for member in members[1:]:
        extra.append(member.head)
        extra.append(member.tail)
    tails = [leader.tail, *extra]
    followers = members[1:]
    for interval in intervals:
        crack_into(leader.index, leader.head, tails, interval, recorder)
        for bound in (interval.lower_bound(), interval.upper_bound()):
            if bound is None:
                continue
            pos = leader.index.position_of(bound)
            if pos is None:
                continue
            for member in followers:
                if member.index.position_of(bound) is None:
                    member.index.insert(bound, pos)


def gang_replay_sort(
    members: Sequence,
    lo: int,
    hi: int,
    recorder: StatsRecorder | None = None,
) -> None:
    """Replay one sort entry over same-cursor siblings via a shared permutation."""
    recorder = recorder or global_recorder()
    leader = members[0]
    extra = [arr for member in members[1:] for arr in (member.head, member.tail)]
    sort_piece(leader.head, [leader.tail, *extra], lo, hi)
    for _ in members:
        recorder.sequential(2 * (hi - lo))
        recorder.write(2 * (hi - lo))
