"""The one tape interpreter: replay, gang alignment and crack logging.

A cracker tape (:mod:`repro.core.tape`) is written in one place and read in
one place, and both are here:

* :func:`log_crack` turns what a live crack physically did into tape
  entries;
* :func:`apply_entry` applies one entry to a head array and however many
  tails ride along — one for a cracker map or a partial-map chunk, none for
  head recovery;
* :func:`align_gang` brings several maps (or chunks of one area) to a common
  tape position, sharing one permutation between members that stand at the
  same cursor.

Replay never sees a crack policy or an RNG (Halim et al.'s determinism
argument rests on that, see ``docs/stochastic.md``): auxiliary cuts reach the
tape as ordinary crack entries.  Nothing else in ``src/`` dispatches on the
crack / progressive / sort entry types — the ``tape-interpreter`` lint rule
keeps it so.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Callable, Sequence

import numpy as np

from repro.core.tape import (
    CrackEntry,
    CrackerTape,
    DeleteEntry,
    InsertEntry,
    ProgressiveCrackEntry,
    SortEntry,
    TapeEntry,
)
from repro.cracking.bounds import Bound, Interval, interval_from_bounds
from repro.cracking.crack import crack_into, gang_replay_cracks, gang_replay_sort
from repro.cracking.index import CrackerIndex
from repro.cracking.kernels import sort_piece
from repro.cracking.progressive import CrackProgress, PendingMap, replay_progressive
from repro.cracking.ripple import delete_positions, merge_insertions
from repro.errors import AlignmentError
from repro.faults.plan import fault_hook
from repro.stats.counters import StatsRecorder


def log_crack(
    tape: CrackerTape,
    open_pendings: set[Bound],
    interval: Interval,
    cuts: Sequence[Bound],
    progress: CrackProgress | None,
) -> None:
    """Tape what one live crack of ``interval`` physically did, in order.

    Without progressive work this is the classic pair: the stochastic
    auxiliary ``cuts`` as one-sided crack entries, then the (deduplicated)
    query entry — so replayers never consult the policy or RNG.  With a
    ``progress`` context the op log is taped instead: eager ops become
    one-sided crack entries preceded by their own auxiliary cuts, steps
    become :class:`ProgressiveCrackEntry` records.  Interleaving order
    matters (a step completing a pending may free the piece an eager crack
    then splits), and the progressive path never takes the crack-in-three
    fast path, so no two-sided entry is logged from it.  ``open_pendings``
    tracks the bounds still in flight at the tape's end so updates can
    force-finish them deterministically.
    """
    if progress is not None and progress.ops:
        for op in progress.ops:
            if op[0] == "eager":
                _, bound, op_cuts = op
                for pivot in op_cuts:
                    tape.append(CrackEntry(interval_from_bounds(pivot, None)))
                tape.append(CrackEntry(interval_from_bounds(bound, None)))
            else:
                _, bound, k, done = op
                tape.append(ProgressiveCrackEntry(bound, k))
                if done:
                    open_pendings.discard(bound)
                else:
                    open_pendings.add(bound)
        return
    if progress is not None and progress.holes:
        # The budget was exhausted before any work happened; a crack entry
        # would make replayers do work the live structure never did.
        return
    for pivot in cuts:
        tape.append(CrackEntry(interval_from_bounds(pivot, None)))
    tape.append_crack(interval)


def _sort_window(index: CrackerIndex, n: int, entry: SortEntry) -> tuple[int, int]:
    lo = 0 if entry.lo_bound is None else index.position_of(entry.lo_bound)
    hi = n if entry.hi_bound is None else index.position_of(entry.hi_bound)
    if lo is None or hi is None:
        raise AlignmentError("sort entry references unknown piece bounds")
    return lo, hi


def apply_entry(
    index: CrackerIndex,
    head: np.ndarray,
    tails: Sequence[np.ndarray],
    pending: PendingMap,
    entry: TapeEntry,
    fetch_tails: Sequence[Callable[[np.ndarray], np.ndarray]],
    recorder: StatsRecorder,
) -> tuple[np.ndarray, Sequence[np.ndarray]]:
    """Apply one tape entry to ``head`` and its position-aligned ``tails``.

    Returns the arrays to continue with (update entries return the views
    :mod:`~repro.cracking.ripple` merged into).
    Every permutation is a function of the head values alone, so replaying
    with fewer tails — or none — walks the head through the identical
    states.  ``fetch_tails`` holds one ``keys -> values`` callback per tail
    for the rows an insert entry adds.  Delete entries must already carry
    their victim positions.
    """
    if isinstance(entry, CrackEntry):
        crack_into(
            index, head, tails, entry.interval, recorder,
            progress=CrackProgress(pending) if pending else None,
        )
    elif isinstance(entry, ProgressiveCrackEntry):
        replay_progressive(
            index, head, tails, pending, entry.bound, entry.step, recorder
        )
    elif isinstance(entry, InsertEntry):
        if pending:
            raise AlignmentError(
                "insert entry replayed with in-flight progressive cracks"
            )
        head, tails = merge_insertions(
            index, head, tails, entry.values,
            [fetch(entry.keys) for fetch in fetch_tails], recorder,
        )
    elif isinstance(entry, DeleteEntry):
        if entry.positions is None:
            raise AlignmentError(
                "delete entry replayed before its positions were located"
            )
        head, tails = delete_positions(
            index, head, tails, entry.positions, recorder
        )
    elif isinstance(entry, SortEntry):
        lo, hi = _sort_window(index, len(head), entry)
        sort_piece(head, tails, lo, hi)
        cells = (1 + len(tails)) * (hi - lo)
        recorder.sequential(cells)
        recorder.write(cells)
    else:  # pragma: no cover - exhaustive match
        raise AlignmentError(f"unknown tape entry {entry!r}")
    return head, tails


def align_gang(
    tape: CrackerTape,
    members: Sequence,
    target: int,
    recorder: StatsRecorder,
    site: str,
) -> None:
    """Replay ``tape`` on every member standing before ``target``.

    Members are cracked pairs of one tape (sibling maps of a set, chunks of
    one area).  Those at the same cursor hold bit-identical heads (the
    ``aligned-head-equality`` invariant), so a run of consecutive crack
    entries, or a sort entry, is replayed once through a shared permutation
    (:func:`~repro.cracking.crack.gang_replay_cracks`) instead of once per
    member — exactly equivalent, and charged identically.  The gang is the
    lowest-cursor prefix of the cursor-sorted members and absorbs each
    straggler on reaching its cursor; its leader is the first such member in
    the caller's order.  Update entries, every entry met while progressive
    cracks are in flight (those need the pending-aware path), and a gang of
    one go through :meth:`replay_entry` per member.  ``site`` is the fault
    site fired before each shared crack run.
    """
    todo = [m for m in members if m.cursor < target]
    if not todo:
        return
    todo.sort(key=attrgetter("cursor"))
    leader = todo[0]
    size = 1
    while leader.cursor < target:
        while size < len(todo) and todo[size].cursor == leader.cursor:
            size += 1
        # Never run past a straggler: it joins the gang at its own cursor.
        limit = todo[size].cursor if size < len(todo) else target
        if size == 1:
            while leader.cursor < limit:
                leader.replay_entry(tape[leader.cursor])
            continue
        gang = todo[:size]
        while leader.cursor < limit:
            cursor = leader.cursor
            entry = tape[cursor]
            if leader.pending_cracks or not isinstance(
                entry, (CrackEntry, SortEntry)
            ):
                for member in gang:
                    member.replay_entry(entry)
                continue
            if isinstance(entry, CrackEntry):
                # Crack-entry replay never opens pendings, so the whole run
                # stays gang-eligible.
                run = [entry.interval]
                while cursor + len(run) < limit:
                    ahead = tape[cursor + len(run)]
                    if not isinstance(ahead, CrackEntry):
                        break
                    run.append(ahead.interval)
                fault_hook(site)
                gang_replay_cracks(gang, run, recorder)
                replayed = len(run)
            else:
                lo, hi = _sort_window(leader.index, len(leader), entry)
                gang_replay_sort(gang, lo, hi, recorder)
                replayed = 1
            for member in gang:
                recorder.event("alignment_replays", replayed)
                member.cursor += replayed
