"""Mutation journal: lightweight pre-op snapshots for atomic reorganization.

A guarded operation (see :mod:`repro.faults.guard`) snapshots the structure
it is about to mutate; if the operation fails mid-way the snapshot restores
the exact pre-op state — arrays, cracker indices, cursors, tapes (via
:meth:`~repro.core.tape.CrackerTape.truncate`), pending buffers, RNG state —
so deterministic replay is preserved across a rollback.

Snapshots are taken *only while a fault plan is armed* (or the journal is
explicitly forced for measurement), so the fault-free production path never
pays the copy.  Copies are value-level (``ndarray.copy``, ``index.clone``),
not ``deepcopy``: tape *entries* recorded before the snapshot are shared —
the only post-hoc mutation they ever see is delete-position caching, which
is deterministic and idempotent, hence safe to keep across a rollback.

Each snapshot returns a zero-argument ``restore()`` closure.
"""

from __future__ import annotations

import copy
from typing import Callable

import numpy as np

from repro.errors import CrackError


def _snap_rng(rng: np.random.Generator | None):
    if rng is None:
        return None
    return copy.deepcopy(rng.bit_generator.state)


def _restore_rng(rng: np.random.Generator | None, state) -> None:
    if rng is not None and state is not None:
        rng.bit_generator.state = state


def _snap_pending(pending):
    return (
        pending.ins_head.copy(),
        [t.copy() for t in pending.ins_tails],
        pending.del_values.copy(),
        pending.del_keys.copy(),
    )


def _restore_pending(pending, snap) -> None:
    ins_head, ins_tails, del_values, del_keys = snap
    pending.ins_head = ins_head
    pending.ins_tails = list(ins_tails)
    pending.del_values = del_values
    pending.del_keys = del_keys


def _snap_pending_cracks(pending_cracks):
    """Value-copy the in-flight progressive crack state of one structure."""
    return {bound: p.clone() for bound, p in pending_cracks.items()}


def _snap_tracker(tracker):
    if tracker is None:
        return None
    return (tracker._remaining, tracker.spent_last_query)


def _restore_tracker(tracker, snap) -> None:
    if tracker is not None and snap is not None:
        tracker._remaining, tracker.spent_last_query = snap


# ---------------------------------------------------------------------------
# Per-structure snapshots.
# ---------------------------------------------------------------------------


def _snap_column(col) -> Callable[[], None]:
    head = col.head.copy()
    keys = col.keys.copy()
    index = col.index.clone()
    pending = _snap_pending(col.pending)
    cracks_in_flight = _snap_pending_cracks(col.pending_cracks)
    tracker = _snap_tracker(col._tracker)
    cuts = col.stochastic_cuts
    rng = _snap_rng(col._rng)

    def restore() -> None:
        col.head = head
        col.keys = keys
        col.index = index
        _restore_pending(col.pending, pending)
        col.pending_cracks = cracks_in_flight
        _restore_tracker(col._tracker, tracker)
        col.stochastic_cuts = cuts
        _restore_rng(col._rng, rng)

    return restore


def _snap_mapset(ms) -> Callable[[], None]:
    maps = {
        attr: (m, m.head.copy(), m.tail.copy(), m.index.clone(), m.cursor,
               m.accesses, _snap_pending_cracks(m.pending_cracks))
        for attr, m in ms.maps.items()
    }
    tape_len = len(ms.tape)
    min_safe = ms.tape.min_safe_cursor
    pending = _snap_pending(ms.pending)
    open_pendings = set(ms.open_pendings)
    tracker = _snap_tracker(ms._tracker)
    sig = ms._sig
    cuts = ms.stochastic_cuts
    rng = _snap_rng(ms._rng)

    def restore() -> None:
        from repro.faults.guard import quarantine

        for attr in list(ms.maps):
            if attr not in maps:
                # Created during the failed op: discard it.  Quarantine makes
                # sanitizer sweeps skip the orphan even if a stray reference
                # keeps it alive past this rollback.
                quarantine(ms.maps[attr], "discarded by rollback")
                del ms.maps[attr]
                if ms._storage is not None:
                    ms._storage.unregister(ms, attr)
        for attr, (m, head, tail, index, cursor, accesses, cracks) in maps.items():
            m.head = head
            m.tail = tail
            m.index = index
            m.cursor = cursor
            m.accesses = accesses
            m.pending_cracks = cracks
            # The op may have evicted the map; the snapshot resurrects it.
            ms.maps[attr] = m
            if ms._storage is not None:
                ms._storage.register(ms, attr, m)
        ms.tape.truncate(tape_len)
        ms.tape.min_safe_cursor = min_safe
        _restore_pending(ms.pending, pending)
        ms.open_pendings = set(open_pendings)
        _restore_tracker(ms._tracker, tracker)
        ms._sig = sig
        ms.stochastic_cuts = cuts
        _restore_rng(ms._rng, rng)

    return restore


def _snap_partial_set(ps) -> Callable[[], None]:
    cm = ps.chunkmap
    cm_state = None
    if cm is not None:
        area_states = [
            (
                area,
                area.lo_bound,
                area.hi_bound,
                area.fetched,
                area.tape,
                0 if area.tape is None else len(area.tape),
                0 if area.tape is None else area.tape.min_safe_cursor,
                set(area.refs),
                area.pin_count,
                set(area.open_pendings),
            )
            for area in cm.areas
        ]
        cm_state = (
            cm.head.copy(),
            cm.keys.copy(),
            cm.index.clone(),
            list(cm.areas),
            area_states,
            cm.stochastic_cuts,
            _snap_rng(cm._rng),
        )
    maps = {}
    for attr, pmap in ps.maps.items():
        chunks = {
            aid: (
                chunk,
                None if chunk.head is None else chunk.head.copy(),
                chunk.tail.copy(),
                chunk.index.clone(),
                chunk.cursor,
                chunk.accesses,
                chunk.cracks_seen,
                chunk.last_crack_access,
                _snap_pending_cracks(chunk.pending_cracks),
            )
            for aid, chunk in pmap.chunks.items()
        }
        maps[attr] = (pmap, chunks)
    pending = _snap_pending(ps.pending)
    tracker = _snap_tracker(ps._tracker)
    cuts = ps.stochastic_cuts
    rng = _snap_rng(ps._rng)

    def restore() -> None:
        from repro.faults.guard import quarantine

        if cm_state is None:
            # The chunk map was created during the failed op: discard it so
            # the next query rebuilds it from the base relation.  Quarantine
            # keeps sanitizer sweeps away from the orphan.
            if ps.chunkmap is not None:
                quarantine(ps.chunkmap, "discarded by rollback")
            ps.chunkmap = None
        else:
            head, keys, index, area_order, area_states, cm_cuts, cm_rng = cm_state
            cm.head = head
            cm.keys = keys
            cm.index = index
            cm.areas = list(area_order)
            for (area, lo, hi, fetched, tape, tlen, msc, refs, pins,
                 opens) in area_states:
                area.lo_bound = lo
                area.hi_bound = hi
                area.fetched = fetched
                area.tape = tape
                if tape is not None:
                    tape.truncate(tlen)
                    tape.min_safe_cursor = msc
                area.refs = refs
                area.pin_count = pins
                area.open_pendings = opens
            cm.stochastic_cuts = cm_cuts
            _restore_rng(cm._rng, cm_rng)
            ps.chunkmap = cm
        for attr in list(ps.maps):
            if attr not in maps:
                pmap = ps.maps[attr]
                for chunk in pmap.chunks.values():
                    quarantine(chunk, "discarded by rollback")
                ps.storage.unregister_map(pmap)
                del ps.maps[attr]
        for attr, (pmap, chunks) in maps.items():
            ps.maps[attr] = pmap
            for aid in list(pmap.chunks):
                if aid not in chunks:
                    quarantine(pmap.chunks[aid], "discarded by rollback")
                    del pmap.chunks[aid]
            for aid, (chunk, head, tail, index, cursor, acc, seen, last,
                      cracks) in chunks.items():
                chunk.head = head
                chunk.tail = tail
                chunk.index = index
                chunk.cursor = cursor
                chunk.accesses = acc
                chunk.cracks_seen = seen
                chunk.last_crack_access = last
                chunk.pending_cracks = cracks
                pmap.chunks[aid] = chunk
        # Chunk dicts, arrays and access counts were written behind the
        # storage manager's back.
        ps.storage.resync()
        _restore_pending(ps.pending, pending)
        _restore_tracker(ps._tracker, tracker)
        ps.stochastic_cuts = cuts
        _restore_rng(ps._rng, rng)

    return restore


_SNAPSHOTTERS = {
    "column": _snap_column,
    "mapset": _snap_mapset,
    "partial_set": _snap_partial_set,
}


def take_snapshot(structure, kind: str) -> Callable[[], None]:
    """Snapshot ``structure`` and return a ``restore()`` closure."""
    snap = _SNAPSHOTTERS.get(kind)
    if snap is None:
        raise CrackError(f"no journal snapshotter for structure kind {kind!r}")
    return snap(structure)
