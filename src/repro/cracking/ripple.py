"""Vectorized Ripple merge of pending updates into a cracked structure.

The Ripple algorithm (Idreos et al., SIGMOD 2007) merges pending insertions
and deletions into a cracked array without destroying the cracker index's
knowledge.  The original shuffles individual boundary tuples; we implement a
batch-vectorized equivalent: rows are inserted at the *end* of their target
piece, and the old rows after each insertion point slide up by the number of
new rows placed before them — one bulk move per affected piece.  Within a
piece tuples are unordered, so piece invariants are preserved; appending at
the end in batch order is deterministic, which lets tape replay apply the
same merge identically on every map of a set.  Deletions close their holes
the same way, sliding the rows between two holes down.

Arrays ripple returns are views of buffers with spare rows at the end, which
this module owns; handed one of those views back, a merge moves only the
suffix inside the buffer, in place.  Like Ripple, nothing before the first
affected piece is read or written, and costs are charged for exactly that
suffix.  Any other array — a base column, a prefix view, a second view of an
owned buffer, a journal snapshot — is never written: the merge copies it
into a fresh buffer once.  Piece routing, piece edges and the position shifts
are bulk passes over the flat index's arrays (:mod:`repro.cracking.index`);
the Python-level work is per *affected piece* (per hole for deletions),
never per boundary.
"""

from __future__ import annotations

import weakref
from typing import Sequence

import numpy as np

from repro.cracking.index import CrackerIndex
from repro.faults.plan import fault_hook
from repro.stats.counters import StatsRecorder, global_recorder

#: ``delete_positions`` closes ``k`` holes in ``n`` rows with ``k`` in-place
#: slice moves while ``k * _ROWS_PER_HOLE <= n`` and with a boolean mask
#: beyond.  Per array, a slice move costs a fixed ~0.6 us and the suffix is
#: moved once (~0.5 ns a row); the mask gathers the survivors and copies them
#: back (~1.8 ns a row) whatever ``k`` is.  Measured at 500k and 1 M int64
#: rows, the two cross at 350-400 rows per hole.
_ROWS_PER_HOLE = 384

#: ``id(buffer) -> the one view of it`` that ripple handed out last.  Values
#: are weak, so an entry dies with its view and a recycled id never matches.
_HANDED_OUT: weakref.WeakValueDictionary[int, np.ndarray] = (
    weakref.WeakValueDictionary()
)


def _capacity(rows: int) -> int:
    """Rows a fresh buffer for ``rows`` rows gets: ~1.6 % spare plus 64, so
    growth is geometric and a run of small merges reallocates rarely."""
    return rows + rows // 64 + 64


def _buffer_for(
    arr: np.ndarray, rows: int, dtype: np.dtype
) -> tuple[np.ndarray, bool]:
    """A buffer to hold ``rows`` rows of ``dtype`` merged from ``arr``.

    Returns ``(buffer, in_place)``: the buffer behind ``arr`` when ``arr`` is
    exactly the view ripple last handed out for it and it has room, else a
    fresh one (nothing written yet).
    """
    buf = arr.base
    if _HANDED_OUT.get(id(buf)) is arr and len(buf) >= rows and buf.dtype == dtype:
        return buf, True
    return np.empty(_capacity(rows), dtype=dtype), False


def _hand_out(buf: np.ndarray, rows: int) -> np.ndarray:
    view = buf[:rows]
    _HANDED_OUT[id(buf)] = view
    return view


def _group_by_piece(
    index: CrackerIndex, values: np.ndarray
) -> tuple[np.ndarray, np.ndarray, list[int]]:
    """Group ``values`` by the piece they map to, pieces ascending.

    Returns the stable permutation sorting ``values`` by piece, the distinct
    piece ids, and the offsets ``[0, ..., len(values)]`` between the pieces'
    runs in the permuted order.
    """
    piece_of = index.piece_ids(values)
    order = np.argsort(piece_of, kind="stable")
    piece_of = piece_of[order]
    run_starts = np.flatnonzero(piece_of[1:] != piece_of[:-1]) + 1
    offsets = [0, *run_starts.tolist(), len(values)]
    return order, piece_of[offsets[:-1]], offsets


def merge_insertions(
    index: CrackerIndex,
    head: np.ndarray,
    tails: Sequence[np.ndarray],
    ins_head: np.ndarray,
    ins_tails: Sequence[np.ndarray],
    recorder: StatsRecorder | None = None,
) -> tuple[np.ndarray, list[np.ndarray]]:
    """Merge insertion rows; returns the grown ``(head, tails)`` arrays.

    The cracker index's boundary positions are shifted in place.
    """
    fault_hook("ripple.merge_insertions", ins_head)
    recorder = recorder or global_recorder()
    if len(ins_head) == 0:
        return head, list(tails)

    n = len(head)
    order, affected, offsets = _group_by_piece(index, ins_head)
    edges = index.piece_edges(n)
    first_touched = edges.item(affected[0])
    # Old rows up to the end of each affected piece, then that piece's new
    # rows in batch order, ..., then the untouched rest: the old rows in
    # [ends[j - 1], ends[j]) slide up by offsets[j], the new rows before them.
    ends = [*edges[affected + 1].tolist(), n]
    rows = n + len(ins_head)
    olds = [head, *tails]
    news = [new[order] for new in (ins_head, *ins_tails)]
    # Every allocation before the first write: a MemoryError leaves the
    # arrays as they were.
    bufs = [
        _buffer_for(old, rows, np.result_type(old, new))
        for old, new in zip(olds, news)
    ]
    merged = []
    for (buf, in_place), old, new in zip(bufs, olds, news):
        if not in_place:
            buf[:ends[0]] = old[:ends[0]]
        for j in range(len(ends) - 1, 0, -1):  # back to front
            lo, hi, up = ends[j - 1], ends[j], offsets[j]
            buf[lo + up:hi + up] = old[lo:hi]
        for j, end in enumerate(ends[:-1]):
            buf[end + offsets[j]:end + offsets[j + 1]] = new[offsets[j]:offsets[j + 1]]
        merged.append(_hand_out(buf, rows))
    moved = (n - first_touched + len(ins_head)) * (1 + len(tails))
    recorder.sequential(moved)
    recorder.write(moved)

    # Keyed by boundary rank, not position: rows appended at the end of
    # piece j displace exactly the boundaries ranked >= j, and when empty
    # pieces stack several boundaries on one position, the target piece's
    # *lower* boundary shares that position but must not move.
    index.apply_order_shifts(list(zip(affected.tolist(), np.diff(offsets).tolist())))
    return merged[0], merged[1:]


def locate_deletions(
    index: CrackerIndex,
    head: np.ndarray,
    key_tail: np.ndarray,
    del_values: np.ndarray,
    del_keys: np.ndarray,
    recorder: StatsRecorder | None = None,
) -> np.ndarray:
    """Positions of the tuples to delete.

    Each deletion carries its old head value, so only the piece that value
    maps to is scanned for the victim key — the Ripple property of touching
    only relevant ranges.
    """
    recorder = recorder or global_recorder()
    if len(del_values) == 0:
        return np.empty(0, dtype=np.int64)
    order, affected, offsets = _group_by_piece(index, del_values)
    del_keys = del_keys[order]
    edges = index.piece_edges(len(head))
    los = edges[affected].tolist()
    his = edges[affected + 1].tolist()
    # Pieces are disjoint and visited in position order, so the hits come out
    # sorted and unique.
    hits: list[np.ndarray] = []
    for j, (lo, hi) in enumerate(zip(los, his)):
        keys_here = del_keys[offsets[j]:offsets[j + 1]]
        hits.append(np.flatnonzero(np.isin(key_tail[lo:hi], keys_here)) + lo)
        recorder.sequential(hi - lo)
    return np.concatenate(hits)


def delete_positions(
    index: CrackerIndex,
    head: np.ndarray,
    tails: Sequence[np.ndarray],
    positions: np.ndarray,
    recorder: StatsRecorder | None = None,
) -> tuple[np.ndarray, list[np.ndarray]]:
    """Physically remove ``positions``; returns shrunk ``(head, tails)``.

    Boundary positions in the index are shifted down accordingly.
    """
    fault_hook("ripple.delete_positions")
    recorder = recorder or global_recorder()
    if len(positions) == 0:
        return head, list(tails)
    positions = np.unique(np.asarray(positions, dtype=np.int64))
    n = len(head)
    rows = n - len(positions)
    first_touched = positions.item(0)
    olds = [head, *tails]
    if len(positions) * _ROWS_PER_HOLE <= n:
        holes = positions.tolist()
        # Survivors between hole i and hole i + 1 slide down by i + 1.
        runs = list(enumerate(zip(holes, [*holes[1:], n])))
        survivors = [None] * len(olds)
    else:
        keep = np.ones(n - first_touched, dtype=bool)
        keep[positions - first_touched] = False
        survivors = [old[first_touched:][keep] for old in olds]
    bufs = [_buffer_for(old, rows, old.dtype) for old in olds]
    shrunk = []
    for (buf, in_place), old, kept in zip(bufs, olds, survivors):
        if not in_place:
            buf[:first_touched] = old[:first_touched]
        if kept is None:
            for i, (lo, hi) in runs:  # front to back
                buf[lo - i:hi - i - 1] = old[lo + 1:hi]
        else:
            buf[first_touched:rows] = kept
        shrunk.append(_hand_out(buf, rows))

    moved = (n - first_touched) * (1 + len(tails))
    recorder.sequential(moved)
    recorder.write(moved)

    # Every boundary at position p loses the deletions strictly before p.
    index.apply_shifts([(p + 1, -1) for p in positions.tolist()])
    return shrunk[0], shrunk[1:]
