"""Vectorized Ripple merge of pending updates into a cracked structure.

The Ripple algorithm (Idreos et al., SIGMOD 2007) merges pending insertions
and deletions into a cracked array without destroying the cracker index's
knowledge.  Rows inside a piece are unordered, so making room in piece ``j``
only needs one boundary row of every later piece to move: its first row
goes to its end, one slot further up.  We run that in bulk.  Piece ``k``
with ``C`` new rows routed to earlier pieces moves its first ``min(size,
C)`` rows to its end, then its own new rows follow in batch order.  A
deletion first fills the holes of its piece, front to back, with the
surviving rows among the piece's last ``d`` rows, back to front.  Each
later piece then moves its last ``min(size, D)`` rows into the ``D`` free
slots in front of it.  A piece whose shift covers it whole keeps its order;
a run of such pieces sharing one shift moves as one slice.  Every other
move of every piece is one gather and one scatter per array, and all reads
come before any write.
Placement is a function of the head values, the index and the batch alone,
so tape replay applies the same merge identically on every map of a set.

Some callers must not have a piece permuted: a fetched area of a chunk map
is frozen, and every chunk of it is created from its slice.  Those callers
name such pieces ``frozen``: a frozen piece only ever shifts whole, in
order, and takes no rows of the batch.

Arrays ripple returns are views of buffers with spare rows at the end, which
this module owns; handed one of those views back, a merge moves rows inside
the buffer, in place.  Like Ripple, nothing before the first affected piece
is read or written, and costs are charged for the rows from that piece's
start to the end.  Any other array — a base column, a prefix view, a second
view of an owned buffer, a journal snapshot — is never written: the merge
copies it into a fresh buffer once.  Piece routing, piece edges and the
position shifts are bulk passes over the flat index's arrays
(:mod:`repro.cracking.index`); the Python-level work is per slice-moved run
of pieces, never per row or per boundary.
"""

from __future__ import annotations

import weakref
from typing import Sequence

import numpy as np

from repro.cracking.index import CrackerIndex
from repro.faults.plan import fault_hook
from repro.stats.counters import StatsRecorder, global_recorder

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


def _ranges(starts: np.ndarray, lengths: np.ndarray, step: int = 1) -> np.ndarray:
    """``lengths[i]`` positions from ``starts[i]`` on, ``step`` apart, for
    each ``i``, concatenated."""
    ends = lengths.cumsum()
    total = ends.item(-1) if len(ends) else 0
    return step * np.arange(total, dtype=np.int64) + np.repeat(
        starts - step * (ends - lengths), lengths
    )


def _moving_rows(
    sizes: np.ndarray, shifts: np.ndarray, frozen: np.ndarray, own: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Boundary rows each piece moves, and which pieces move whole.

    A piece shifted by ``shift`` moves ``min(size, shift)`` rows; a frozen
    piece moves all of its rows once it shifts at all, and must take none
    of the batch's rows (``own``).  A piece that moves every row moves
    whole, in order.
    """
    moves = np.minimum(sizes, shifts)
    if len(frozen):
        if own[frozen].any():
            raise ValueError("a frozen piece takes no rows of a Ripple batch")
        moves[frozen] = np.where(shifts[frozen] > 0, sizes[frozen], 0)
    whole = (moves == sizes) & (moves > 0)
    return moves, whole


def _slice_runs(
    whole: np.ndarray, starts: np.ndarray, stops: np.ndarray, shifts: np.ndarray
) -> list[tuple[int, int, int]]:
    """``(lo, hi, by)`` per run of adjacent whole-moving pieces that share
    one shift, in position order; piece ``k`` moves ``[starts[k], stops[k])``."""
    k = np.flatnonzero(whole)
    if not len(k):
        return []
    lo, hi, by = starts[k], stops[k], shifts[k]
    breaks = np.flatnonzero((lo[1:] != hi[:-1]) | (by[1:] != by[:-1])) + 1
    first = np.concatenate(([0], breaks))
    last = np.concatenate((breaks - 1, [len(k) - 1]))
    return list(zip(lo[first].tolist(), hi[last].tolist(), by[first].tolist()))


def _rearrange(
    olds: Sequence[np.ndarray],
    dtypes: Sequence[np.dtype],
    rows: int,
    runs: Sequence[tuple[int, int, int]],
    src: np.ndarray,
    dst: np.ndarray,
    news: Sequence[np.ndarray] = (),
    new_dst: np.ndarray | None = None,
) -> list[np.ndarray]:
    """Move every array's rows; returns views of ``rows`` rows.

    Each array gets the slice moves ``runs`` (ordered so that no run
    overwrites a later run's source), the scatter of its rows at ``src`` to
    ``dst``, and ``news[i]`` scattered to ``new_dst``.  Rows not named
    stay where they are.  Every buffer and gathered temporary is allocated
    before the first write: a ``MemoryError`` leaves the arrays as they were.
    """
    bufs = [_buffer_for(old, rows, dtype) for old, dtype in zip(olds, dtypes)]
    gathered = [old[src] for old in olds]
    keep = min(len(olds[0]), rows)
    out = []
    for i, ((buf, in_place), old, moved) in enumerate(zip(bufs, olds, gathered)):
        if not in_place:
            buf[:keep] = old[:keep]
        for lo, hi, by in runs:
            buf[lo + by:hi + by] = old[lo:hi]
        buf[dst] = moved
        if news:
            buf[new_dst] = news[i]
        out.append(_hand_out(buf, rows))
    return out


def merge_insertions(
    index: CrackerIndex,
    head: np.ndarray,
    tails: Sequence[np.ndarray],
    ins_head: np.ndarray,
    ins_tails: Sequence[np.ndarray],
    recorder: StatsRecorder | None = None,
    frozen: Sequence[int] = (),
) -> tuple[np.ndarray, list[np.ndarray]]:
    """Merge insertion rows; returns the grown ``(head, tails)`` arrays.

    The cracker index's boundary positions are shifted in place.  ``frozen``
    names pieces that must only shift whole, in order.
    """
    fault_hook("ripple.merge_insertions", ins_head)
    recorder = recorder or global_recorder()
    if len(ins_head) == 0:
        return head, list(tails)

    n = len(head)
    order, affected, offsets = _group_by_piece(index, ins_head)
    counts = np.diff(offsets)
    edges = index.piece_edges(n)
    sizes = edges[1:] - edges[:-1]
    own = np.zeros(len(sizes), dtype=np.int64)
    own[affected] = counts
    # Piece k moves up by the new rows routed to earlier pieces: its first
    # ``moves`` rows go to its end, above the rows that stay.
    shifts = own.cumsum() - own
    frozen = np.asarray(frozen, dtype=np.int64)
    moves, whole = _moving_rows(sizes, shifts, frozen, own)
    part = np.flatnonzero((moves > 0) & ~whole)
    src = _ranges(edges[part], moves[part])
    dst = src + np.repeat(sizes[part], moves[part])
    # Then each piece's own new rows, in batch order: new row t of the
    # piece-sorted batch lands at its piece's old end plus t.
    new_dst = edges[np.repeat(affected, counts) + 1] + np.arange(len(ins_head))
    rows = n + len(ins_head)
    olds = [head, *tails]
    news = [new[order] for new in (ins_head, *ins_tails)]
    merged = _rearrange(
        olds, [np.result_type(old, new) for old, new in zip(olds, news)], rows,
        _slice_runs(whole, edges[:-1], edges[1:], shifts)[::-1],
        src, dst, news, new_dst,
    )
    moved = (n - edges.item(affected[0]) + len(ins_head)) * (1 + len(tails))
    recorder.sequential(moved)
    recorder.write(moved)

    # Keyed by boundary rank, not position: rows appended at the end of
    # piece j displace exactly the boundaries ranked >= j, and when empty
    # pieces stack several boundaries on one position, the target piece's
    # *lower* boundary shares that position but must not move.
    index.apply_order_shifts(list(zip(affected.tolist(), counts.tolist())))
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


def _find(sorted_values: np.ndarray, probes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per probe, its insertion point in ``sorted_values`` and whether the
    value there equals it."""
    at = np.searchsorted(sorted_values, probes)
    found = at < len(sorted_values)
    found[found] = sorted_values[at[found]] == probes[found]
    return at, found


def delete_positions(
    index: CrackerIndex,
    head: np.ndarray,
    tails: Sequence[np.ndarray],
    positions: np.ndarray,
    recorder: StatsRecorder | None = None,
    frozen: Sequence[int] = (),
) -> tuple[np.ndarray, list[np.ndarray]]:
    """Physically remove ``positions``; returns shrunk ``(head, tails)``.

    Boundary positions in the index are shifted down accordingly.
    ``frozen`` names pieces that must only shift whole, in order.
    """
    fault_hook("ripple.delete_positions")
    recorder = recorder or global_recorder()
    if len(positions) == 0:
        return head, list(tails)
    positions = np.sort(np.asarray(positions, dtype=np.int64))
    if not (positions[1:] > positions[:-1]).all():
        positions = np.unique(positions)
    n = len(head)
    rows = n - len(positions)
    edges = index.piece_edges(n)
    sizes = edges[1:] - edges[:-1]
    # The last edge <= p: a stack of empty pieces never owns a row.
    piece_of = np.searchsorted(edges, positions, side="right") - 1
    own = np.bincount(piece_of, minlength=len(sizes))
    kept = sizes - own
    # Piece k keeps its rows in [start, cut) once its own holes are filled,
    # then moves down by the holes of earlier pieces: its last ``moves``
    # kept rows go to the free slots in front of it.
    cut = edges[1:] - own
    shifts = own.cumsum() - own
    frozen = np.asarray(frozen, dtype=np.int64)
    moves, whole = _moving_rows(kept, shifts, frozen, own)

    # The holes below the cut, front to back, take the surviving rows among
    # the piece's last ``own`` rows, back to front.
    is_hole = positions < cut[piece_of]
    holes, hole_piece = positions[is_hole], piece_of[is_hole]
    affected = np.flatnonzero(own)
    fills = _ranges(edges[affected + 1] - 1, own[affected], -1)
    fills = fills[~_find(positions, fills)[1]]
    # A piece moving whole moves ``[start, cut)`` as a slice, holes and all,
    # and its fills land in its holes' new slots.
    hole_dst = holes - np.where(whole[hole_piece], shifts[hole_piece], 0)
    # Any other piece moves its last ``moves`` kept rows, a window whose
    # holes hold their fills by then, to the free slots in front of it.
    part = np.flatnonzero((moves > 0) & ~whole)
    start = cut[part] - moves[part]
    window = _ranges(start, moves[part])
    window_dst = window + np.repeat(edges[part] - shifts[part] - start, moves[part])
    at, refilled = _find(holes, window)
    window_src = window.copy()
    window_src[refilled] = fills[at[refilled]]
    loose = np.ones(len(holes), dtype=bool)
    loose[at[refilled]] = False
    src = np.concatenate((fills[loose], window_src))
    dst = np.concatenate((hole_dst[loose], window_dst))
    olds = [head, *tails]
    shrunk = _rearrange(
        olds, [old.dtype for old in olds], rows,
        [(lo, hi, -by) for lo, hi, by in _slice_runs(whole, edges[:-1], cut, shifts)],
        src, dst,
    )

    moved = (n - edges.item(piece_of[0])) * (1 + len(tails))
    recorder.sequential(moved)
    recorder.write(moved)

    # Keyed by boundary rank, like inserts: piece j's victims sit below
    # exactly the boundaries ranked >= j.
    index.apply_order_shifts(list(zip(affected.tolist(), (-own[affected]).tolist())))
    return shrunk[0], shrunk[1:]
