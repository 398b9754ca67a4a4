"""Vectorized Ripple merge of pending updates into a cracked structure.

The Ripple algorithm (Idreos et al., SIGMOD 2007) merges pending insertions
and deletions into a cracked array without destroying the cracker index's
knowledge.  The original shuffles individual boundary tuples; we implement a
batch-vectorized equivalent: rows are inserted at the *end* of their target
piece and the suffix of the array is rebuilt in one pass.  Within a piece
tuples are unordered, so piece invariants are preserved; appending at the end
in batch order is deterministic, which lets tape replay apply the same merge
identically on every map of a set.

Costs are charged for the rebuilt suffix — like Ripple, nothing before the
first affected piece is touched.  Piece routing, piece edges and the position
shifts are bulk passes over the flat index's arrays
(:mod:`repro.cracking.index`); the Python-level work is per *affected piece*,
never per boundary.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.cracking.index import CrackerIndex
from repro.faults.plan import fault_hook
from repro.stats.counters import StatsRecorder, global_recorder

#: ``delete_positions`` closes ``k`` holes in ``n`` rows with ``k + 1`` slice
#: copies while ``k * _ROWS_PER_HOLE <= n`` and with a boolean mask beyond:
#: a slice costs a fixed ~0.3 us, the mask ~1 ns per row whatever ``k`` is.
_ROWS_PER_HOLE = 256


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
    # rows in batch order, ..., then the untouched rest.
    cuts = [0, *edges[affected + 1].tolist()]

    def grown(old: np.ndarray, new: np.ndarray) -> np.ndarray:
        new = new[order]
        parts = []
        for j in range(len(affected)):
            parts += (old[cuts[j]:cuts[j + 1]], new[offsets[j]:offsets[j + 1]])
        parts.append(old[cuts[-1]:])
        return np.concatenate(parts)

    merged = grown(head, ins_head), [
        grown(tail, ins) for tail, ins in zip(tails, ins_tails)
    ]
    moved = (n - first_touched + len(ins_head)) * (1 + len(tails))
    recorder.sequential(moved)
    recorder.write(moved)

    # Keyed by boundary rank, not position: rows appended at the end of
    # piece j displace exactly the boundaries ranked >= j, and when empty
    # pieces stack several boundaries on one position, the target piece's
    # *lower* boundary shares that position but must not move.
    index.apply_order_shifts(list(zip(affected.tolist(), np.diff(offsets).tolist())))
    return merged


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
    if len(positions) * _ROWS_PER_HOLE <= n:
        holes = positions.tolist()
        kept = list(zip([0, *(p + 1 for p in holes)], [*holes, n]))

        def shrunk(arr: np.ndarray) -> np.ndarray:
            return np.concatenate([arr[lo:hi] for lo, hi in kept])
    else:
        keep = np.ones(n, dtype=bool)
        keep[positions] = False

        def shrunk(arr: np.ndarray) -> np.ndarray:
            return arr[keep]

    first_touched = positions.item(0)
    moved = (n - first_touched) * (1 + len(tails))
    recorder.sequential(moved)
    recorder.write(moved)

    # Every boundary at position p loses the deletions strictly before p.
    index.apply_shifts([(p + 1, -1) for p in positions.tolist()])
    return shrunk(head), [shrunk(t) for t in tails]
