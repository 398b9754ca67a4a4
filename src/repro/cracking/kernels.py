"""Vectorized crack kernels.

The original cracking papers use in-place swap-based partitioning; in Python
that would be orders of magnitude too slow, so we use NumPy *stable*
partitioning: compute the group of every element, then gather groups in
order.  Stability matters beyond speed — it makes every kernel a pure
function of (input order, pivot), i.e. *deterministic*, which is exactly the
property adaptive alignment relies on: replaying the same tape against the
same start state reproduces the same permutation on every map of a set.

Each kernel reorders a segment ``[lo, hi)`` of the *head* array and applies
the identical permutation to any number of *tail* arrays (cracker maps have
one tail; key-carrying structures may have more; gang replay passes the
head+tail pairs of every sibling map as extra tails so one permutation
serves them all).

The kernels are allocation-light: they reuse
:class:`~repro.cracking.arena.KernelArena` buffers.  Comparison masks are
written into arena storage with ``np.less(..., out=)`` (with an integer
fast-path threshold for integer payloads), and the permutation stays as the
per-group ``flatnonzero`` index arrays — each group is gathered straight
into its slice of a dtype-keyed scratch buffer via ``np.take(...,
out=scratch[pos:end], mode="wrap")`` and copied back in one contiguous
pass.  ``wrap`` elides the bounds check; indices come from ``flatnonzero``
so they are always in range.  The golden tests in
``tests/test_fused_kernels.py`` hold every kernel to its specification: a
stable partition of ``[lo, hi)`` equals gathering every array through
``np.argsort(group_id, kind="stable")``.

See ``docs/kernels.md`` for the design rationale and the measured numbers.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.cracking.arena import KernelArena, default_arena
from repro.cracking.bounds import Bound
from repro.errors import CrackError
from repro.faults.plan import fault_hook


def _reserve_scratch(
    arena: KernelArena, arrays: Sequence[np.ndarray], n: int
) -> dict[np.dtype, np.ndarray]:
    """Acquire every scratch buffer a gang apply will need, up front.

    All arena requests happen *before* any array is mutated, so an
    allocation failure (:class:`~repro.errors.ArenaPressure`) can only strike
    while the inputs are still pristine: it leaves the kernel like any other
    recoverable fault, with nothing half-moved for the journal to undo.
    """
    scratch: dict[np.dtype, np.ndarray] = {}
    for arr in arrays:
        if arr.dtype not in scratch:
            scratch[arr.dtype] = arena.scratch(arr.dtype, n)
    return scratch


def apply_permutation(
    head: np.ndarray,
    tails: Sequence[np.ndarray],
    lo: int,
    hi: int,
    order: np.ndarray,
    arena: KernelArena | None = None,
) -> None:
    """Apply one permutation to ``head[lo:hi]`` and every tail segment.

    The multi-tail "gang apply" primitive: the permutation is computed once
    and each array round-trips through an arena scratch buffer —
    ``np.take`` into scratch, contiguous copy back — so applying to *k*
    arrays costs *k* gathers and zero allocations.  ``order`` must be a
    permutation of ``range(hi - lo)``; ``mode="wrap"`` only skips the
    bounds check, it never remaps valid indices.
    """
    arena = arena if arena is not None else default_arena()
    n = hi - lo
    scratch = _reserve_scratch(arena, (head, *tails), n)
    for arr in (head, *tails):
        seg = arr[lo:hi]
        buf = scratch[seg.dtype]
        np.take(seg, order, out=buf, mode="wrap")
        seg[:] = buf


def _apply_index_groups(
    head: np.ndarray,
    tails: Sequence[np.ndarray],
    lo: int,
    hi: int,
    groups: Sequence[np.ndarray],
    arena: KernelArena,
) -> None:
    """Apply the permutation given as concatenated index groups to all arrays.

    Gathering each group straight into its scratch slice skips materializing
    the concatenated order (measured faster than both ``np.concatenate`` and
    copying into a reusable ``intp`` buffer — the gather reads the group
    arrays exactly once either way).
    """
    n = hi - lo
    scratch = _reserve_scratch(arena, (head, *tails), n)
    for arr in (head, *tails):
        seg = arr[lo:hi]
        buf = scratch[seg.dtype]
        pos = 0
        for idx in groups:
            end = pos + len(idx)
            np.take(seg, idx, out=buf[pos:end], mode="wrap")
            pos = end
        seg[:] = buf


def crack_two(
    head: np.ndarray,
    tails: Sequence[np.ndarray],
    lo: int,
    hi: int,
    bound: Bound,
    arena: KernelArena | None = None,
) -> int:
    """Stable two-way partition of ``head[lo:hi]`` around ``bound``.

    After the call, elements in ``[lo, split)`` satisfy the bound's left side
    and elements in ``[split, hi)`` its right side.  Returns ``split``.
    """
    fault_hook("kernels.crack_two", head[lo:hi])
    if not (0 <= lo <= hi <= len(head)):
        raise CrackError(f"crack_two range [{lo}, {hi}) outside array of {len(head)}")
    arena = arena if arena is not None else default_arena()
    n = hi - lo
    seg = head[lo:hi]
    below = arena.mask(n)
    bound.below_mask_into(seg, below)
    idx_lo = np.flatnonzero(below)
    k = len(idx_lo)
    if k == 0 or k == n:
        return lo + k
    np.logical_not(below, out=below)
    idx_hi = np.flatnonzero(below)
    _apply_index_groups(head, tails, lo, hi, (idx_lo, idx_hi), arena)
    return lo + k


def crack_three(
    head: np.ndarray,
    tails: Sequence[np.ndarray],
    lo: int,
    hi: int,
    lower: Bound,
    upper: Bound,
    arena: KernelArena | None = None,
) -> tuple[int, int]:
    """Stable three-way partition around two bounds in one pass.

    Produces ``[lo, p1)`` below ``lower``, ``[p1, p2)`` between the bounds,
    and ``[p2, hi)`` above ``upper``; returns ``(p1, p2)``.
    """
    fault_hook("kernels.crack_three", head[lo:hi])
    if not (0 <= lo <= hi <= len(head)):
        raise CrackError(f"crack_three range [{lo}, {hi}) outside array of {len(head)}")
    if upper < lower:
        raise CrackError(f"crack_three bounds out of order: {lower} vs {upper}")
    arena = arena if arena is not None else default_arena()
    n = hi - lo
    seg = head[lo:hi]
    below_low = arena.mask(n)
    below_high = arena.mask2(n)
    lower.below_mask_into(seg, below_low)
    upper.below_mask_into(seg, below_high)
    # upper >= lower, so x < lower implies x < upper: below_low ⊆ below_high.
    idx_lo = np.flatnonzero(below_low)
    k1 = len(idx_lo)
    np.logical_xor(below_high, below_low, out=below_low)
    idx_mid = np.flatnonzero(below_low)
    k2 = k1 + len(idx_mid)
    if k1 == n or k2 == 0 or (k1 == 0 and k2 == n):
        return lo + k1, lo + k2
    np.logical_not(below_high, out=below_high)
    idx_hi = np.flatnonzero(below_high)
    _apply_index_groups(head, tails, lo, hi, (idx_lo, idx_mid, idx_hi), arena)
    return lo + k1, lo + k2


def progressive_step_kernel(
    head: np.ndarray,
    tails: Sequence[np.ndarray],
    bound: Bound,
    left: int,
    right: int,
    k: int,
    arena: KernelArena | None = None,
) -> tuple[int, int, int]:
    """Narrow a pending crack's window ``[left, right)`` by up to ``k``.

    Classifies the first ``k`` window elements against ``bound``, compacts
    the belows onto the below-prefix and relocates the aboves onto the
    above-suffix, touching at most ``2 * k`` elements per array.  Returns
    ``(new_left, new_right, touched)``; the caller owns the
    :class:`~repro.cracking.progressive.PendingCrack` bookkeeping.
    """
    fault_hook("kernels.progressive_step", head[left:right])
    if not (0 <= left <= right <= len(head)):
        raise CrackError(
            f"progressive step window [{left}, {right}) outside array of {len(head)}"
        )
    k = min(int(k), right - left)
    if k <= 0:
        return left, right, 0
    arena = arena if arena is not None else default_arena()
    L, R, W = left, right, left + k
    seg = head[L:W]
    below = arena.mask(k)
    bound.below_mask_into(seg, below)
    idx_b = np.flatnonzero(below)
    nb = len(idx_b)
    na = k - nb
    if na == 0:
        # The whole window is below: advance the marker, move nothing.
        return W, R, 0
    np.logical_not(below, out=below)
    idx_a = np.flatnonzero(below)
    if W == R:
        # Final window: partition [L, R) outright.
        _apply_index_groups(head, tails, L, R, (idx_b, idx_a), arena)
        return L + nb, L + nb, k
    if R - na < W:
        # The above-destination overlaps the window: permute all of [L, R).
        m = R - L
        order_mid = np.arange(k, m)
        _apply_index_groups(head, tails, L, R, (idx_b, order_mid, idx_a), arena)
        return L + nb, R - na, m
    # Disjoint destinations: compact belows to the front and swap the
    # window's aboves with the untouched run just before the above block —
    # staged (window belows, window aboves, displaced run) in one scratch
    # buffer, then each run written to its final slot.
    n_move = k + na
    scratch = _reserve_scratch(arena, (head, *tails), n_move)
    for arr in (head, *tails):
        buf = scratch[arr.dtype]
        win = arr[L:W]
        np.take(win, idx_b, out=buf[:nb], mode="wrap")
        np.take(win, idx_a, out=buf[nb:k], mode="wrap")
        buf[k:n_move] = arr[R - na:R]
        arr[L:L + nb] = buf[:nb]
        arr[L + nb:W] = buf[k:n_move]
        arr[R - na:R] = buf[nb:k]
    return L + nb, R - na, k + na


def sort_piece(
    head: np.ndarray,
    tails: Sequence[np.ndarray],
    lo: int,
    hi: int,
    arena: KernelArena | None = None,
) -> None:
    """Stable-sort ``head[lo:hi]`` and co-reorder the tails.

    Used when the head column of a fully cracked (cache-resident) piece is
    about to be dropped: sorting makes any future crack of the piece a binary
    search, and being stable it is deterministic, so it can be logged to a
    tape and replayed for alignment.
    """
    fault_hook("kernels.sort_piece", head[lo:hi])
    order = np.argsort(head[lo:hi], kind="stable")
    apply_permutation(head, tails, lo, hi, order, arena)
