"""Reusable scratch buffers for the fused crack kernels.

Every crack used to allocate ~6 temporaries (two boolean masks, the
``flatnonzero`` index arrays, the concatenated order, and one fancy-index
copy per co-cracked array).  A :class:`KernelArena` keeps one set of
buffers — a pair of boolean masks and one scratch array per payload
dtype — sized to the largest piece seen so far, so the kernels in
:mod:`repro.cracking.kernels` run allocation-light: masks are computed with
``np.less(..., out=)``, and each array is gathered with
``np.take(..., out=scratch)`` and copied back in place.

Buffers grow monotonically (doubling, so resizes stay logarithmic in the
largest piece) and are never returned to the allocator until
:meth:`KernelArena.clear`.  The arena is *not* a determinism concern: it
only provides storage; the permutations the kernels compute are unchanged.

A per-thread arena (:func:`default_arena`) backs all kernels by default —
pieces shrink over time, so one high-water-mark allocation per thread serves
every structure that thread cracks.  The arena is thread-*local*, not
thread-*safe*: the serving layer's partition workers each get their own
scratch set automatically, so two shards cracking concurrently never share
(and corrupt) a mask or scratch buffer.  Callers that want explicit
isolation (tests, pinned per-shard arenas) can pass their own instance to
the kernels.
"""

from __future__ import annotations

import threading

import numpy as np

from repro.faults.plan import fault_hook


class KernelArena:
    """One set of reusable kernel scratch buffers.

    ``mask``/``mask2`` hand out boolean views and ``scratch`` a per-dtype
    gather target.  Views of length ``n`` alias the front of the backing
    buffers; a request larger than the current capacity reallocates
    (doubling) and counts a resize.
    """

    __slots__ = ("_mask", "_mask2", "_scratch", "resizes", "peak_request")

    def __init__(self, capacity: int = 0) -> None:
        self._mask = np.empty(capacity, dtype=bool)
        self._mask2 = np.empty(capacity, dtype=bool)
        self._scratch: dict[np.dtype, np.ndarray] = {}
        self.resizes = 0
        self.peak_request = 0

    def _fit(self, buf: np.ndarray, n: int) -> np.ndarray:
        if buf.shape[0] >= n:
            return buf
        self.resizes += 1
        return np.empty(max(n, 2 * buf.shape[0]), dtype=buf.dtype)

    def mask(self, n: int) -> np.ndarray:
        """A boolean buffer of length ``n`` (contents undefined)."""
        fault_hook("arena.alloc")
        self.peak_request = max(self.peak_request, n)
        self._mask = self._fit(self._mask, n)
        return self._mask[:n]

    def mask2(self, n: int) -> np.ndarray:
        """A second, independent boolean buffer (for three-way partitions)."""
        fault_hook("arena.alloc")
        self.peak_request = max(self.peak_request, n)
        self._mask2 = self._fit(self._mask2, n)
        return self._mask2[:n]

    def scratch(self, dtype: np.dtype, n: int) -> np.ndarray:
        """A gather target of ``dtype`` and length ``n``."""
        fault_hook("arena.alloc")
        self.peak_request = max(self.peak_request, n)
        dtype = np.dtype(dtype)
        buf = self._scratch.get(dtype)
        if buf is None or buf.shape[0] < n:
            self.resizes += 1
            size = n if buf is None else max(n, 2 * buf.shape[0])
            buf = np.empty(size, dtype=dtype)
            self._scratch[dtype] = buf
        return buf[:n]

    def capacity(self) -> dict[str, int]:
        """Current backing-buffer sizes, keyed by buffer name/dtype."""
        out = {
            "mask": int(self._mask.shape[0]),
            "mask2": int(self._mask2.shape[0]),
        }
        for dtype, buf in self._scratch.items():
            out[f"scratch[{dtype}]"] = int(buf.shape[0])
        return out

    def stats(self) -> dict[str, object]:
        return {
            "resizes": self.resizes,
            "peak_request": self.peak_request,
            "capacity": self.capacity(),
        }

    def clear(self) -> None:
        """Release all backing buffers (e.g. after a huge one-off sort)."""
        self._mask = np.empty(0, dtype=bool)
        self._mask2 = np.empty(0, dtype=bool)
        self._scratch.clear()


_TLS = threading.local()


def default_arena() -> KernelArena:
    """This thread's arena (created on first use), unless one is passed in.

    Serial code sees the classic single shared arena (everything runs on one
    thread); concurrent partition workers each get an isolated scratch set.
    """
    arena = getattr(_TLS, "arena", None)
    if arena is None:
        arena = _TLS.arena = KernelArena()
    return arena
