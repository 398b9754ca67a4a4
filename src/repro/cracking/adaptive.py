"""Workload-adaptive crack policy selection.

Stochastic cracking (:mod:`repro.cracking.stochastic`) defends against
adversarial bound sequences at the price of auxiliary work; query-driven
cracking is optimal when bounds arrive spread out (random workloads
subdivide the column geometrically on their own).  Neither dominates, and
the right choice can differ *per structure* and *per phase* of a workload.

:class:`AdaptivePolicy` picks at piece granularity.  A per-structure monitor
(keyed by the structure's cracker index, fed by the ``observe`` hook in
:func:`repro.cracking.crack.crack_bound` — primary crack sites only, never
replays) keeps a sliding window of recently requested bound values.  A fresh
crack is routed to MDD1R when the workload looks adversarial for
query-driven cracking:

* **clustered bounds** — the median distance between consecutive bounds is a
  small fraction of the value range seen so far (sequential sweeps, zoom-in
  and periodic patterns all look like this), so query-driven cuts keep
  landing next to each other and leave one huge piece untouched; or
* **non-converging pieces** — the enclosing piece is far larger than the
  steady state a well-spread workload of this length would have produced.

Otherwise the crack is plain query-driven.  Early cracks (too few
observations to judge) default to MDD1R: its fused random cut costs no
extra pass, so the defensive choice is essentially free.

Determinism: the monitor state advances only at primary crack sites, in
query order, and the random cuts themselves come from the structure's seeded
policy RNG — tape replay stays policy-free and exact, like every other
stochastic policy.
"""

from __future__ import annotations

from collections import deque
from typing import Sequence

import numpy as np

from repro.cracking.bounds import Bound
from repro.cracking.index import CrackerIndex
from repro.cracking.stochastic import MDD1R, CrackPolicy
from repro.stats.counters import StatsRecorder


class _Monitor:
    """Sliding-window bound statistics of one cracked structure."""

    __slots__ = ("recent", "total", "vmin", "vmax")

    def __init__(self, window: int) -> None:
        self.recent: deque[float] = deque(maxlen=window)
        self.total = 0
        self.vmin = np.inf
        self.vmax = -np.inf

    def add(self, value: float) -> None:
        self.recent.append(value)
        self.total += 1
        self.vmin = min(self.vmin, value)
        self.vmax = max(self.vmax, value)

    @property
    def span(self) -> float:
        return self.vmax - self.vmin

    def median_delta(self) -> float:
        values = list(self.recent)
        deltas = [abs(b - a) for a, b in zip(values, values[1:])]
        return float(np.median(deltas)) if deltas else np.inf


class AdaptivePolicy(CrackPolicy):
    """``auto``: switch between query-driven and MDD1R per fresh crack.

    Tunables: ``window`` is the sliding-window length of the per-structure
    monitor; ``locality_threshold`` is the clustered-bounds trigger (median
    consecutive-bound distance below this fraction of the observed value
    span); ``bloat_factor`` is the non-convergence trigger (enclosing piece
    larger than ``bloat_factor * n / cracks_seen``); ``warmup`` is how many
    observations must accumulate before the monitor's verdict is trusted.
    """

    name = "auto"

    def __init__(
        self,
        min_piece: int | None = None,
        window: int = 8,
        locality_threshold: float = 0.25,
        bloat_factor: float = 4.0,
        warmup: int = 4,
    ) -> None:
        super().__init__(min_piece)
        self.window = int(window)
        self.locality_threshold = float(locality_threshold)
        self.bloat_factor = float(bloat_factor)
        self.warmup = int(warmup)
        self._mdd1r = MDD1R(min_piece=self.min_piece)
        self._monitors: dict[int, _Monitor] = {}
        #: Exposed selection counters (read by benchmarks and tests).
        self.decisions = {"mdd1r": 0, "query_driven": 0}

    # -- monitoring (primary crack sites only) --------------------------------

    def observe(
        self, index: CrackerIndex, bound: Bound, lo: int, hi: int, n: int
    ) -> None:
        """Record one requested bound for the structure owning ``index``."""
        monitor = self._monitors.get(id(index))
        if monitor is None:
            if len(self._monitors) >= 256:
                self._monitors.clear()  # unbounded-growth backstop
            monitor = self._monitors[id(index)] = _Monitor(self.window)
        monitor.add(float(bound.value))

    def _adversarial(self, index: CrackerIndex, lo: int, hi: int, n: int) -> bool:
        monitor = self._monitors.get(id(index))
        if monitor is None or monitor.total < self.warmup:
            return True  # too early to judge: the free random cut is insurance
        span = monitor.span
        if span <= 0:
            return True  # every recent bound identical — degenerate locality
        if monitor.median_delta() <= self.locality_threshold * span:
            return True
        steady = self.bloat_factor * n / max(1, monitor.total)
        return (hi - lo) > max(steady, self.bloat_factor * self.min_piece)

    # -- cracking -------------------------------------------------------------

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
        if hi - lo > self.min_piece and self._adversarial(index, lo, hi, n=len(head)):
            self.decisions["mdd1r"] += 1
            return self._mdd1r.crack_piece(
                index, head, tails, lo, hi, bound, rng, recorder, cut_sink
            )
        self.decisions["query_driven"] += 1
        return self._final(head, tails, lo, hi, bound, recorder)

    def describe(self) -> str:
        return (
            f"{self.name} (mdd1r vs query-driven, window={self.window}, "
            f"min_piece={self.min_piece})"
        )
