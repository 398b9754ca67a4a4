"""FaultSan: a deterministic, seedable failpoint registry.

A :class:`FaultPlan` arms named *injection sites* threaded through the hot
mutation paths (crack kernels, arena allocation, tape append, map alignment,
gang replay, chunk fetch, ripple merge).  Each site is a single
:func:`fault_hook` call; when no plan is installed the hook is one global
``None`` check, so the fault-free path stays effectively free.

Plans are written as a comma-separated spec string::

    site[@N[..M]]=kind[,site[@N[..M]]=kind...]

``N`` is the 1-based *hit count* at which the fault fires (default 1: the
first time the site is reached).  ``N..M`` arms the spec for *every* hit in
the inclusive range — a multi-shot fault that keeps firing until the site
has been visited ``M`` times, which is how plans express several
simultaneous armed failpoints (the engine's recovery loop must converge
once all shots are spent).  ``kind`` is one of:

* ``error``   — raise :class:`repro.errors.InjectedFault` (default);
* ``oom``     — raise :class:`repro.errors.ArenaPressure` (a ``MemoryError``);
  meant for ``arena.alloc``, where it leaves the kernel before any array is
  mutated and is recovered like every other fault (rollback, heal, scan
  fallback);
* ``corrupt`` — flip payload values in place at a payload-carrying site and
  mark the plan *dirty*; the atomic guard then forces a deep validation so
  CrackSan checksums catch the damage.

Hit counting is per-site and deterministic: the same workload under the same
plan injects at exactly the same operation every run.  Corruption uses an RNG
seeded from ``(seed, site)`` so the flipped positions replay too.

``--faults``, a config's ``[run] faults`` and the pytest option arm a plan
through one scoped :class:`repro.analysis.checks.Checks` (``@N`` counts hits
across the block); no ``Database`` installs one.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field

import numpy as np

from repro.errors import ArenaPressure, InjectedFault, ReproError
from repro.server.locks import Mutex

#: Every registered failpoint site.  Docs and the chaos CI job iterate this;
#: ``fault_hook`` refuses unknown names so the catalog can never drift from
#: the instrumented code.
SITES: tuple[str, ...] = (
    "kernels.crack_two",
    "kernels.crack_three",
    "kernels.sort_piece",
    "kernels.progressive_step",
    "crack.crack_bound",
    "arena.alloc",
    "tape.append",
    "mapset.align",
    "mapset.gang_replay",
    "partial.align",
    "partial.gang_replay",
    "chunkmap.fetch",
    "ripple.merge_insertions",
    "ripple.delete_positions",
    "persist.save",
    "persist.load",
    "procpool.worker",
    "procpool.retry",
    "procpool.breaker",
)

KINDS: tuple[str, ...] = ("error", "oom", "corrupt")

#: Sites whose hook passes an array payload, i.e. where ``corrupt`` can act.
PAYLOAD_SITES: frozenset[str] = frozenset(
    {
        "kernels.crack_two",
        "kernels.crack_three",
        "kernels.sort_piece",
        "kernels.progressive_step",
        "mapset.align",
        "partial.align",
        "chunkmap.fetch",
        "ripple.merge_insertions",
        "persist.save",
        "persist.load",
    }
)


class FaultPlanError(ReproError):
    """A fault-plan spec string is malformed or names an unknown site."""


@dataclass
class FaultSpec:
    """One armed failpoint: fire ``kind`` on the ``hit``-th visit to ``site``.

    With ``hit_end`` set the spec is *multi-shot*: it fires on every visit in
    the inclusive ``[hit, hit_end]`` range.
    """

    site: str
    hit: int = 1
    kind: str = "error"
    hit_end: int | None = None

    def matches(self, count: int) -> bool:
        """Does this spec fire on the ``count``-th visit to its site?"""
        return self.hit <= count <= (self.hit_end or self.hit)

    def shots(self) -> int:
        """How many times this spec can fire in total."""
        return (self.hit_end or self.hit) - self.hit + 1

    def describe(self) -> str:
        if self.hit_end is not None:
            return f"{self.site}@{self.hit}..{self.hit_end}={self.kind}"
        return f"{self.site}@{self.hit}={self.kind}"


@dataclass
class FaultPlan:
    """A set of armed failpoints plus the injection bookkeeping.

    ``hits`` counts visits per site (grows even after the fault fired, so a
    plan can report coverage); ``injected`` logs every fault actually fired;
    ``dirty`` flags that a ``corrupt`` fault mutated live data — the atomic
    guard uses it to force deep validation on an otherwise clean commit.
    """

    specs: tuple[FaultSpec, ...] = ()
    seed: int = 42
    hits: dict[str, int] = field(default_factory=dict)
    injected: list[str] = field(default_factory=list)
    dirty: bool = False
    #: Hit counting must stay deterministic per *site* even when several
    #: serving threads reach hooks concurrently; the lock makes each visit's
    #: count-then-match atomic.  (Cross-site interleaving is inherently
    #: schedule-dependent; per-site counts are not.)
    _lock: Mutex = field(
        default_factory=lambda: Mutex("faultplan"), repr=False, compare=False
    )

    @classmethod
    def parse(cls, spec: str, seed: int = 42) -> "FaultPlan":
        """Parse ``site[@N[..M]]=kind`` comma-separated spec into a plan."""
        specs: list[FaultSpec] = []
        for raw in spec.split(","):
            part = raw.strip()
            if not part:
                continue
            site_part, _, kind = part.partition("=")
            kind = kind.strip() or "error"
            site, _, hit_part = site_part.strip().partition("@")
            site = site.strip()
            lo_part, dots, hi_part = hit_part.partition("..")
            try:
                hit = int(lo_part) if lo_part else 1
                hit_end = int(hi_part) if dots else None
            except ValueError:
                raise FaultPlanError(f"bad hit count in fault spec {part!r}") from None
            if site not in SITES:
                raise FaultPlanError(
                    f"unknown fault site {site!r}; registered sites: {', '.join(SITES)}"
                )
            if kind not in KINDS:
                raise FaultPlanError(
                    f"unknown fault kind {kind!r} in {part!r}; have {', '.join(KINDS)}"
                )
            if hit < 1:
                raise FaultPlanError(f"hit count must be >= 1 in {part!r}")
            if hit_end is not None and hit_end < hit:
                raise FaultPlanError(f"empty hit range in {part!r}")
            if kind == "corrupt" and site not in PAYLOAD_SITES:
                raise FaultPlanError(
                    f"site {site!r} carries no payload; 'corrupt' applies only to: "
                    + ", ".join(sorted(PAYLOAD_SITES))
                )
            specs.append(FaultSpec(site=site, hit=hit, kind=kind, hit_end=hit_end))
        return cls(specs=tuple(specs), seed=seed)

    def describe(self) -> str:
        return ",".join(s.describe() for s in self.specs)

    def total_shots(self) -> int:
        """Upper bound on how many faults this plan can ever fire.

        The engine recovery loop uses this to bound its retries: once every
        shot is spent the workload must run clean, so a query that still
        fails afterwards is a real bug, not an injection.
        """
        return sum(spec.shots() for spec in self.specs)

    # -- injection -----------------------------------------------------------

    def visit(self, site: str, payload: np.ndarray | None) -> None:
        """Record one visit to ``site`` and fire any spec armed for this hit."""
        with self._lock:
            count = self.hits.get(site, 0) + 1
            self.hits[site] = count
            armed = [
                spec for spec in self.specs
                if spec.site == site and spec.matches(count)
            ]
            for spec in armed:
                self.injected.append(spec.describe())
        for spec in armed:
            if spec.kind == "oom":
                raise ArenaPressure(site, f"injected at hit #{count}")
            if spec.kind == "corrupt":
                self._corrupt(site, payload)
                continue
            raise InjectedFault(site, count, spec.kind)

    def _corrupt(self, site: str, payload: np.ndarray | None) -> None:
        if payload is None or getattr(payload, "size", 0) == 0:
            return
        # zlib.crc32 (not hash()) keeps the flip position stable across
        # processes regardless of PYTHONHASHSEED.
        rng = np.random.default_rng((self.seed, zlib.crc32(site.encode())))
        flat = payload.reshape(-1)
        idx = int(rng.integers(0, flat.shape[0]))
        if flat.dtype == np.bool_:
            flat[idx] = not bool(flat[idx])
        elif np.issubdtype(flat.dtype, np.integer):
            flat[idx] = flat[idx] ^ np.asarray(0x5A, dtype=flat.dtype)
        else:
            flat[idx] = flat[idx] + 1.0
        self.dirty = True


# ---------------------------------------------------------------------------
# Module-level active plan + the hook the instrumented sites call.
# ---------------------------------------------------------------------------

_ACTIVE_PLAN: FaultPlan | None = None


def active_plan() -> FaultPlan | None:
    """The currently installed plan, or ``None`` when faults are off."""
    return _ACTIVE_PLAN


def install_plan(plan: FaultPlan | None) -> None:
    """Install ``plan`` as the process-wide active plan (``None`` disarms)."""
    global _ACTIVE_PLAN
    _ACTIVE_PLAN = plan


def fault_hook(site: str, payload: np.ndarray | None = None) -> None:
    """The failpoint.  Near-free when no plan is armed (one ``None`` check).

    ``site`` must be registered in :data:`SITES`; ``payload`` is the array a
    ``corrupt`` fault may flip in place (omit at sites with no natural
    payload).  Raises :class:`InjectedFault` / :class:`ArenaPressure` when
    the active plan says this visit should fail.
    """
    plan = _ACTIVE_PLAN
    if plan is None:
        return
    # Sites reached from validation/replay scratch work (CrackSan's ghost
    # structures, journal rollback checks) stay inert: faults target the
    # production mutation paths, and firing here would corrupt the validator
    # itself and make hit counts depend on the sanitize level.
    from repro.analysis.sanitizer import is_suspended

    if is_suspended():
        return
    if site not in _SITE_SET:
        raise FaultPlanError(f"fault_hook called with unregistered site {site!r}")
    plan.visit(site, payload)


_SITE_SET = frozenset(SITES)


def resolve_plan(
    explicit: "FaultPlan | str | None" = None, seed: int = 42
) -> FaultPlan | None:
    """A plan from a spec string (parsed with ``seed``) or a ready plan;
    ``None`` or a blank spec means no faults."""
    if isinstance(explicit, FaultPlan):
        return explicit
    if explicit and explicit.strip():
        return FaultPlan.parse(explicit, seed=seed)
    return None
