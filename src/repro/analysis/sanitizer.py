"""CrackSan: the runtime invariant sanitizer.

Every cracking structure (cracker columns, cracker maps, map sets, chunk
maps, partial map sets, chunks, row-store crackers) registers itself here at
construction time.  An active :class:`Sanitizer` then validates the unified
invariant catalog (:mod:`repro.analysis.invariants`) at checkpoints:

``off``
    No checking; registration and checkpoint hooks are near-free no-ops.
``post-crack``
    The structure that just physically reorganized is validated after every
    crack (and after update folds).  Catches corruption at the site that
    introduced it.
``post-query``
    ``post-crack`` plus a sweep over *all* registered live structures at the
    end of every engine query.  Catches cross-structure drift (e.g. a map
    left behind by a buggy alignment path).
``deep``
    ``post-query`` with the expensive catalog entries enabled: permutation
    checks against the base BATs and full tape-replay-consistency checks
    (rebuild a structure from its snapshot by replaying its tape, compare).

Violations are reported as structured
:class:`~repro.errors.InvariantViolation` records — structure id, invariant
name, piece/area context, repro seed — wrapped in an
:class:`~repro.errors.InvariantError` (strict mode, the default) or collected
on :attr:`Sanitizer.violations` (``strict=False``).

``--sanitize``, a config's ``[run] sanitize`` and the pytest option arm one
process-wide sanitizer through a scoped :class:`repro.analysis.checks.Checks`;
no ``Database`` owns one.  A tool that needs its own instance activates it::

    with Sanitizer("deep", strict=False).activated() as san:
        ...  # every structure built in here is watched
    print(san.report())

Registration uses weak references, so dropped maps and evicted chunks leave
the registry automatically, and per-structure state signatures skip
re-validation of structures that have not changed since their last clean
check.
"""

from __future__ import annotations

import threading
import weakref
from contextlib import contextmanager
from typing import Callable, Iterator

from repro.analysis.diagnostics import dump_artifact
from repro.errors import InvariantError, InvariantViolation, PlanError

#: Checkpoint levels, weakest to strongest.
LEVELS = ("off", "post-crack", "post-query", "deep")

_LEVEL_RANK = {name: rank for rank, name in enumerate(LEVELS)}

#: Deep replay checks are skipped for structures where
#: ``tape_length * structure_size`` exceeds this many element operations,
#: keeping ``deep`` usable on long benchmark workloads.
DEFAULT_DEEP_REPLAY_BUDGET = 8_000_000

def _dump_repro(violations: tuple[InvariantViolation, ...], level: str) -> None:
    """With ``$REPRO_CHECK_ARTIFACTS`` set, every strict-mode
    :class:`InvariantError` also drops a ``cracksan-repro-<pid>-<n>.json``
    with the structured violations and the crack seed."""
    dump_artifact("cracksan-repro", {
        "level": level,
        "violations": [
            {
                "structure": v.structure,
                "invariant": v.invariant,
                "detail": v.detail,
                "context": [[str(k), str(val)] for k, val in v.context],
                "crack_seed": v.seed,
            }
            for v in violations
        ],
    })


def resolve_level(level: str | bool | None = None) -> str:
    """Normalize a sanitize level spec (``None`` means ``off``).

    Accepts the four level names (``_``/``-`` interchangeable), booleans
    (``True`` means ``post-query``), and a handful of off-synonyms.
    """
    if isinstance(level, bool):
        return "post-query" if level else "off"
    name = str(level).strip().lower().replace("_", "-")
    if name in ("", "none", "0", "false"):
        name = "off"
    elif name in ("1", "true", "on"):
        name = "post-query"
    if name not in _LEVEL_RANK:
        raise PlanError(
            f"unknown sanitize level {level!r}; choose one of {LEVELS}"
        )
    return name


#: The currently active sanitizers.  A weak set: a sanitizer stays active
#: only while something (an armed ``Checks`` scope, a tool) holds it.
_ACTIVE: "weakref.WeakSet[Sanitizer]" = weakref.WeakSet()

#: Re-entrancy guard: validation itself builds scratch structures (e.g. the
#: replay copy of a map) that must not register or trigger checkpoints.
#: Thread-local so one worker validating never blinds the checkpoints (or
#: FaultSan's hit counting) of the other serving threads.
_SUSPEND = threading.local()


@contextmanager
def suspended() -> Iterator[None]:
    """Temporarily disable registration and checkpoints (scratch structures)."""
    _SUSPEND.depth = getattr(_SUSPEND, "depth", 0) + 1
    try:
        yield
    finally:
        _SUSPEND.depth -= 1


def is_suspended() -> bool:
    """True while validation/replay scratch work is in flight on this thread.

    FaultSan consults this: injection sites fired from inside the validator
    (ghost replay reuses the production crack/ripple code) must stay inert,
    or a fault plan would corrupt the sanitizer's own scratch structures and
    make hit counts depend on the sanitize level.
    """
    return getattr(_SUSPEND, "depth", 0) > 0


def register_structure(obj: object, kind: str, label: str | None = None) -> None:
    """Hook called from structure constructors; registers with active sanitizers."""
    if not _ACTIVE or is_suspended():
        return
    for sanitizer in list(_ACTIVE):
        sanitizer.register(obj, kind, label)


def checkpoint_crack(obj: object, kind: str) -> None:
    """Hook called right after a structure physically reorganized itself."""
    if not _ACTIVE or is_suspended():
        return
    for sanitizer in list(_ACTIVE):
        sanitizer.on_crack(obj, kind)


def checkpoint_query() -> None:
    """Hook called by engines at the end of every query."""
    if not _ACTIVE or is_suspended():
        return
    for sanitizer in list(_ACTIVE):
        sanitizer.on_query()


def active_sanitizers() -> list["Sanitizer"]:
    return list(_ACTIVE)


class Sanitizer:
    """One CrackSan instance: a registry of watched structures plus a level.

    Parameters
    ----------
    level:
        Checkpoint level (see module docstring).
    seed:
        The run's ``crack_seed``, stamped onto every violation so stochastic
        runs can be replayed.
    strict:
        Raise :class:`InvariantError` at the failing checkpoint (default).
        With ``strict=False`` violations are only collected on
        :attr:`violations` — the mode fuzz harnesses use to keep scanning.
    deep_replay_budget:
        Skip a deep tape-replay check when ``len(tape) * len(structure)``
        exceeds this; ``None`` removes the cap.
    checksums:
        Fold a strided-sample content checksum of every payload array into
        the skip-cache signature, so purely in-place corruption (same
        lengths, same cursors) is caught at the next checkpoint instead of
        hiding until the structure legitimately changes.  Defaults to on at
        level ``deep``, off below.
    """

    def __init__(
        self,
        level: str | bool | None = "post-query",
        seed: int | None = None,
        strict: bool = True,
        deep_replay_budget: int | None = DEFAULT_DEEP_REPLAY_BUDGET,
        checksums: bool | None = None,
    ) -> None:
        self.level = resolve_level(level)
        self.seed = seed
        self.strict = strict
        self.deep_replay_budget = deep_replay_budget
        self.checksums = self.enabled("deep") if checksums is None else bool(checksums)
        self.violations: list[InvariantViolation] = []
        self.checks_run = 0
        self.checks_skipped = 0
        self._registry: dict[int, tuple[weakref.ref, str, str | None]] = {}
        self._clean_sigs: dict[tuple[int, bool], object] = {}
        #: Registry/skip-cache mutations can arrive from any serving thread
        #: (structures register at construction time); a reentrant mutex
        #: keeps the bookkeeping coherent without serializing validation.
        #: Imported lazily: the locks module itself imports repro.analysis.
        from repro.server.locks import Mutex

        self._lock = Mutex("cracksan.registry", reentrant=True)
        #: Optional concurrency hook set by the serving layer: called with a
        #: structure about to be swept by :meth:`on_query`, must return a
        #: context manager yielding ``True`` to proceed or ``False`` to skip
        #: (structure busy in another thread — it will be validated at that
        #: thread's own checkpoint instead).
        self.structure_guard: Callable[[object], object] | None = None

    # -- lifecycle -------------------------------------------------------------

    def enabled(self, level: str) -> bool:
        return _LEVEL_RANK[self.level] >= _LEVEL_RANK[level]

    def activate(self) -> "Sanitizer":
        if self.level != "off":
            _ACTIVE.add(self)
        return self

    def deactivate(self) -> None:
        _ACTIVE.discard(self)

    @contextmanager
    def activated(self) -> Iterator["Sanitizer"]:
        self.activate()
        try:
            yield self
        finally:
            self.deactivate()

    # -- registry --------------------------------------------------------------

    def register(self, obj: object, kind: str, label: str | None = None) -> None:
        key = id(obj)

        def _gone(_ref: weakref.ref, key: int = key) -> None:
            with self._lock:
                self._registry.pop(key, None)
                self._clean_sigs.pop((key, False), None)
                self._clean_sigs.pop((key, True), None)

        try:
            ref = weakref.ref(obj, _gone)
        except TypeError:  # pragma: no cover - all structures are weakrefable
            return
        with self._lock:
            self._registry[key] = (ref, kind, label)

    def structures(self) -> Iterator[tuple[object, str, str | None]]:
        """Live registered structures (dead weakrefs are pruned lazily)."""
        with self._lock:
            entries = list(self._registry.values())
        for ref, kind, label in entries:
            obj = ref()
            if obj is not None:
                yield obj, kind, label

    # -- validation ------------------------------------------------------------

    def validate(
        self, obj: object, kind: str, label: str | None = None, deep: bool = False
    ) -> list[InvariantViolation]:
        """Run the catalog checks for one structure, honoring the skip cache."""
        from repro.analysis import invariants

        if getattr(obj, "_quarantined", None) is not None:
            # FaultSan quarantined the structure: it is known-broken and
            # awaiting a lazy rebuild, so validating it would only re-report
            # the same damage.
            self.checks_skipped += 1
            return []
        key = (id(obj), deep)
        sig = invariants.signature(obj, kind, content=self.checksums)
        with self._lock:
            if sig is not None and self._clean_sigs.get(key) == sig:
                self.checks_skipped += 1
                return []
        with suspended():
            found = invariants.check(
                obj, kind, deep=deep, seed=self.seed, label=label,
                replay_budget=self.deep_replay_budget,
            )
        self.checks_run += 1
        if not found:
            if sig is not None:
                with self._lock:
                    self._clean_sigs[key] = sig
            return []
        with self._lock:
            self._clean_sigs.pop(key, None)
        self.violations.extend(found)
        if self.strict:
            _dump_repro(tuple(found), self.level)
            raise InvariantError.from_violations(found)
        return found

    def on_crack(self, obj: object, kind: str) -> None:
        if self.enabled("post-crack"):
            _, _, label = self._registry.get(id(obj), (None, kind, None))
            self.validate(obj, kind, label=label)

    def on_query(self) -> None:
        if not self.enabled("post-query"):
            return
        deep = self.enabled("deep")
        guard = self.structure_guard
        for obj, kind, label in self.structures():
            if guard is not None:
                with guard(obj) as proceed:  # type: ignore[union-attr]
                    if not proceed:
                        # Busy under another thread's write lock; that thread
                        # validates it at its own checkpoint, so skipping here
                        # loses no coverage and avoids sweep-vs-crack races.
                        self.checks_skipped += 1
                        continue
                    self.validate(obj, kind, label=label, deep=deep)
            else:
                self.validate(obj, kind, label=label, deep=deep)

    # -- reporting ---------------------------------------------------------------

    def report(self) -> str:
        """Human-readable summary of what ran and what (if anything) broke."""
        lines = [
            f"CrackSan level={self.level} strict={self.strict}: "
            f"{self.checks_run} checks run, {self.checks_skipped} skipped "
            f"(unchanged), {len(self.violations)} violation(s), "
            f"{sum(1 for _ in self.structures())} live structure(s) watched"
        ]
        for violation in self.violations:
            lines.append("  " + violation.describe())
        return "\n".join(lines)
