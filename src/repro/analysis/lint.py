"""Repo-contract AST lint: ``python -m repro.analysis.lint [paths...]``.

The type system cannot express the repo's physical-layer contracts, so this
pass enforces them syntactically:

``payload-mutation``
    BAT payload arrays (``head`` / ``tail`` / ``tails`` / ``keys``) may be
    mutated in place (subscript assignment) only inside the stable partition
    kernels (``cracking/kernels.py``), the crack driver
    (``cracking/crack.py``), the kernel scratch arena
    (``cracking/arena.py``, whose buffers payloads round-trip through), and
    the Ripple merge (``cracking/ripple.py``, which shifts rows inside the
    buffers it owns).  Everywhere else payloads are rebound to arrays the
    kernels returned — in-place writes elsewhere would desynchronize tape
    replay.
``unseeded-random``
    No ``np.random.*`` calls outside the seeded-Generator plumbing: only
    ``np.random.default_rng(seed)`` *with* an explicit seed is allowed
    (structures derive their generators via ``policy_rng``).  Unseeded
    randomness would break replay determinism and violation reproduction.
``counter-mutation``
    The access counters (``sequential``, ``writes``, ``cracks``, ...) are
    mutated only inside ``stats/counters.py`` — everyone else goes through
    the ``StatsRecorder`` API, which is what the cost model audits.
``tape-append``
    ``.entries`` of a cracker tape is grown/modified only inside
    ``core/tape.py`` — callers use ``tape.append`` / ``tape.append_crack``,
    which maintain the update-safety watermark.
``tape-interpreter``
    ``isinstance(x, CrackEntry | SortEntry | ProgressiveCrackEntry)`` (alone
    or in a tuple) appears only in ``core/replay.py`` — the one function
    that turns a tape entry into a permutation, and the one gang driver —
    and ``core/tape.py``.  A second interpreter would have to be kept
    policy- and RNG-free by hand, and would drift (three once did).
``bitvector-plan``
    ``BitVector`` is imported or constructed only in ``core/sideways.py`` —
    the one operator suite both facades run their plans through —
    ``core/bitvector.py`` and ``engine/sideways_engine.py`` (join sides keep
    positions inside ``w``).  A bit-vector plan written anywhere else is a
    second copy of the suite, and the two copies once drifted.
``mutable-default``
    No mutable default arguments (lists/dicts/sets or calls constructing
    them).
``bare-except``
    No ``except:`` without an exception type.
``broad-except``
    No ``except Exception`` / ``except BaseException`` handlers.  The fault
    subsystem (:mod:`repro.faults`) injects :class:`InjectedFault` at
    registered failpoint sites and relies on it propagating to the atomic
    guard; a blanket handler anywhere on that path would swallow the fault
    and defeat both the rollback journal and the chaos suite.  Name the
    exception types instead (``repro.faults.guard.RECOVERABLE`` exists for
    exactly this purpose).
``raw-lock-construction``
    ``threading.Lock`` / ``RLock`` / ``Condition`` / ``Semaphore`` may be
    constructed only in :mod:`repro.server.locks` (plus the race detector's
    own internals, which cannot instrument themselves).  Everything else
    uses :class:`~repro.server.locks.Mutex` / ``RWLock`` so RaceSan sees
    every acquisition and the LockSan discipline stays checkable.
``sleep-under-lock``
    No ``time.sleep`` lexically inside a ``with``-statement acquiring a
    lock (``.read()`` / ``.write()`` / a lock-ish context expression) —
    sleeping while holding a lock turns one slow request into a convoy.
    (:mod:`repro.analysis.locklint` does the interprocedural version of
    this check over the serving layer; this rule is the cheap file-local
    net for the whole tree.)

Each rule carries a file allowlist (matched at path-component boundaries
after ``/``-normalization, so ``./``-prefixed, relative, and absolute
spellings of the same file all match — and ``mycracking/kernels.py`` does
not match the ``cracking/kernels.py`` entry).

Exit status contract (stable, relied on by CI and the tests):

* **0** — every linted file is clean;
* **1** — at least one violation (or unparseable file) was reported;
* **2** — usage error: unknown flags, or a named path that does not exist.
"""

from __future__ import annotations

import argparse
import ast
import sys
from dataclasses import dataclass
from pathlib import Path

#: Attribute/variable names holding BAT payload arrays.
PAYLOAD_NAMES = frozenset({"head", "tail", "tails", "keys"})

#: Counter fields of ``repro.stats.counters.AccessStats``.
COUNTER_FIELDS = frozenset({
    "sequential", "clustered_random", "scattered_random", "writes", "cracks",
    "index_lookups", "map_creations", "chunk_creations", "chunk_drops",
    "alignment_replays", "dd_cuts", "random_cracks", "policy_cuts",
})

#: Tape entry types only the tape interpreter may dispatch on.
REPLAYED_ENTRY_TYPES = frozenset({"CrackEntry", "SortEntry", "ProgressiveCrackEntry"})

#: rule name -> (description, file-suffix allowlist)
RULES: dict[str, tuple[str, tuple[str, ...]]] = {
    "payload-mutation": (
        "BAT payload arrays mutated outside the partition kernels",
        (
            "cracking/kernels.py", "cracking/crack.py", "cracking/arena.py",
            "cracking/ripple.py",
        ),
    ),
    "unseeded-random": (
        "np.random used outside the seeded-Generator plumbing",
        (),
    ),
    "counter-mutation": (
        "access counters mutated outside the Counters API",
        ("stats/counters.py",),
    ),
    "tape-append": (
        "tape entries grown outside the tape API",
        ("core/tape.py",),
    ),
    "tape-interpreter": (
        "tape entry types dispatched on outside the tape interpreter",
        ("core/replay.py", "core/tape.py"),
    ),
    "bitvector-plan": (
        "bit-vector plan outside the one sideways operator suite",
        ("core/sideways.py", "core/bitvector.py", "engine/sideways_engine.py"),
    ),
    "mutable-default": ("mutable default argument", ()),
    "bare-except": ("bare except: clause", ()),
    "broad-except": (
        "over-broad except Exception/BaseException handler "
        "(would swallow injected faults)",
        (),
    ),
    "raw-lock-construction": (
        "raw threading lock constructed outside repro.server.locks",
        # The lock module itself, plus the race detector's own internals —
        # a detector cannot instrument the locks it synchronizes with.
        ("server/locks.py", "analysis/racesan.py", "analysis/diagnostics.py"),
    ),
    "sleep-under-lock": (
        "time.sleep while lexically holding a lock",
        (),
    ),
}


class LintUsageError(Exception):
    """Bad invocation (unknown path, ...); ``main`` maps this to exit 2."""


@dataclass(frozen=True)
class LintViolation:
    path: str
    line: int
    col: int
    rule: str
    message: str

    def describe(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: [{self.rule}] {self.message}"


def _allowed(path: Path, rule: str) -> bool:
    # Match allowlist entries at path-component boundaries so that
    # "cracking/kernels.py", "./src/.../cracking/kernels.py", and an absolute
    # spelling of the same file all hit the same entry — while a file merely
    # *named* like one ("mycracking/kernels.py") does not.  Path() already
    # normalizes a leading "./" away.
    posix = path.as_posix()
    return any(
        posix == suffix or posix.endswith("/" + suffix)
        for suffix in RULES[rule][1]
    )


def _attr_or_name(node: ast.AST) -> str | None:
    """The trailing identifier of a Name or Attribute, else None."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _dotted(node: ast.AST) -> str | None:
    """Render a Name/Attribute chain as ``a.b.c``; None for anything else."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


_MUTABLE_LITERALS = (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp,
                     ast.SetComp)
_MUTABLE_CALLS = frozenset({"list", "dict", "set", "bytearray", "defaultdict",
                            "Counter", "deque"})

#: threading constructors that mint an untracked lock.
_LOCK_CTORS = frozenset({"Lock", "RLock", "Condition", "Semaphore",
                         "BoundedSemaphore"})
#: RWLock context-manager entry points; a ``with x.read():`` body holds x.
_LOCK_METHODS = frozenset({"read", "write", "try_read"})


def _lockish(expr: ast.AST) -> str | None:
    """A display string when ``expr`` looks like it acquires a lock.

    Heuristic on purpose — the file-local net under the interprocedural
    locklint pass: ``with something.read():`` / ``.write()`` /
    ``.try_read()``, or a bare context whose trailing name mentions
    lock/mutex (``with self._lock:``).
    """
    if (
        isinstance(expr, ast.Call)
        and isinstance(expr.func, ast.Attribute)
        and expr.func.attr in _LOCK_METHODS
    ):
        return ast.unparse(expr)
    name = _attr_or_name(expr)
    if name is not None:
        lowered = name.lower()
        if "lock" in lowered or "mutex" in lowered:
            return ast.unparse(expr)
    return None


class _FileLinter(ast.NodeVisitor):
    """One file's lint pass; collects violations for the enabled rules."""

    def __init__(self, path: Path, numpy_aliases: frozenset[str],
                 threading_aliases: frozenset[str] = frozenset({"threading"}),
                 lock_ctors: "dict[str, str] | None" = None,
                 time_aliases: frozenset[str] = frozenset({"time"}),
                 sleep_names: frozenset[str] = frozenset()) -> None:
        self.path = path
        self.numpy_aliases = numpy_aliases
        self.threading_aliases = threading_aliases
        self.lock_ctors = lock_ctors or {}
        self.time_aliases = time_aliases
        self.sleep_names = sleep_names
        self.violations: list[LintViolation] = []
        self._lock_stack: list[str] = []

    def _report(self, node: ast.AST, rule: str, message: str) -> None:
        if _allowed(self.path, rule):
            return
        self.violations.append(LintViolation(
            self.path.as_posix(), node.lineno, node.col_offset, rule, message,
        ))

    # -- payload / counter / tape writes ------------------------------------------

    def _check_store_target(self, target: ast.AST, node: ast.AST) -> None:
        if isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._check_store_target(element, node)
            return
        if isinstance(target, ast.Subscript):
            base = target.value
            name = _attr_or_name(base)
            if name in PAYLOAD_NAMES:
                self._report(
                    node, "payload-mutation",
                    f"in-place write to payload array {name!r}; only the "
                    f"partition kernels may do this — rebind to a kernel "
                    f"result instead",
                )
            elif name == "entries":
                self._report(
                    node, "tape-append",
                    "direct write into tape entries; use the tape API",
                )
            # Subscripted payloads of a subscripted container
            # (e.g. tails[0][lo:hi] = ...) count too.
            elif isinstance(base, ast.Subscript):
                inner = _attr_or_name(base.value)
                if inner in PAYLOAD_NAMES:
                    self._report(
                        node, "payload-mutation",
                        f"in-place write through payload container {inner!r}; "
                        f"only the partition kernels may do this",
                    )
            return
        if isinstance(target, ast.Attribute) and target.attr in COUNTER_FIELDS:
            self._report(
                node, "counter-mutation",
                f"direct mutation of counter field {target.attr!r}; go "
                f"through the StatsRecorder API",
            )

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            self._check_store_target(target, node)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._check_store_target(node.target, node)
        self.generic_visit(node)

    # -- tape API calls --------------------------------------------------------------

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if (
            isinstance(func, ast.Attribute)
            and func.attr in ("append", "extend", "insert", "pop", "remove",
                              "clear")
            and _attr_or_name(func.value) == "entries"
        ):
            self._report(
                node, "tape-append",
                f"tape entries .{func.attr}() outside the tape API; use "
                f"tape.append / tape.append_crack",
            )
        if (
            isinstance(func, ast.Name)
            and func.id == "isinstance"
            and len(node.args) == 2
        ):
            dispatched = REPLAYED_ENTRY_TYPES & {
                _attr_or_name(sub) for sub in ast.walk(node.args[1])
            }
            if dispatched:
                self._report(
                    node, "tape-interpreter",
                    f"isinstance dispatch on {', '.join(sorted(dispatched))}; "
                    f"only repro.core.replay interprets tape entries — call "
                    f"apply_entry / align_gang instead",
                )
        # ``BitVector(n)`` and ``BitVector.from_mask(mask)`` alike.
        if "BitVector" in (
            _attr_or_name(func), _attr_or_name(getattr(func, "value", None))
        ):
            self._report(
                node, "bitvector-plan",
                "BitVector constructed outside the operator suite; run the "
                "plan through SidewaysFacade.select_project / query",
            )
        self._check_random_call(node)
        self._check_lock_call(node)
        self._check_sleep_call(node)
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if any(item.name == "BitVector" for item in node.names):
            self._report(
                node, "bitvector-plan",
                "BitVector imported outside the operator suite; run the "
                "plan through SidewaysFacade.select_project / query",
            )

    # -- concurrency rules -----------------------------------------------------------

    def _check_lock_call(self, node: ast.Call) -> None:
        dotted = _dotted(node.func)
        if dotted is None:
            return
        parts = dotted.split(".")
        ctor = None
        if (len(parts) == 2 and parts[0] in self.threading_aliases
                and parts[1] in _LOCK_CTORS):
            ctor = parts[1]
        elif len(parts) == 1 and parts[0] in self.lock_ctors:
            ctor = self.lock_ctors[parts[0]]
        if ctor is not None:
            self._report(
                node, "raw-lock-construction",
                f"raw threading.{ctor}() constructed outside "
                f"repro.server.locks; use Mutex/RWLock so RaceSan sees "
                f"every acquisition",
            )

    def _check_sleep_call(self, node: ast.Call) -> None:
        if not self._lock_stack:
            return
        dotted = _dotted(node.func)
        if dotted is None:
            return
        parts = dotted.split(".")
        is_sleep = (
            (len(parts) == 2 and parts[0] in self.time_aliases
             and parts[1] == "sleep")
            or (len(parts) == 1 and parts[0] in self.sleep_names)
        )
        if is_sleep:
            self._report(
                node, "sleep-under-lock",
                f"time.sleep while holding {self._lock_stack[-1]!r}; "
                f"sleeping under a lock convoys every waiter",
            )

    def visit_With(self, node: ast.With) -> None:
        held = [label for item in node.items
                if (label := _lockish(item.context_expr)) is not None]
        self._lock_stack.extend(held)
        self.generic_visit(node)
        if held:
            del self._lock_stack[-len(held):]

    def _check_random_call(self, node: ast.Call) -> None:
        dotted = _dotted(node.func)
        if dotted is None:
            return
        parts = dotted.split(".")
        if len(parts) < 2:
            return
        head, rest = parts[0], parts[1:]
        if head not in self.numpy_aliases or rest[0] != "random":
            return
        if rest[1:] == ["default_rng"]:
            if not node.args and not node.keywords:
                self._report(
                    node, "unseeded-random",
                    "np.random.default_rng() without a seed; pass an "
                    "explicit seed (see policy_rng)",
                )
            return
        if rest[1:]:  # np.random.rand / randint / seed / ...
            self._report(
                node, "unseeded-random",
                f"legacy np.random.{'.'.join(rest[1:])}() call; use a seeded "
                f"Generator from policy_rng instead",
            )

    # -- defaults and handlers -----------------------------------------------------------

    def _check_defaults(self, node) -> None:
        args = node.args
        for default in list(args.defaults) + [
            d for d in args.kw_defaults if d is not None
        ]:
            if isinstance(default, _MUTABLE_LITERALS):
                self._report(
                    default, "mutable-default",
                    f"mutable default argument in {node.name}(); use None "
                    f"and create inside",
                )
            elif isinstance(default, ast.Call):
                called = _attr_or_name(default.func)
                if called in _MUTABLE_CALLS:
                    self._report(
                        default, "mutable-default",
                        f"mutable default argument {called}() in "
                        f"{node.name}(); use None and create inside",
                    )

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._check_defaults(node)
        self.generic_visit(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._check_defaults(node)
        self.generic_visit(node)

    def visit_ExceptHandler(self, node: ast.ExceptHandler) -> None:
        if node.type is None:
            self._report(
                node, "bare-except",
                "bare except: clause; name the exception types",
            )
        else:
            caught = (node.type.elts if isinstance(node.type, ast.Tuple)
                      else [node.type])
            for exc_type in caught:
                name = _attr_or_name(exc_type)
                if name in ("Exception", "BaseException"):
                    self._report(
                        node, "broad-except",
                        f"except {name} handler; it would swallow injected "
                        f"faults — name the exception types (see "
                        f"repro.faults.guard.RECOVERABLE)",
                    )
        self.generic_visit(node)


def _module_aliases(tree: ast.Module, module: str) -> frozenset[str]:
    """Names the file binds to ``module`` (``import numpy as np``)."""
    aliases = {module}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for item in node.names:
                if item.name == module:
                    aliases.add(item.asname or module)
    return frozenset(aliases)


def _from_import_aliases(
    tree: ast.Module, module: str, names: frozenset[str]
) -> dict[str, str]:
    """Local alias -> original name for ``from module import name [as alias]``."""
    out: dict[str, str] = {}
    for node in ast.walk(tree):
        if (isinstance(node, ast.ImportFrom) and node.module == module
                and node.level == 0):
            for item in node.names:
                if item.name in names:
                    out[item.asname or item.name] = item.name
    return out


def lint_file(path: Path) -> list[LintViolation]:
    try:
        source = path.read_text(encoding="utf-8")
        tree = ast.parse(source, filename=str(path))
    except (OSError, SyntaxError) as err:
        return [LintViolation(path.as_posix(), getattr(err, "lineno", 1) or 1,
                              0, "parse-error", str(err))]
    linter = _FileLinter(
        path,
        _module_aliases(tree, "numpy"),
        threading_aliases=_module_aliases(tree, "threading"),
        lock_ctors=_from_import_aliases(tree, "threading", _LOCK_CTORS),
        time_aliases=_module_aliases(tree, "time"),
        sleep_names=frozenset(
            _from_import_aliases(tree, "time", frozenset({"sleep"}))
        ),
    )
    linter.visit(tree)
    return linter.violations


def iter_python_files(paths: list[str]) -> list[Path]:
    """Expand ``paths`` to the ``.py`` files to lint.

    Raises :class:`LintUsageError` for a named path that does not exist —
    a typo'd path silently linting zero files would report "clean" for
    code that was never checked.
    """
    out: list[Path] = []
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            out.extend(sorted(path.rglob("*.py")))
        elif path.is_file():
            if path.suffix == ".py":
                out.append(path)
        else:
            raise LintUsageError(f"no such file or directory: {raw}")
    return out


def lint_paths(paths: list[str]) -> list[LintViolation]:
    violations: list[LintViolation] = []
    for path in iter_python_files(paths):
        violations.extend(lint_file(path))
    return violations


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis.lint",
        description="Repo-contract AST lint for the cracking codebase. "
                    "Exits 0 when clean, 1 on violations, 2 on usage errors.",
    )
    parser.add_argument(
        "paths", nargs="*", default=["src"],
        help="files or directories to lint (default: src)",
    )
    parser.add_argument(
        "--list-rules", action="store_true", help="print the rule catalog",
    )
    opts = parser.parse_args(argv)
    if opts.list_rules:
        for rule, (description, allowed) in RULES.items():
            where = f" (allowed in: {', '.join(allowed)})" if allowed else ""
            print(f"{rule}: {description}{where}")
        return 0
    try:
        files = iter_python_files(opts.paths)
    except LintUsageError as err:
        print(f"repro-lint: error: {err}", file=sys.stderr)
        return 2
    violations: list[LintViolation] = []
    for path in files:
        violations.extend(lint_file(path))
    for violation in violations:
        print(violation.describe())
    status = "clean" if not violations else f"{len(violations)} violation(s)"
    print(f"repro-lint: {len(files)} file(s) checked, {status}")
    return 1 if violations else 0


if __name__ == "__main__":
    raise SystemExit(main())
