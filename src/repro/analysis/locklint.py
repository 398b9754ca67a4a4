"""LockSan static pass: ``python -m repro.analysis.locklint [paths...]``.

A lock-discipline checker for the serving layer (:mod:`repro.server`).
The dynamic half of LockSan — :mod:`repro.analysis.racesan` — catches what
actually happened on one schedule; this pass checks what *could* happen on
any schedule, from the AST alone.

**Model.**  Every function gets a summary: which locks it acquires (by
*rank* and *mode*), which functions it calls and under which held locks,
and whether it can block.  Lock expressions are classified by rank:

* ``registry.lock_for(T)`` (one argument) — a **table** lock;
* ``registry.lock_for(T, A, i)`` (several) or ``shard.lock`` — a **shard**
  lock;
* a bare context whose name mentions lock/mutex (``self._cache_mutex``,
  ``self._meta_lock``) — a **leaf mutex**.

``.read()`` / ``.write()`` / ``.try_read()`` give the mode; simple local
dataflow (``table_lock = self.registry.lock_for(...)``) carries ranks
through variables.  Effects (lock acquisitions, blocking calls) propagate
through the call graph of the serving-layer modules (files under
``server/``), resolved by callee name.  Resolution is deliberately
narrow: bare-name calls and ``self.``/``cls.`` method calls resolve, and
attribute references passed as call arguments (``pool.submit(self._serve)``)
join the graph under the call site's held locks — the scatter-gather
caller blocks on those futures, so the deferred work effectively runs
inside its critical section.  Foreign-receiver methods (``db.insert``,
``pool.submit``) do not resolve, and modules outside the serving layer
are checked file-locally only — their names collide too freely for
name-based resolution to stay sound.

**Rules.**

``lock-order-inversion``
    Acquiring a table lock while a shard lock is held (lexically, or by
    calling a function whose summary acquires one).  The serving hierarchy
    is strictly table → shard; the inverse edge is the deadlock recipe.
``lock-upgrade``
    Acquiring the write side of a lock whose read side is already held.
    :class:`~repro.server.locks.RWLock` forbids upgrades — under writer
    preference two upgrading readers deadlock each other.
``blocking-under-write-lock``
    A blocking operation — ``time.sleep``, socket calls, ``open()``,
    future/``.result()`` waits, or ``engine.run`` query execution —
    reachable while a write lock is held.  One slow call under an
    exclusive lock convoys every reader of that structure.
``unlocked-version-read``
    A read of ``db.data_version`` with no table lock held on some call
    path.  The PR 6 race class: a version sampled outside the lock that
    serialized the query can key a cache entry the data no longer matches.
``lock-in-cleanup``
    A table/shard lock acquired inside an ``except`` handler or
    ``finally`` block.  Cleanup paths run while the system is already
    wedged; blocking on a lock there turns an error into a hang.

**Suppression.**  A trailing ``# locksan: allow(rule-name)`` comment
silences that rule on that line (several rules comma-separate).  Each
suppression marks a *documented* exception — the one sanctioned in the
executor carries its correctness argument in the adjacent comment.  Raw
``threading`` lock construction outside :mod:`repro.server.locks` is
:mod:`repro.analysis.lint`'s ``raw-lock-construction`` rule.

Exit status contract (same as :mod:`repro.analysis.lint`): **0** clean,
**1** violations, **2** usage error.
"""

from __future__ import annotations

import argparse
import ast
import re
import sys
from dataclasses import dataclass, field
from pathlib import Path

from repro.analysis.lint import (
    LintUsageError,
    LintViolation,
    _attr_or_name,
    _dotted,
    _from_import_aliases,
    _module_aliases,
    iter_python_files,
)

#: rule name -> description (the ``--list-rules`` catalog).
RULES: dict[str, str] = {
    "lock-order-inversion":
        "table lock acquired while a shard lock is held "
        "(hierarchy is table -> shard)",
    "lock-upgrade":
        "write side acquired while the same lock's read side is held "
        "(RWLock forbids upgrades)",
    "blocking-under-write-lock":
        "blocking call (sleep/socket/IO/engine.run/future wait) reachable "
        "under a write lock",
    "unlocked-version-read":
        "db.data_version read with no table lock held on some call path",
    "lock-in-cleanup":
        "table/shard lock acquired inside an except/finally cleanup path",
}

#: Only functions defined in these path fragments join the call graph for
#: effect propagation; everything else is checked file-locally.
_GRAPH_SCOPE = "/server/"

TABLE, SHARD, MUTEX = "table", "shard", "mutex"

_ALLOW_RE = re.compile(r"#\s*locksan:\s*allow\(([a-z\-\s,]+)\)")

#: Method names that block the calling thread (socket and future waits).
_BLOCKING_METHODS = frozenset({
    "recv", "recv_into", "sendall", "accept", "connect", "listen",
    "makefile", "result",
})


def _allow_map(source: str) -> dict[int, frozenset[str]]:
    """line number -> rules suppressed by a ``# locksan: allow(...)`` tag."""
    out: dict[int, frozenset[str]] = {}
    for lineno, line in enumerate(source.splitlines(), 1):
        match = _ALLOW_RE.search(line)
        if match:
            out[lineno] = frozenset(
                part.strip() for part in match.group(1).split(",")
            )
    return out


# ---------------------------------------------------------------------------
# Per-function summaries
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Call:
    """One call site: callee (by trailing name) plus the held-lock stack."""

    name: str
    path: str
    line: int
    col: int
    held: tuple[tuple[str | None, str], ...]  # (rank, mode) pairs


@dataclass(frozen=True)
class _VersionRead:
    path: str
    line: int
    col: int


@dataclass
class _Summary:
    """What one function does with locks, per the rules above."""

    name: str
    qualname: str
    path: str
    in_graph: bool
    acquires: set[tuple[str, str]] = field(default_factory=set)
    calls: list[_Call] = field(default_factory=list)
    blocking: str | None = None  # reason, or None
    #: data_version reads not under a lexical table lock (and unsuppressed);
    #: discharged in the global phase if every call site holds the lock.
    version_reads: list[_VersionRead] = field(default_factory=list)


def _rank_of(expr: ast.AST, env: dict[str, str]) -> str | None:
    """Classify a lock-valued expression's rank, or None if not a lock."""
    if isinstance(expr, ast.Call):
        if _attr_or_name(expr.func) == "lock_for":
            return TABLE if len(expr.args) <= 1 else SHARD
        return None
    name = _attr_or_name(expr)
    if name is None:
        return None
    if name in env:
        return env[name]
    if name == "lock":  # the `shard.lock` idiom of the partition layer
        return SHARD
    lowered = name.lower()
    if "mutex" in lowered or "lock" in lowered:
        return MUTEX
    return None


def _classify_acquire(
    expr: ast.AST, env: dict[str, str]
) -> tuple[str | None, str, str] | None:
    """(rank, mode, base text) when a with-item acquires a lock, else None."""
    if (
        isinstance(expr, ast.Call)
        and isinstance(expr.func, ast.Attribute)
        and expr.func.attr in ("read", "write", "try_read")
    ):
        mode = "write" if expr.func.attr == "write" else "read"
        return (_rank_of(expr.func.value, env), mode, ast.unparse(expr.func.value))
    rank = _rank_of(expr, env)
    if rank is not None:
        return (rank, "mutex", ast.unparse(expr))
    return None


class _FuncVisitor(ast.NodeVisitor):
    """Walk one function body tracking the lexical held-lock stack."""

    def __init__(self, linter: "LockLint", summary: _Summary,
                 aliases: "_FileAliases",
                 allows: dict[int, frozenset[str]]) -> None:
        self.linter = linter
        self.summary = summary
        self.aliases = aliases
        self.allows = allows
        self.held: list[tuple[str | None, str, str]] = []  # rank, mode, text
        self.env: dict[str, str] = {}
        self.cleanup = 0

    # -- reporting ----------------------------------------------------------

    def _report(self, node: ast.AST, rule: str, message: str) -> None:
        self.linter.emit(
            self.summary.path, node.lineno, node.col_offset, rule, message
        )

    def _suppressed(self, node: ast.AST, rule: str) -> bool:
        return rule in self.allows.get(node.lineno, frozenset())

    # -- with / try structure ------------------------------------------------

    def _note_acquire(
        self, acq: tuple[str | None, str, str], node: ast.With
    ) -> None:
        rank, mode, text = acq
        if rank in (TABLE, SHARD) or mode != "mutex":
            if self.cleanup and not self._suppressed(node, "lock-in-cleanup"):
                self._report(
                    node, "lock-in-cleanup",
                    f"{text} acquired inside an except/finally cleanup path "
                    f"in {self.summary.qualname}(); cleanup must not block "
                    f"on locks",
                )
        if rank == TABLE and any(r == SHARD for r, _m, _t in self.held):
            if not self._suppressed(node, "lock-order-inversion"):
                self._report(
                    node, "lock-order-inversion",
                    f"table lock {text} acquired while a shard lock is held "
                    f"in {self.summary.qualname}(); the hierarchy is "
                    f"table -> shard",
                )
        if mode == "write":
            for h_rank, h_mode, h_text in self.held:
                same = h_text == text or (
                    h_rank is not None and h_rank == rank
                    and rank in (TABLE, SHARD)
                )
                if h_mode == "read" and same:
                    if not self._suppressed(node, "lock-upgrade"):
                        self._report(
                            node, "lock-upgrade",
                            f"write-acquire of {text} while its read side is "
                            f"held in {self.summary.qualname}(); RWLock "
                            f"forbids upgrades (writer preference deadlocks "
                            f"upgrading readers)",
                        )
                    break
        if rank is not None:
            self.summary.acquires.add((rank, mode))

    def visit_With(self, node: ast.With) -> None:
        pushed = 0
        for item in node.items:
            self.visit(item.context_expr)
            acq = _classify_acquire(item.context_expr, self.env)
            if acq is not None:
                self._note_acquire(acq, node)
                self.held.append(acq)
                pushed += 1
        for stmt in node.body:
            self.visit(stmt)
        if pushed:
            del self.held[-pushed:]

    visit_AsyncWith = visit_With  # type: ignore[assignment]

    def visit_Try(self, node: ast.Try) -> None:
        for stmt in node.body:
            self.visit(stmt)
        for stmt in node.orelse:
            self.visit(stmt)
        self.cleanup += 1
        for handler in node.handlers:
            if handler.type is not None:
                self.visit(handler.type)
            for stmt in handler.body:
                self.visit(stmt)
        for stmt in node.finalbody:
            self.visit(stmt)
        self.cleanup -= 1

    if hasattr(ast, "TryStar"):
        visit_TryStar = visit_Try  # type: ignore[assignment]

    # -- dataflow ------------------------------------------------------------

    def visit_Assign(self, node: ast.Assign) -> None:
        if len(node.targets) == 1 and isinstance(node.targets[0], ast.Name):
            rank = _rank_of(node.value, self.env)
            if rank is not None:
                self.env[node.targets[0].id] = rank
        self.generic_visit(node)

    # -- calls and reads -------------------------------------------------------

    def _held_pairs(self) -> tuple[tuple[str | None, str], ...]:
        return tuple((rank, mode) for rank, mode, _text in self.held)

    def _record_call(self, name: str, node: ast.AST) -> None:
        self.summary.calls.append(_Call(
            name, self.summary.path, node.lineno, node.col_offset,
            self._held_pairs(),
        ))

    def _blocking_reason(self, node: ast.Call) -> str | None:
        dotted = _dotted(node.func)
        if dotted is not None:
            parts = dotted.split(".")
            if (len(parts) == 2 and parts[0] in self.aliases.time
                    and parts[1] == "sleep"):
                return "time.sleep"
            if len(parts) == 1 and parts[0] in self.aliases.sleep_names:
                return "time.sleep"
            if len(parts) > 1 and parts[0] in self.aliases.socket:
                return f"socket.{parts[1]}"
            if parts == ["open"]:
                return "open()"
        if isinstance(node.func, ast.Attribute):
            if node.func.attr in _BLOCKING_METHODS:
                return f".{node.func.attr}() (socket/future wait)"
            if (node.func.attr == "run"
                    and _attr_or_name(node.func.value) == "engine"):
                return "engine.run (query execution)"
        return None

    def visit_Call(self, node: ast.Call) -> None:
        # Name-based call resolution is kept deliberately narrow: bare-name
        # calls and self/cls method calls resolve; foreign-receiver methods
        # (pool.submit, db.insert) do not — their trailing names collide
        # with serving-layer methods and would import phantom effects.
        name = _attr_or_name(node.func)
        resolvable = isinstance(node.func, ast.Name) or (
            isinstance(node.func, ast.Attribute)
            and _attr_or_name(node.func.value) in ("self", "cls")
        )
        if name is not None and resolvable:
            self._record_call(name, node)
        # Attribute references passed as arguments (pool.submit(self._serve)
        # or submit(column.select_one)) are deferred calls whose callers
        # block on the result; they join the graph under the current held
        # stack, which keeps thread-boundary effects visible.
        for arg in list(node.args) + [kw.value for kw in node.keywords]:
            ref = _attr_or_name(arg)
            if ref is not None and isinstance(arg, ast.Attribute):
                self._record_call(ref, arg)
        reason = self._blocking_reason(node)
        if reason is not None:
            suppressed = self._suppressed(node, "blocking-under-write-lock")
            if any(m == "write" for _r, m, _t in self.held) and not suppressed:
                self._report(
                    node, "blocking-under-write-lock",
                    f"{reason} in {self.summary.qualname}() while a write "
                    f"lock is held",
                )
            if not suppressed and self.summary.blocking is None:
                self.summary.blocking = reason
        self.generic_visit(node)

    def visit_Attribute(self, node: ast.Attribute) -> None:
        if (
            isinstance(node.ctx, ast.Load)
            and node.attr == "data_version"
            and _attr_or_name(node.value) in ("db", "database")
        ):
            guarded = any(r == TABLE for r, _m, _t in self.held)
            if not guarded and not self._suppressed(
                    node, "unlocked-version-read"):
                self.summary.version_reads.append(_VersionRead(
                    self.summary.path, node.lineno, node.col_offset,
                ))
        self.generic_visit(node)

    # -- nested defs get their own summaries ----------------------------------

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self.linter.add_function(
            node, None, Path(self.summary.path), self.aliases, self.allows,
        )

    visit_AsyncFunctionDef = visit_FunctionDef  # type: ignore[assignment]

    def visit_Lambda(self, node: ast.Lambda) -> None:
        # Deferred body; held locks here are not held at execution time.
        return


@dataclass(frozen=True)
class _FileAliases:
    time: frozenset[str]
    sleep_names: frozenset[str]
    socket: frozenset[str]


# ---------------------------------------------------------------------------
# The driver: per-file pass, then global effect propagation
# ---------------------------------------------------------------------------


class LockLint:
    """Collects summaries across files, then runs the global checks."""

    def __init__(self) -> None:
        self.summaries: dict[str, list[_Summary]] = {}
        self.violations: list[LintViolation] = []
        self._allow: dict[str, dict[int, frozenset[str]]] = {}

    def emit(self, path: str, line: int, col: int, rule: str,
             message: str) -> None:
        if rule in self._allow.get(path, {}).get(line, frozenset()):
            return
        self.violations.append(LintViolation(path, line, col, rule, message))

    def add_file(self, path: Path) -> None:
        try:
            source = path.read_text(encoding="utf-8")
            tree = ast.parse(source, filename=str(path))
        except (OSError, SyntaxError) as err:
            self.violations.append(LintViolation(
                path.as_posix(), getattr(err, "lineno", 1) or 1, 0,
                "parse-error", str(err),
            ))
            return
        allows = _allow_map(source)
        self._allow[path.as_posix()] = allows
        aliases = _FileAliases(
            time=_module_aliases(tree, "time"),
            sleep_names=frozenset(
                _from_import_aliases(tree, "time", frozenset({"sleep"}))
            ),
            socket=_module_aliases(tree, "socket"),
        )
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self.add_function(node, None, path, aliases, allows)
            elif isinstance(node, ast.ClassDef):
                for member in node.body:
                    if isinstance(member,
                                  (ast.FunctionDef, ast.AsyncFunctionDef)):
                        self.add_function(
                            member, node.name, path, aliases, allows
                        )

    def add_function(self, node, cls: str | None, path: Path,
                     aliases: _FileAliases,
                     allows: dict[int, frozenset[str]]) -> None:
        # Constructors register under their class name — `Foo(...)` call
        # sites resolve to the class, never to a merged "__init__".
        name = cls if (node.name == "__init__" and cls) else node.name
        qualname = f"{cls}.{node.name}" if cls else node.name
        summary = _Summary(
            name=name, qualname=qualname, path=path.as_posix(),
            in_graph=_GRAPH_SCOPE in f"/{path.as_posix()}",
        )
        visitor = _FuncVisitor(self, summary, aliases, allows)
        for stmt in node.body:
            visitor.visit(stmt)
        self.summaries.setdefault(name, []).append(summary)

    # -- global phase ---------------------------------------------------------

    def finish(self) -> list[LintViolation]:
        graph_names = {
            name for name, summaries in self.summaries.items()
            if any(s.in_graph for s in summaries)
        }
        acquires: dict[str, set[tuple[str, str]]] = {}
        blocking: dict[str, str | None] = {}
        edges: dict[str, set[str]] = {}
        for name in graph_names:
            in_graph = [s for s in self.summaries[name] if s.in_graph]
            acquires[name] = set().union(*(s.acquires for s in in_graph))
            blocking[name] = next(
                (s.blocking for s in in_graph if s.blocking), None
            )
            edges[name] = {
                call.name for s in in_graph for call in s.calls
                if call.name in graph_names and call.name != name
            }
        # Transitive closure of effects over the serving-layer call graph.
        changed = True
        while changed:
            changed = False
            for name in graph_names:
                for callee in edges[name]:
                    if blocking[callee] and not blocking[name]:
                        blocking[name] = f"{blocking[callee]} via {callee}()"
                        changed = True
                    missing = acquires[callee] - acquires[name]
                    if missing:
                        acquires[name] |= missing
                        changed = True
        # Call-site checks against the transitive summaries.
        call_sites: dict[str, list[tuple]] = {}
        for summaries in self.summaries.values():
            for s in summaries:
                for call in s.calls:
                    call_sites.setdefault(call.name, []).append(call.held)
                    if call.name not in graph_names or call.name == s.name:
                        continue
                    held_write = any(m == "write" for _r, m in call.held)
                    held_shard = any(r == SHARD for r, _m in call.held)
                    if held_write and blocking.get(call.name):
                        self.emit(
                            call.path, call.line, call.col,
                            "blocking-under-write-lock",
                            f"call to {call.name}() may block "
                            f"({blocking[call.name]}) while a write lock "
                            f"is held",
                        )
                    if held_shard and any(
                            r == TABLE for r, _m in acquires[call.name]):
                        self.emit(
                            call.path, call.line, call.col,
                            "lock-order-inversion",
                            f"call to {call.name}() acquires a table lock "
                            f"while a shard lock is held; the hierarchy is "
                            f"table -> shard",
                        )
                    for rank, mode in call.held:
                        if (mode == "read" and rank in (TABLE, SHARD)
                                and (rank, "write") in acquires[call.name]):
                            self.emit(
                                call.path, call.line, call.col,
                                "lock-upgrade",
                                f"call to {call.name}() acquires the {rank} "
                                f"write lock while its read side is held; "
                                f"RWLock forbids upgrades",
                            )
                            break
        # A lexically-unguarded data_version read is fine only when every
        # call site of its function holds a table lock.
        for summaries in self.summaries.values():
            for s in summaries:
                if not s.version_reads:
                    continue
                sites = call_sites.get(s.name, [])
                discharged = bool(sites) and all(
                    any(r == TABLE for r, _m in held) for held in sites
                )
                if discharged:
                    continue
                for read in s.version_reads:
                    self.emit(
                        read.path, read.line, read.col,
                        "unlocked-version-read",
                        f"db.data_version read in {s.qualname}() with no "
                        f"table lock held on some call path; capture the "
                        f"version inside the table lock that serializes "
                        f"the query",
                    )
        self.violations.sort(key=lambda v: (v.path, v.line, v.col))
        return self.violations

    def describe_summaries(self) -> list[str]:
        """Human-readable per-function acquisition summaries (--summaries)."""
        lines = []
        for name in sorted(self.summaries):
            for s in self.summaries[name]:
                if not (s.acquires or s.blocking):
                    continue
                acq = ", ".join(
                    f"{rank}:{mode}" for rank, mode in sorted(s.acquires)
                ) or "-"
                blocking = s.blocking or "-"
                lines.append(
                    f"{s.path}: {s.qualname}: acquires [{acq}] "
                    f"blocking [{blocking}]"
                )
        return lines


def lint_paths(paths: list[str]) -> list[LintViolation]:
    linter = LockLint()
    for path in iter_python_files(paths):
        linter.add_file(path)
    return linter.finish()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis.locklint",
        description="LockSan static lock-discipline pass for the serving "
                    "layer. Exits 0 when clean, 1 on violations, 2 on "
                    "usage errors.",
    )
    parser.add_argument(
        "paths", nargs="*", default=["src/repro"],
        help="files or directories to check (default: src/repro)",
    )
    parser.add_argument(
        "--list-rules", action="store_true", help="print the rule catalog",
    )
    parser.add_argument(
        "--summaries", action="store_true",
        help="print per-function lock-acquisition summaries",
    )
    opts = parser.parse_args(argv)
    if opts.list_rules:
        for rule, description in RULES.items():
            print(f"{rule}: {description}")
        return 0
    linter = LockLint()
    try:
        files = iter_python_files(opts.paths)
    except LintUsageError as err:
        print(f"locklint: error: {err}", file=sys.stderr)
        return 2
    for path in files:
        linter.add_file(path)
    violations = linter.finish()
    if opts.summaries:
        for line in linter.describe_summaries():
            print(line)
    for violation in violations:
        print(violation.describe())
    status = "clean" if not violations else f"{len(violations)} violation(s)"
    print(f"locklint: {len(files)} file(s) checked, {status}")
    return 1 if violations else 0


if __name__ == "__main__":
    raise SystemExit(main())
