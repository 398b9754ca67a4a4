"""LockSan static pass: every rule fires on seeded negatives, and the
serving layer itself checks clean."""

import textwrap
from pathlib import Path

import pytest

from repro.analysis.lint import lint_file
from repro.analysis.locklint import RULES, lint_paths, main

REPO_SRC = str(Path(__file__).resolve().parents[1] / "src" / "repro")


def check(tmp_path, source: str, name: str = "server/mod.py"):
    """Lint one seeded source file; server/ paths join the call graph."""
    target = tmp_path / name
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(textwrap.dedent(source))
    return lint_paths([str(target)])


def rules_of(violations) -> list[str]:
    return [v.rule for v in violations]


# -- lock-order-inversion ------------------------------------------------------


def test_inversion_fires_lexically(tmp_path):
    violations = check(tmp_path, """
        def probe(self, registry, shard):
            with shard.lock.write():
                with registry.lock_for("R").read():
                    pass
    """)
    assert rules_of(violations) == ["lock-order-inversion"]
    assert "table -> shard" in violations[0].message


def test_inversion_fires_through_a_call(tmp_path):
    violations = check(tmp_path, """
        class Exec:
            def grab_table(self):
                with self.registry.lock_for("R").write():
                    pass

            def probe(self, shard):
                with shard.lock.read():
                    self.grab_table()
    """)
    assert rules_of(violations) == ["lock-order-inversion"]
    assert "call to grab_table()" in violations[0].message


def test_table_then_shard_is_the_sanctioned_order(tmp_path):
    violations = check(tmp_path, """
        def probe(self, registry, shard):
            with registry.lock_for("R").read():
                with shard.lock.write():
                    pass
    """)
    assert violations == []


# -- lock-upgrade --------------------------------------------------------------


def test_upgrade_fires_lexically(tmp_path):
    violations = check(tmp_path, """
        def probe(self, registry):
            table_lock = registry.lock_for("R")
            with table_lock.read():
                with table_lock.write():
                    pass
    """)
    assert rules_of(violations) == ["lock-upgrade"]
    assert "forbids upgrades" in violations[0].message


def test_upgrade_fires_through_a_call(tmp_path):
    violations = check(tmp_path, """
        class Exec:
            def mutate(self):
                with self.registry.lock_for("R").write():
                    pass

            def probe(self):
                with self.registry.lock_for("R").read():
                    self.mutate()
    """)
    assert rules_of(violations) == ["lock-upgrade"]


def test_sequential_read_then_write_is_fine(tmp_path):
    violations = check(tmp_path, """
        def probe(self, registry):
            table_lock = registry.lock_for("R")
            with table_lock.read():
                pass
            with table_lock.write():
                pass
    """)
    assert violations == []


# -- blocking-under-write-lock -------------------------------------------------


def test_sleep_under_write_lock_fires(tmp_path):
    violations = check(tmp_path, """
        import time

        def probe(self, registry):
            with registry.lock_for("R").write():
                time.sleep(0.1)
    """)
    assert rules_of(violations) == ["blocking-under-write-lock"]
    assert "time.sleep" in violations[0].message


def test_engine_run_and_future_wait_under_write_lock_fire(tmp_path):
    violations = check(tmp_path, """
        def probe(self, registry, fut):
            with registry.lock_for("R").write():
                self.engine.run("q")
                fut.result()
    """)
    assert rules_of(violations) == [
        "blocking-under-write-lock", "blocking-under-write-lock",
    ]
    assert "engine.run" in violations[0].message


def test_blocking_propagates_through_the_call_graph(tmp_path):
    violations = check(tmp_path, """
        import socket

        class Exec:
            def push(self, conn, payload):
                conn.sendall(payload)

            def probe(self, conn):
                with self.registry.lock_for("R").write():
                    self.push(conn, b"x")
    """)
    assert rules_of(violations) == ["blocking-under-write-lock"]
    assert "call to push()" in violations[0].message


def test_blocking_under_read_lock_is_fine(tmp_path):
    violations = check(tmp_path, """
        def probe(self, registry, fut):
            with registry.lock_for("R").read():
                fut.result()
    """)
    assert violations == []


# -- unlocked-version-read -----------------------------------------------------


def test_bare_version_read_fires(tmp_path):
    violations = check(tmp_path, """
        def probe(self, db):
            return db.data_version
    """)
    assert rules_of(violations) == ["unlocked-version-read"]
    assert "data_version" in violations[0].message


def test_version_read_discharged_by_locked_call_sites(tmp_path):
    violations = check(tmp_path, """
        class Exec:
            def _capture(self, db):
                return db.data_version

            def probe(self, registry, db):
                with registry.lock_for("R").read():
                    return self._capture(db)
    """)
    assert violations == []


def test_version_read_fires_when_one_call_site_is_unlocked(tmp_path):
    violations = check(tmp_path, """
        class Exec:
            def _capture(self, db):
                return db.data_version

            def locked(self, registry, db):
                with registry.lock_for("R").read():
                    return self._capture(db)

            def unlocked(self, db):
                return self._capture(db)
    """)
    assert rules_of(violations) == ["unlocked-version-read"]


# -- raw-lock-construction -----------------------------------------------------
# The rule lives in repro.analysis.lint; LockSan leaves it to that pass.


def check_raw_lock(tmp_path, source: str, name: str = "server/mod.py"):
    """The lint pass's raw-lock findings on a seeded file, after checking
    that LockSan does not report the same rule a second time."""
    assert "raw-lock-construction" not in rules_of(
        check(tmp_path, source, name=name))
    return [v for v in lint_file(tmp_path / name)
            if v.rule == "raw-lock-construction"]


def test_raw_lock_construction_fires(tmp_path):
    violations = check_raw_lock(tmp_path, """
        import threading

        class Exec:
            def __init__(self):
                self._m = threading.Lock()
    """)
    assert rules_of(violations) == ["raw-lock-construction"]
    assert "repro.server.locks" in violations[0].message


def test_raw_lock_from_import_alias_fires(tmp_path):
    violations = check_raw_lock(tmp_path, """
        from threading import RLock as _R

        def make(self):
            return _R()
    """)
    assert rules_of(violations) == ["raw-lock-construction"]


def test_locks_module_is_exempt(tmp_path):
    violations = check_raw_lock(tmp_path, """
        import threading

        def make(self):
            return threading.Condition(threading.Lock())
    """, name="server/locks.py")
    assert violations == []


# -- lock-in-cleanup -----------------------------------------------------------


def test_lock_in_finally_fires(tmp_path):
    violations = check(tmp_path, """
        def probe(self, registry):
            try:
                pass
            finally:
                with registry.lock_for("R").write():
                    pass
    """)
    assert rules_of(violations) == ["lock-in-cleanup"]
    assert "cleanup" in violations[0].message


def test_lock_in_except_handler_fires(tmp_path):
    violations = check(tmp_path, """
        def probe(self, shard):
            try:
                pass
            except ValueError:
                with shard.lock.read():
                    pass
    """)
    assert rules_of(violations) == ["lock-in-cleanup"]


def test_lock_in_try_body_is_fine(tmp_path):
    violations = check(tmp_path, """
        def probe(self, registry):
            try:
                with registry.lock_for("R").write():
                    pass
            finally:
                pass
    """)
    assert violations == []


# -- suppression ---------------------------------------------------------------


def test_allow_comment_silences_one_rule(tmp_path):
    violations = check(tmp_path, """
        import time

        def probe(self, registry):
            with registry.lock_for("R").write():
                time.sleep(0.1)  # locksan: allow(blocking-under-write-lock)
    """)
    assert violations == []


def test_allow_comment_is_rule_specific(tmp_path):
    violations = check(tmp_path, """
        import time

        def probe(self, registry):
            with registry.lock_for("R").write():
                time.sleep(0.1)  # locksan: allow(lock-upgrade)
    """)
    assert rules_of(violations) == ["blocking-under-write-lock"]


# -- the serving layer itself --------------------------------------------------


def test_shipped_sources_are_clean():
    assert lint_paths([REPO_SRC]) == []


# -- CLI contract --------------------------------------------------------------


def test_cli_exit_codes(tmp_path, capsys):
    dirty = tmp_path / "server" / "bad.py"
    dirty.parent.mkdir()
    dirty.write_text("def f(self, db):\n    return db.data_version\n")
    clean = tmp_path / "fine.py"
    clean.write_text("X = 1\n")

    assert main([str(clean)]) == 0
    assert "1 file(s) checked, clean" in capsys.readouterr().out

    assert main([str(dirty)]) == 1
    out = capsys.readouterr().out
    assert "unlocked-version-read" in out and "1 violation(s)" in out

    assert main([str(tmp_path / "missing.py")]) == 2
    assert "locklint: error" in capsys.readouterr().err


def test_cli_list_rules(capsys):
    assert main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule in RULES:
        assert rule in out


def test_cli_summaries(tmp_path, capsys):
    target = tmp_path / "server" / "mod.py"
    target.parent.mkdir()
    target.write_text(textwrap.dedent("""
        def probe(self, registry, shard):
            with registry.lock_for("R").read():
                with shard.lock.write():
                    pass
    """))
    assert main(["--summaries", str(target)]) == 0
    out = capsys.readouterr().out
    assert "probe: acquires [shard:write, table:read]" in out


def test_syntax_error_reports_parse_error(tmp_path):
    bad = tmp_path / "oops.py"
    bad.write_text("def broken(:\n")
    violations = lint_paths([str(bad)])
    assert rules_of(violations) == ["parse-error"]
