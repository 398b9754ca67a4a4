"""Repo-contract AST lint: every rule fires, allowlists hold, tree is clean."""

from pathlib import Path

import pytest

from repro.analysis.lint import RULES, lint_file, lint_paths, main

REPO_SRC = str(Path(__file__).resolve().parent.parent / "src")


def write(tmp_path: Path, relative: str, source: str) -> Path:
    path = tmp_path / relative
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(source)
    return path


def rules_in(path: Path) -> set[str]:
    return {violation.rule for violation in lint_file(path)}


# -- each rule fires -------------------------------------------------------------


def test_payload_mutation_detected(tmp_path):
    path = write(tmp_path, "core/thing.py", (
        "def f(head, tails, lo, hi):\n"
        "    head[lo:hi] = 0\n"
        "    tails[0][lo:hi] = 1\n"
        "    obj.keys[3] += 1\n"
    ))
    violations = lint_file(path)
    assert [v.rule for v in violations] == ["payload-mutation"] * 3
    assert violations[0].line == 2


def test_payload_mutation_allowed_in_kernels(tmp_path):
    source = "def f(head, lo, hi):\n    head[lo:hi] = 0\n"
    assert rules_in(write(tmp_path, "cracking/kernels.py", source)) == set()
    assert rules_in(write(tmp_path, "cracking/crack.py", source)) == set()
    assert rules_in(write(tmp_path, "cracking/other.py", source)) == {
        "payload-mutation"
    }


def test_payload_rebinding_is_fine(tmp_path):
    path = write(tmp_path, "core/ok.py", (
        "def f(index, head, keys, interval, recorder):\n"
        "    head, tails = crack(index, head, [keys], interval, recorder)\n"
        "    keys = tails[0]\n"
        "    return head, keys\n"
    ))
    assert rules_in(path) == set()


def test_unseeded_random_detected(tmp_path):
    path = write(tmp_path, "bench/bad_rng.py", (
        "import numpy as xp\n"
        "a = xp.random.rand(5)\n"
        "b = xp.random.default_rng()\n"
        "c = xp.random.default_rng(42)\n"       # seeded: fine
        "d = xp.random.default_rng(seed=42)\n"  # seeded: fine
    ))
    violations = lint_file(path)
    assert [v.rule for v in violations] == ["unseeded-random"] * 2
    assert {v.line for v in violations} == {2, 3}


def test_counter_mutation_detected(tmp_path):
    source = (
        "def f(stats):\n"
        "    stats.sequential += 5\n"
        "    stats.cracks = 1\n"
    )
    path = write(tmp_path, "engine/bad_counters.py", source)
    assert [v.rule for v in lint_file(path)] == ["counter-mutation"] * 2
    assert rules_in(write(tmp_path, "stats/counters.py", source)) == set()


def test_tape_append_detected(tmp_path):
    source = (
        "def f(tape, entry):\n"
        "    tape.entries.append(entry)\n"
        "    tape.entries[0] = entry\n"
    )
    path = write(tmp_path, "core/bad_tape.py", source)
    assert [v.rule for v in lint_file(path)] == ["tape-append"] * 2
    assert rules_in(write(tmp_path, "core/tape.py", source)) == set()


def test_tape_interpreter_detected(tmp_path):
    path = write(tmp_path, "core/partial/second_interpreter.py", (
        "from repro.core import tape\n"
        "def replay(entry):\n"
        "    if isinstance(entry, CrackEntry):\n"
        "        pass\n"
        "    elif isinstance(entry, (InsertEntry, tape.SortEntry)):\n"
        "        pass\n"
        "    elif isinstance(entry, DeleteEntry | ProgressiveCrackEntry):\n"
        "        pass\n"
        "    elif isinstance(entry, (InsertEntry, DeleteEntry)):\n"  # fine
        "        pass\n"
    ))
    violations = lint_file(path)
    assert [v.rule for v in violations] == ["tape-interpreter"] * 3
    assert [v.line for v in violations] == [3, 5, 7]


def test_tape_interpreter_allowed_in_replay_and_tape(tmp_path):
    source = (
        "def apply_entry(entry):\n"
        "    return isinstance(entry, (CrackEntry, SortEntry))\n"
    )
    assert rules_in(write(tmp_path, "core/replay.py", source)) == set()
    assert rules_in(write(tmp_path, "core/tape.py", source)) == set()
    assert rules_in(write(tmp_path, "core/mapset.py", source)) == {
        "tape-interpreter"
    }
    assert rules_in(write(tmp_path, "score/replay.py", source)) == {
        "tape-interpreter"
    }


def test_bitvector_plan_detected(tmp_path):
    path = write(tmp_path, "core/partial/second_suite.py", (
        "from repro.core.bitvector import BitVector\n"
        "from repro.core import bitvector\n"
        "def conjunctive(mask):\n"
        "    bv = BitVector.from_mask(mask)\n"
        "    other = bitvector.BitVector(len(mask))\n"
        "    bv.refine_and(other.bits)\n"  # using one is fine, making one is not
        "    return bv\n"
    ))
    violations = lint_file(path)
    assert [v.rule for v in violations] == ["bitvector-plan"] * 3
    assert [v.line for v in violations] == [1, 4, 5]


def test_bitvector_plan_allowed_in_the_suite_and_the_join_side(tmp_path):
    source = (
        "from repro.core.bitvector import BitVector\n"
        "def plan(n):\n"
        "    return BitVector(n)\n"
    )
    for allowed in (
        "core/sideways.py", "core/bitvector.py", "engine/sideways_engine.py"
    ):
        assert rules_in(write(tmp_path, allowed, source)) == set()
    for elsewhere in (
        "core/partial/engine.py", "workloads/tpch/executor.py", "score/sideways.py"
    ):
        assert rules_in(write(tmp_path, elsewhere, source)) == {"bitvector-plan"}


def test_mutable_default_detected(tmp_path):
    path = write(tmp_path, "core/bad_defaults.py", (
        "def f(a, items=[], *, lookup=dict()):\n"
        "    return a\n"
        "def g(a, items=None, n=3, name='x'):\n"  # all fine
        "    return a\n"
    ))
    assert [v.rule for v in lint_file(path)] == ["mutable-default"] * 2


def test_bare_except_detected(tmp_path):
    path = write(tmp_path, "core/bad_except.py", (
        "try:\n"
        "    pass\n"
        "except:\n"
        "    pass\n"
        "try:\n"
        "    pass\n"
        "except ValueError:\n"  # typed: fine
        "    pass\n"
    ))
    assert [v.rule for v in lint_file(path)] == ["bare-except"]


def test_broad_except_detected(tmp_path):
    path = write(tmp_path, "core/bad_broad.py", (
        "try:\n"
        "    pass\n"
        "except Exception:\n"
        "    pass\n"
        "try:\n"
        "    pass\n"
        "except (ValueError, BaseException) as exc:\n"
        "    pass\n"
        "try:\n"
        "    pass\n"
        "except (KeyError, OSError):\n"  # typed: fine
        "    pass\n"
    ))
    assert [v.rule for v in lint_file(path)] == ["broad-except"] * 2


def test_syntax_error_reported_not_raised(tmp_path):
    path = write(tmp_path, "broken.py", "def f(:\n")
    violations = lint_file(path)
    assert violations and violations[0].rule == "parse-error"


def test_raw_lock_construction_detected(tmp_path):
    source = (
        "import threading\n"
        "from threading import RLock as _R\n"
        "from threading import Lock as L\n"
        "def f():\n"
        "    a = threading.Lock()\n"
        "    b = threading.Semaphore(2)\n"
        "    c = _R()\n"
        "    d = threading.current_thread()\n"  # not a lock ctor: fine
        "class Exec:\n"
        "    def __init__(self):\n"
        "        self._m = L()\n"
        "        self._c = threading.Condition(threading.Lock())\n"
    )
    path = write(tmp_path, "server/bad_locks.py", source)
    violations = [v for v in lint_file(path) if v.rule == "raw-lock-construction"]
    assert sorted(v.line for v in violations) == [5, 6, 7, 11, 12, 12]
    assert all("repro.server.locks" in v.message for v in violations)
    # The lock module and the race detector construct the primitives.
    assert rules_in(write(tmp_path, "server/locks.py", source)) == set()
    assert rules_in(write(tmp_path, "analysis/racesan.py", source)) == set()


def test_sleep_under_lock_detected(tmp_path):
    path = write(tmp_path, "server/bad_sleep.py", (
        "import time\n"
        "def f(self, lock):\n"
        "    with lock.read():\n"
        "        time.sleep(0.1)\n"
        "    with self._cache_mutex:\n"
        "        time.sleep(0.1)\n"
        "    time.sleep(0.1)\n"  # outside any lock: fine
    ))
    violations = [v for v in lint_file(path) if v.rule == "sleep-under-lock"]
    assert {v.line for v in violations} == {4, 6}


def test_sleep_alias_under_lock_detected(tmp_path):
    path = write(tmp_path, "server/bad_sleep2.py", (
        "from time import sleep\n"
        "def f(self, lock):\n"
        "    with lock.write():\n"
        "        sleep(0.1)\n"
    ))
    assert [v.rule for v in lint_file(path)] == ["sleep-under-lock"]


def test_sleep_under_non_lock_context_is_fine(tmp_path):
    path = write(tmp_path, "server/ok_sleep.py", (
        "import time\n"
        "def f(path):\n"
        "    with open(path) as fh:\n"
        "        time.sleep(0.1)\n"
        "        return fh.read()\n"
    ))
    assert rules_in(path) == set()


# -- driver ---------------------------------------------------------------------


def test_lint_paths_walks_directories(tmp_path):
    write(tmp_path, "pkg/a.py", "def f(x=[]):\n    return x\n")
    write(tmp_path, "pkg/sub/b.py", "try:\n    pass\nexcept:\n    pass\n")
    write(tmp_path, "pkg/c.txt", "head[0] = 1 (not python, ignored)\n")
    rules = {v.rule for v in lint_paths([str(tmp_path)])}
    assert rules == {"mutable-default", "bare-except"}


def test_main_exit_status(tmp_path, capsys):
    bad = write(tmp_path, "bad.py", "def f(x=[]):\n    return x\n")
    assert main([str(bad)]) == 1
    out = capsys.readouterr().out
    assert "mutable-default" in out and "1 violation(s)" in out
    good = write(tmp_path, "good.py", "def f(x=None):\n    return x\n")
    assert main([str(good)]) == 0
    assert "clean" in capsys.readouterr().out


def test_main_usage_error_exit_status(tmp_path, capsys):
    assert main([str(tmp_path / "nowhere.py")]) == 2
    err = capsys.readouterr().err
    assert "repro-lint: error" in err and "nowhere.py" in err


def test_allowlist_matches_path_component_boundaries(tmp_path):
    source = "def f(head, lo, hi):\n    head[lo:hi] = 0\n"
    # `./`-style relative prefixes and absolute paths both match...
    import os

    here = Path(os.path.relpath(write(tmp_path, "cracking/kernels.py", source)))
    assert rules_in(Path("./" + str(here))) == set()
    assert rules_in(tmp_path / "cracking" / "kernels.py") == set()
    # ...but a suffix that only matches mid-component must not.
    assert rules_in(write(tmp_path, "mycracking/kernels.py", source)) == {
        "payload-mutation"
    }


def test_list_rules(capsys):
    assert main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule in RULES:
        assert rule in out


@pytest.mark.slow
def test_shipped_tree_is_clean(capsys):
    """The repo's own src/ passes its lint — the CI contract."""
    assert main([REPO_SRC]) == 0
    assert "clean" in capsys.readouterr().out
