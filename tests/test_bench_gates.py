"""Gate checkers, gates.toml parsing, and the gate runner / CLI exit codes."""

import json

import pytest

from repro.bench.registry.artifacts import ArtifactStore, run_metadata
from repro.bench.registry.core import GATES
from repro.bench.registry.gates import (
    GateConfigError,
    format_gate_results,
    load_gate_config,
    run_gates,
)


@pytest.fixture
def store(tmp_path):
    return ArtifactStore(tmp_path / "artifacts")


def _put_ref(store, ref, payload):
    record = store.put(payload, run_metadata(ref.split("/")[-1]))
    store.set_ref(ref, record.artifact_id)
    return record.artifact_id


GOOD_EXP19 = {
    "summary": {"p99_ok": True, "shed_ok": True, "chaos_absorbed": True,
                "bit_identical_ok": True, "breaker_lifecycle_ok": True,
                "all_ok": True},
    "overload_clean": {"shed": 4},
}


class TestGateCheckers:
    def test_exp18_pass_and_fail(self):
        gate = GATES.get("exp18")
        ok = gate({"summary": {"all_digests_match_serial": True}}, None, {})
        assert all(c.ok for c in ok)
        bad = gate({"summary": {"all_digests_match_serial": False}}, None, {})
        assert not all(c.ok for c in bad)

    def test_exp18_require_speedup_option(self):
        gate = GATES.get("exp18")
        payload = {"summary": {"all_digests_match_serial": True,
                               "speedup_ok": False}}
        assert all(c.ok for c in gate(payload, None, {}))
        assert not all(c.ok for c in gate(payload, None,
                                          {"require_speedup": True}))

    def test_exp19_pass(self):
        checks = GATES.get("exp19")(GOOD_EXP19, None, {})
        assert all(c.ok for c in checks)

    def test_exp19_fails_without_shedding(self):
        payload = {"summary": dict(GOOD_EXP19["summary"]),
                   "overload_clean": {"shed": 0}}
        checks = GATES.get("exp19")(payload, None, {})
        failed = [c for c in checks if not c.ok]
        assert [c.name for c in failed] == ["overload_actually_shed"]

    def test_exp19_fails_on_any_summary_flag(self):
        summary = dict(GOOD_EXP19["summary"], breaker_lifecycle_ok=False)
        checks = GATES.get("exp19")({
            "summary": summary, "overload_clean": {"shed": 4}}, None, {})
        assert not all(c.ok for c in checks)

    def test_exp16_gates_scan_identity_always(self):
        gate = GATES.get("exp16")
        ok = gate({"all_match_scan": True, "mismatches": [],
                   "summary": {"pmdd1r_drag_ok": False}}, None, {})
        assert all(c.ok for c in ok)
        bad = gate({"all_match_scan": False, "mismatches": ["x"]}, None, {})
        assert not all(c.ok for c in bad)

    def test_exp16_strict_adds_timing_flags(self):
        payload = {"all_match_scan": True, "mismatches": [],
                   "summary": {"progressive_within_2x_budget": True,
                               "pmdd1r_drag_ok": False, "auto_ok": True}}
        checks = GATES.get("exp16")(payload, None, {"strict": True})
        failed = [c.name for c in checks if not c.ok]
        assert failed == ["pmdd1r_drag_ok"]

    def test_exp14_scan_identity(self):
        gate = GATES.get("exp14")
        ok = gate({"engines_match_scan": True, "engine_failures": []}, None, {})
        assert all(c.ok for c in ok)
        bad = gate({"engines_match_scan": False,
                    "engine_failures": ["boom"]}, None, {})
        assert not all(c.ok for c in bad)

    def test_kernels_requires_baseline(self):
        checks = GATES.get("kernels")({"all_identical": True}, None, {})
        failed = [c.name for c in checks if not c.ok]
        assert failed == ["baseline_present"]

    def test_kernels_regression_detected(self):
        current = {"all_identical": True, "cases": [
            {"case": "crack_two", "rows": 1000, "compare": "copy", "ratio": 0.1}]}
        baseline = {"cases": [
            {"case": "crack_two", "rows": 1000, "compare": "copy", "ratio": 0.4}]}
        checks = GATES.get("kernels")(current, baseline, {"tolerance": 50.0})
        assert [c.name for c in checks if not c.ok] == ["ratios_within_tolerance"]
        # Within tolerance passes.
        current["cases"][0]["ratio"] = 0.3
        checks = GATES.get("kernels")(current, baseline, {"tolerance": 50.0})
        assert all(c.ok for c in checks)
        # A ratio against another denominator is not compared.
        baseline["cases"][0]["compare"] = "individual"
        current["cases"][0]["ratio"] = 0.01
        checks = GATES.get("kernels")(current, baseline, {"tolerance": 50.0})
        assert all(c.ok for c in checks)


class TestGateConfig:
    def _write(self, tmp_path, text):
        path = tmp_path / "gates.toml"
        path.write_text(text)
        return path

    def test_defaults_resolved_from_spec(self, tmp_path):
        path = self._write(tmp_path, "[gate.exp18]\n")
        (entry,) = load_gate_config(path)
        assert entry.experiment == "exp18"
        assert entry.current == "ref:current/exp18"
        assert entry.baseline == "ref:baseline/exp18"
        assert entry.options["checker"] == "exp18"

    def test_explicit_sources_and_options(self, tmp_path):
        path = self._write(tmp_path, (
            '[gate.perf]\nexperiment = "kernels"\n'
            'current = "BENCH_current.json"\ntolerance = 25.0\n'))
        (entry,) = load_gate_config(path)
        assert entry.name == "perf"
        assert entry.current == "BENCH_current.json"
        assert entry.options["tolerance"] == 25.0

    def test_unknown_experiment_rejected(self, tmp_path):
        path = self._write(tmp_path, "[gate.exp404]\n")
        with pytest.raises(Exception, match="unknown name"):
            load_gate_config(path)

    def test_unknown_checker_rejected(self, tmp_path):
        path = self._write(
            tmp_path, '[gate.exp18]\nchecker = "no_such_gate"\n')
        with pytest.raises(Exception, match="unknown name"):
            load_gate_config(path)

    def test_empty_or_malformed_config_rejected(self, tmp_path):
        with pytest.raises(GateConfigError):
            load_gate_config(self._write(tmp_path, ""))
        with pytest.raises(GateConfigError):
            load_gate_config(self._write(tmp_path, "[other]\nx = 1\n"))

    def test_checked_in_ci_gates_config_parses(self):
        from pathlib import Path

        path = Path(__file__).resolve().parent.parent / "ci" / "gates.toml"
        entries = load_gate_config(path)
        names = {entry.name for entry in entries}
        assert {"kernels", "exp14", "exp16", "exp17", "exp18",
                "exp19"} <= names


class TestRunGates:
    def test_pass_and_fail_against_store(self, store, tmp_path):
        _put_ref(store, "current/exp19", GOOD_EXP19)
        path = tmp_path / "gates.toml"
        path.write_text("[gate.exp19]\n")
        (result,) = run_gates(load_gate_config(path), store)
        assert result.ok
        bad = {"summary": dict(GOOD_EXP19["summary"], all_ok=False),
               "overload_clean": {"shed": 4}}
        _put_ref(store, "current/exp19", bad)
        (result,) = run_gates(load_gate_config(path), store)
        assert not result.ok

    def test_missing_current_is_captured_error(self, store, tmp_path):
        path = tmp_path / "gates.toml"
        path.write_text("[gate.exp19]\n")
        (result,) = run_gates(load_gate_config(path), store)
        assert not result.ok
        assert "cannot load current" in result.error

    def test_only_filter(self, store, tmp_path):
        _put_ref(store, "current/exp19", GOOD_EXP19)
        path = tmp_path / "gates.toml"
        path.write_text("[gate.exp19]\n[gate.exp18]\n")
        results = run_gates(load_gate_config(path), store, only={"exp19"})
        assert [r.gate for r in results] == ["exp19"]

    def test_format_output(self, store, tmp_path):
        _put_ref(store, "current/exp19", GOOD_EXP19)
        path = tmp_path / "gates.toml"
        path.write_text("[gate.exp19]\n")
        text = format_gate_results(run_gates(load_gate_config(path), store))
        assert "[PASS] gate exp19 (exp19)" in text
        assert "1/1 gates passed" in text


class TestGateCli:
    def _setup(self, tmp_path, payload):
        store = ArtifactStore(tmp_path / "artifacts")
        _put_ref(store, "current/exp19", payload)
        gates = tmp_path / "gates.toml"
        gates.write_text("[gate.exp19]\n")
        return store, gates

    def test_exit_zero_on_pass_and_json_output(self, tmp_path, capsys):
        from repro.bench.__main__ import main

        _, gates = self._setup(tmp_path, GOOD_EXP19)
        out = tmp_path / "gate-results.json"
        rc = main(["--store", str(tmp_path / "artifacts"), "gate",
                   "--config", str(gates), "--output", str(out)])
        assert rc == 0
        payload = json.loads(out.read_text())
        assert payload["all_ok"] is True
        assert payload["gates"]["exp19"]["ok"] is True
        assert payload["gates"]["exp19"]["checks"]

    def test_exit_one_on_fail(self, tmp_path):
        from repro.bench.__main__ import main

        bad = {"summary": dict(GOOD_EXP19["summary"], p99_ok=False),
               "overload_clean": {"shed": 4}}
        _, gates = self._setup(tmp_path, bad)
        rc = main(["--store", str(tmp_path / "artifacts"), "gate",
                   "--config", str(gates)])
        assert rc == 1

    def test_exit_two_on_unknown_only(self, tmp_path):
        from repro.bench.__main__ import main

        _, gates = self._setup(tmp_path, GOOD_EXP19)
        rc = main(["--store", str(tmp_path / "artifacts"), "gate",
                   "--config", str(gates), "--only", "exp404"])
        assert rc == 2

    def test_exit_two_on_missing_config(self, tmp_path):
        from repro.bench.__main__ import main

        rc = main(["--store", str(tmp_path / "artifacts"), "gate",
                   "--config", str(tmp_path / "nope.toml")])
        assert rc == 2
