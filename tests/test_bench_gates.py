"""Gate checkers, gates.toml parsing, and the gate runner / CLI exit codes."""

import json

import pytest

from repro.bench.registry.artifacts import ArtifactStore, run_metadata
from repro.bench.registry.core import GATES
from repro.bench.registry.experiments import PAPER_EXPERIMENTS
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

    def test_kernels_skips_cases_the_baseline_lacks(self):
        """A case added after the baseline was taken (the ``ripple_*``
        merges) is reported but not gated."""
        current = {"all_identical": True, "cases": [
            {"case": "crack_two", "rows": 1000, "compare": "copy", "ratio": 0.4},
            {"case": "ripple_delete_lfhv", "rows": 1000, "compare": "copy",
             "ratio": 0.001}]}
        baseline = {"cases": [
            {"case": "crack_two", "rows": 1000, "compare": "copy", "ratio": 0.4}]}
        checks = GATES.get("kernels")(current, baseline, {"tolerance": 50.0})
        assert all(c.ok for c in checks)


    def test_exp14_every_cell_and_headline_floor(self):
        gate = GATES.get("exp14")
        payload = {"engines_match_scan": True, "engine_failures": [],
                   "grid": {"sequential": {"ddc": {"matches_scan": True}}},
                   "headline": {"cost_ratio": 4.9}}
        options = {"min_headline_ratio": 3.0}
        assert all(c.ok for c in gate(payload, None, options))
        payload["grid"]["sequential"]["ddc"]["matches_scan"] = False
        payload["headline"]["cost_ratio"] = 2.7
        failed = [c.name for c in gate(payload, None, options) if not c.ok]
        assert failed == ["every_cell_matches_scan", "headline_ratio"]


# -- the paper's figures -------------------------------------------------------
# One payload per figure gate in its stored (JSON) form, holding the figure's
# shape; ``_violated`` breaks that shape, mostly by swapping the two systems'
# series.

_FULL, _PARTIAL = "sideways", "partial_sideways"
_TPCH = ("1", "3", "4", "6", "7", "8", "10", "12", "14", "15", "19", "20")


def _paper_payload(gate):
    if gate == "fig4a":
        return {"model_ms": {"presorted": {"8": 1.0}, "sideways": {"8": 2.0},
                             "monetdb": {"8": 5.0},
                             "selection_cracking": {"8": 9.0}}}
    if gate == "fig4b":
        return {"relative_model": {"10%": [2.0] * 10 + [0.5] * 20,
                                   "point": [0.1] * 30}}
    if gate == "exp3_reordering":
        return {"model_ms": {"unordered": {"1": 1.0, "8": 8.0},
                             "sort": {"1": 3.0, "8": 9.0},
                             "radix": {"1": 2.0, "8": 5.0},
                             "ordered": {"1": 0.5, "8": 4.0}}}
    if gate == "fig5":
        return {"model_total_ms": {"monetdb": [10.0] * 9, "sideways": [3.0] * 9,
                                   "presorted": [1.0] * 9}}
    if gate == "fig6":
        return {"model_ms": {"monetdb": [10.0] * 9, "sideways": [3.0] * 9}}
    if gate == "fig7":
        from repro.bench.exp06_updates import SYSTEMS

        return {"queries": 3, "series_us": {
            scenario: {system: [1.0, 2.0, 3.0] for system in SYSTEMS}
            for scenario in ("HFLV", "LFHV")}}
    if gate == "fig9":
        return {"batch": 2, "rows": 100,
                "per_query_model_ms": {"T=2R": {_FULL: [1.0, 1.0, 9.0, 1.0],
                                                _PARTIAL: [1.0, 1.0, 2.0, 1.0]}},
                "storage_tuples": {"T=2R": {_PARTIAL: [150, 200]}}}
    if gate == "fig10":
        return {"storage_tuples": {
            case: {_FULL: [0, 600], _PARTIAL: [0, 100]}
            for case in ("selective", "skewed")}}
    if gate == "fig11":
        # Judged on the model: the wall-clock totals beside it may disagree.
        return {"totals_model_ms": {"S=0.001 noT": {_FULL: 10.0, _PARTIAL: 2.0},
                                    "S=0.3 noT": {_FULL: 10.0, _PARTIAL: 11.0}},
                "totals_seconds": {"S=0.001 noT": {_FULL: 0.3, _PARTIAL: 0.4},
                                   "S=0.3 noT": {_FULL: 0.1, _PARTIAL: 0.4}}}
    if gate == "fig12":
        # Change rates sort as numbers: "60" is not the fastest rate.
        return {"totals_model_ms": {
            "3": {_FULL: 1.0, _PARTIAL: 1.0}, "6": {_FULL: 2.0, _PARTIAL: 1.0},
            "30": {_FULL: 5.0, _PARTIAL: 1.0}, "60": {_FULL: 1.0, _PARTIAL: 1.0},
            "300": {_FULL: 50.0, _PARTIAL: 1.0}},
            "totals_seconds": {"3": {_FULL: 1.0, _PARTIAL: 1.0},
                               "300": {_FULL: 1.0, _PARTIAL: 1.0}}}
    if gate == "fig13":
        return {"per_query_model_ms": {
            "2": {_FULL: [1.0, 1.0, 9.0, 1.0], _PARTIAL: [1.0, 1.0, 2.0, 1.0]},
            "4": {_FULL: [1.0] * 4, _PARTIAL: [1.0] * 4}}}
    if gate == "fig14":
        return {"model_ms": {query: {"monetdb": [10.0] * 3,
                                     "sideways": [1.0] * 3}
                             for query in _TPCH}}
    if gate == "sec5_tpch_mixed":
        return {"relative_model": [1.0] * 12 + [0.8] * 24 + [0.5] * 12}
    if gate == "ablations":
        return {
            "partial_alignment": {"totals": {
                "partial_alignment": {"replays": 861},
                "full_alignment": {"replays": 889}}},
            "head_dropping": {"totals": {"cold": {"peak_storage": 149_995},
                                         "off": {"peak_storage": 149_997}}},
            "mapset_choice": {"totals": {"histogram": {"model_ms": 13.0},
                                         "first_predicate": {"model_ms": 48.7}}},
            "crack_kernels": {"totals": {
                "crack_in_three": {"touches": 3_657_000, "pieces": 401},
                "two_crack_in_two": {"touches": 5_114_000, "pieces": 401}}},
            "chunk_size_enforcement": {"totals": {
                "enforced": {"peak_query_ms": 4.7, "chunks": 188},
                "unbounded": {"peak_query_ms": 7.6, "chunks": 74}}},
        }
    if gate == "extensions":
        return {
            "piece_max": {"totals": {
                "piece_exploiting": {"model_ms": 6.1, "answers_checksum": 7.0},
                "area_scan": {"model_ms": 9.6, "answers_checksum": 7.0}}},
            "join_strategies": {"totals": {
                "cracker_join": {"model_ms": 2.5, "matches": 100},
                "hash_join": {"model_ms": 3.1, "matches": 100}}},
            "row_vs_column": {"totals": {
                "row_cracking k=1": {"model_ms": 5.6},
                "row_cracking k=6": {"model_ms": 5.6},
                "sideways k=1": {"model_ms": 1.2},
                "sideways k=6": {"model_ms": 7.1}}},
        }
    raise AssertionError(gate)


def _swap(table, a, b):
    table[a], table[b] = table[b], table[a]


def _violated(gate, payload):
    if gate in ("fig4a", "fig6"):
        _swap(payload["model_ms"], "sideways", "monetdb")
    elif gate == "fig4b":
        payload["relative_model"]["10%"].reverse()
    elif gate == "exp3_reordering":
        _swap(payload["model_ms"], "radix", "unordered")
    elif gate == "fig5":
        _swap(payload["model_total_ms"], "sideways", "monetdb")
    elif gate == "fig7":
        payload["series_us"]["LFHV"]["sideways"].pop()
    elif gate == "fig9":
        _swap(payload["per_query_model_ms"]["T=2R"], _FULL, _PARTIAL)
    elif gate == "fig10":
        _swap(payload["storage_tuples"]["skewed"], _FULL, _PARTIAL)
    elif gate == "fig11":
        _swap(payload["totals_model_ms"]["S=0.001 noT"], _FULL, _PARTIAL)
    elif gate == "fig12":
        for systems in payload["totals_model_ms"].values():
            _swap(systems, _FULL, _PARTIAL)
    elif gate == "fig13":
        _swap(payload["per_query_model_ms"]["2"], _FULL, _PARTIAL)
    elif gate == "fig14":
        for systems in list(payload["model_ms"].values())[:5]:
            _swap(systems, "sideways", "monetdb")
    elif gate == "sec5_tpch_mixed":
        payload["relative_model"].reverse()
    elif gate == "ablations":
        _swap(payload["mapset_choice"]["totals"], "histogram", "first_predicate")
    elif gate == "extensions":
        _swap(payload["join_strategies"]["totals"], "cracker_join", "hash_join")
    return payload


PAPER_GATES = [gate for *_, gate in PAPER_EXPERIMENTS]


@pytest.mark.parametrize("gate", PAPER_GATES)
def test_paper_gate_fails_when_the_figure_shape_breaks(gate):
    checker = GATES.get(gate)
    checks = checker(_paper_payload(gate), None, {})
    assert checks and all(c.ok for c in checks), checks
    broken = checker(_violated(gate, _paper_payload(gate)), None, {})
    assert [c for c in broken if not c.ok], broken


def test_every_gated_experiment_has_a_ci_config_and_gate_entry():
    from pathlib import Path

    from repro.bench.registry.core import EXPERIMENTS

    ci = Path(__file__).resolve().parent.parent / "ci"
    entries = {entry.experiment: entry for entry in
               load_gate_config(ci / "gates.toml")}
    for name, spec in EXPERIMENTS.items():
        if spec.gate is None:
            continue
        assert (ci / f"{name}.toml").exists(), name
        assert name in entries, f"no [gate.*] entry runs {name}"
        assert entries[name].options["checker"] == spec.gate, name

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
            'current = "current.json"\ntolerance = 25.0\n'))
        (entry,) = load_gate_config(path)
        assert entry.name == "perf"
        assert entry.current == "current.json"
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

    def test_payload_without_the_gate_shape_is_an_error(self, store, tmp_path):
        _put_ref(store, "current/exp01", {"model_ms": {}})
        path = tmp_path / "gates.toml"
        path.write_text('[gate.fig4a]\nexperiment = "exp01"\n')
        (result,) = run_gates(load_gate_config(path), store)
        assert not result.ok
        assert "lacks the shape" in result.error

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
