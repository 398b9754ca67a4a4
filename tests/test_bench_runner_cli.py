"""Config runner, smoke runner, trend report, and the repro.bench CLI."""

import pytest

from repro.analysis.checks import Checks, current
from repro.analysis.racesan import active_detectors
from repro.analysis.sanitizer import active_sanitizers
from repro.bench.harness import time_alternating
from repro.bench.registry.artifacts import ArtifactStore
from repro.bench.registry.config import ConfigError, ExperimentConfig, parse_config
from repro.bench.registry.core import EXPERIMENTS, ExperimentSpec
from repro.bench.registry.runner import run_config, run_smoke
from repro.bench.registry.trend import build_report, mann_whitney_u
from repro.faults.plan import active_plan


def _toy_driver(scale=1.0, queries=10, seed=42):
    armed = current()
    return {
        "scale": scale,
        "queries": queries,
        "seed": seed,
        "armed_faults": armed.plan.describe() if armed.plan else None,
        "armed_sanitize": armed.sanitizer.level if armed.sanitizer else None,
        "summary": {"speedup": 2.0 * scale, "all_ok": True},
    }


@pytest.fixture
def toy_spec():
    spec = ExperimentSpec(
        name="toyexp",
        module="<toy>",
        description="toy experiment for runner tests",
        params=("queries", "seed"),
        baseline_ref="baseline/toyexp",
        runner=_toy_driver,
    )
    EXPERIMENTS.add(spec.name, spec)
    try:
        yield spec
    finally:
        del EXPERIMENTS._items[spec.name]


@pytest.fixture
def store(tmp_path):
    return ArtifactStore(tmp_path / "artifacts")


class TestRunConfig:
    def test_single_run_stores_artifact_and_ref(self, toy_spec, store):
        config = ExperimentConfig(name="toyexp", scale=0.5,
                                  params={"queries": 3})
        (outcome,) = run_config(config, store, quiet=True)
        assert outcome.ref == "current/toyexp"
        assert store.resolve("ref:current/toyexp") == outcome.result
        assert outcome.result["queries"] == 3
        assert outcome.result["scale"] == 0.5
        # Metadata carries the provenance the gate/report rely on.
        assert outcome.record.meta["scale"] == 0.5
        assert outcome.record.meta["params"] == {"queries": 3}

    def test_scale_precedence(self, toy_spec, store, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "0.25")
        config = ExperimentConfig(name="toyexp")
        (outcome,) = run_config(config, store, quiet=True)
        assert outcome.result["scale"] == 0.25  # env default
        assert outcome.record.meta["repro_scale_env"] == "0.25"
        config = ExperimentConfig(name="toyexp", scale=0.5)
        (outcome,) = run_config(config, store, quiet=True)
        assert outcome.result["scale"] == 0.5  # config beats env
        (outcome,) = run_config(config, store, scale=0.75, quiet=True)
        assert outcome.result["scale"] == 0.75  # CLI beats config

    def test_seed_flows_into_run_and_metadata(self, toy_spec, store):
        config = ExperimentConfig(name="toyexp", seed=7)
        (outcome,) = run_config(config, store, quiet=True)
        assert outcome.result["seed"] == 7
        assert outcome.record.meta["seed"] == 7

    def test_unknown_param_rejected(self, toy_spec, store):
        config = ExperimentConfig(name="toyexp", params={"bogus": 1})
        with pytest.raises(ConfigError, match="bogus"):
            run_config(config, store, quiet=True)

    def test_unknown_experiment_rejected(self, store):
        from repro.bench.registry.core import RegistryError

        config = ExperimentConfig(name="no_such_experiment")
        with pytest.raises(RegistryError):
            run_config(config, store, quiet=True)

    def test_sweep_fans_out_with_indexed_refs(self, toy_spec, store):
        config = ExperimentConfig(name="toyexp",
                                  sweep={"queries": [1, 2, 3]})
        outcomes = run_config(config, store, quiet=True)
        assert [o.ref for o in outcomes] == [
            "current/toyexp/0", "current/toyexp/1", "current/toyexp/2"]
        assert [o.result["queries"] for o in outcomes] == [1, 2, 3]
        assert store.resolve("ref:current/toyexp/2")["queries"] == 3

    def test_env_knobs_armed_and_restored(self, toy_spec, store):
        checks = Checks(sanitize="deep", faults="mapset.align=error")
        config = ExperimentConfig(name="toyexp", checks=checks)
        with Checks(sanitize="off", faults="", racesan=False).armed():
            (outcome,) = run_config(config, store, quiet=True)
            assert active_plan() is None
            assert active_sanitizers() == []
            assert active_detectors() == []
        assert outcome.result["armed_faults"] == "mapset.align@1=error"
        assert outcome.result["armed_sanitize"] == "deep"
        meta = outcome.record.meta
        assert (meta["sanitize"], meta["faults"]) == ("deep", "mapset.align=error")

    def test_malformed_fault_plan_fails_fast(self, toy_spec, store):
        raw = {"experiment": {"name": "toyexp"},
               "run": {"faults": "not a fault plan !!"}}
        with pytest.raises(ConfigError, match=r"\[run\]"):
            parse_config(raw)

    def test_run_table_racesan_is_stored(self, toy_spec, store):
        raw = {"experiment": {"name": "toyexp"}, "run": {"racesan": "on"}}
        (outcome,) = run_config(parse_config(raw), store, quiet=True)
        assert outcome.record.meta["racesan"] is True
        plain = ExperimentConfig(name="toyexp")
        with Checks(racesan=False).armed():
            (outcome,) = run_config(plain, store, quiet=True)
        assert outcome.record.meta["racesan"] is False

    def test_run_writes_only_into_store(self, toy_spec, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        store = ArtifactStore(tmp_path / "artifacts")
        run_config(ExperimentConfig(name="toyexp"), store, quiet=True)
        assert [p.name for p in tmp_path.iterdir()] == ["artifacts"]

    def test_config_ref_refreshes_baseline(self, toy_spec, store):
        config = ExperimentConfig(name="toyexp", scale=0.25,
                                  ref="baseline/toyexp")
        (outcome,) = run_config(config, store, quiet=True)
        assert outcome.ref == "baseline/toyexp"
        assert store.resolve("ref:baseline/toyexp")["scale"] == 0.25
        assert store.get_ref("current/toyexp") is None


class TestRunSmoke:
    def test_smoke_runs_toy_under_smoke_ref(self, toy_spec, store, tmp_path,
                                            monkeypatch):
        monkeypatch.chdir(tmp_path)
        outcomes = run_smoke(store, scale=0.5, echo=lambda *_: None)
        toy = [o for o in outcomes if o.experiment == "toyexp"]
        assert len(toy) == 1
        assert toy[0].ref == "smoke/toyexp"


class TestTrendReport:
    def test_report_renders_current_and_baseline(self, toy_spec, store):
        run_config(ExperimentConfig(name="toyexp", scale=0.75,
                                    ref="baseline/toyexp"), store, quiet=True)
        config = ExperimentConfig(name="toyexp", scale=0.5)
        run_config(config, store, quiet=True)
        report = build_report(store, experiments=["toyexp"])
        assert "## toyexp" in report
        assert "current" in report and "baseline" in report
        assert "| run | when (UTC) | git | scale | seed |" in report
        # Generic metric fallback picks up summary scalars.
        assert "speedup" in report

    def test_mann_whitney_detects_shift(self):
        a = [1.0, 1.1, 1.05, 0.98, 1.02, 1.07, 0.99, 1.03]
        b = [2.0, 2.1, 2.05, 1.98, 2.02, 2.07, 1.99, 2.03]
        assert mann_whitney_u(a, b) < 0.01
        assert mann_whitney_u(a, a) > 0.5
        assert mann_whitney_u([], a) == 1.0

    def test_significance_lines_over_raw_samples(self):
        from repro.bench.registry.trend import significance_lines

        current = {"cases": [{"case": "crack_two",
                              "kernel_samples_s": [1.0, 1.1, 1.05],
                              "compare_samples_s": [0.5, 0.52, 0.51]}]}
        lines = significance_lines(current, current)
        assert any("crack_two:kernel" in line for line in lines)
        assert any("crack_two:compare" in line for line in lines)
        assert any("not significant" in line for line in lines)


class TestTimeCallableSamples:
    def test_raw_samples_recorded(self):
        calls = []
        timings = time_alternating(
            lambda: calls.append("first"), lambda: calls.append("second"),
            repeats=5, setup=(lambda: calls.append("setup"), None),
        )
        for timing in timings:
            assert len(timing["samples_s"]) == 5
            assert timing["min_s"] <= timing["median_s"] <= timing["max_s"]
            assert min(timing["samples_s"]) == timing["min_s"]
            assert max(timing["samples_s"]) == timing["max_s"]
        # Two warmups, then five repeats in alternating order; the setup
        # runs before every call of its side and never before the other.
        first, second = ["setup", "first"], ["second"]
        assert calls == (
            (first + second) * 2
            + (first + second + second + first) * 2 + first + second
        )


class TestCli:
    def test_list_names_experiments(self, capsys, tmp_path):
        from repro.bench.__main__ import main

        assert main(["--store", str(tmp_path), "list"]) == 0
        out = capsys.readouterr().out
        for name in ("kernels", "exp14", "exp16", "exp17", "exp18", "exp19"):
            assert name in out

    def test_run_config_file_end_to_end(self, toy_spec, tmp_path, capsys,
                                        monkeypatch):
        from repro.bench.__main__ import main

        monkeypatch.chdir(tmp_path)
        config = tmp_path / "toy.toml"
        config.write_text(
            '[experiment]\nname = "toyexp"\nscale = 0.5\nseed = 9\n'
            "[params]\nqueries = 4\n")
        rc = main(["--store", str(tmp_path / "store"), "run", str(config),
                   "--quiet"])
        assert rc == 0
        assert "stored toyexp ->" in capsys.readouterr().out
        store = ArtifactStore(tmp_path / "store")
        payload = store.resolve("ref:current/toyexp")
        assert payload["queries"] == 4 and payload["seed"] == 9

    def test_run_rejects_bad_config_with_exit_two(self, tmp_path):
        from repro.bench.__main__ import main

        config = tmp_path / "bad.toml"
        config.write_text('[experiment]\nname = "toyexp"\ntypo = 1\n')
        assert main(["--store", str(tmp_path), "run", str(config)]) == 2

    def test_report_writes_markdown(self, toy_spec, store, tmp_path):
        from repro.bench.__main__ import main

        run_config(ExperimentConfig(name="toyexp"), store, quiet=True)
        out = tmp_path / "trend.md"
        rc = main(["--store", str(store.root), "report",
                   "--experiments", "toyexp", "--output", str(out)])
        assert rc == 0
        assert out.read_text().startswith("# Benchmark trends")
