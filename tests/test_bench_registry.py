"""Registry core: registration, lookup, duplicates, and built-in entries."""

import numpy as np
import pytest

from repro.bench.registry import (
    DATASETS,
    ENGINES,
    EXPERIMENTS,
    GATES,
    METRICS,
    WORKLOADS,
    ExperimentSpec,
    Registry,
    RegistryError,
)
from repro.bench.registry.components import make_engine, uniform_table
from repro.bench.registry.config import ConfigError, parse_config


class TestRegistry:
    def test_register_and_get(self):
        reg = Registry("thing")
        reg.add("alpha", 1)
        assert reg.get("alpha") == 1
        assert "alpha" in reg
        assert len(reg) == 1

    def test_decorator_registration(self):
        reg = Registry("thing")

        @reg.register("named")
        def fn():
            return "x"

        @reg.register()
        def implicit():
            return "y"

        assert reg.get("named") is fn
        assert reg.get("implicit") is implicit

    def test_duplicate_name_rejected(self):
        reg = Registry("thing")
        reg.add("alpha", 1)
        with pytest.raises(RegistryError, match="already registered"):
            reg.add("alpha", 2)
        # The original registration survives the failed re-registration.
        assert reg.get("alpha") == 1

    def test_unknown_name_suggests_close_match(self):
        reg = Registry("thing")
        reg.add("exp16", 1)
        with pytest.raises(RegistryError, match="did you mean exp16"):
            reg.get("exp61")

    def test_unknown_name_lists_registered(self):
        reg = Registry("thing")
        reg.add("alpha", 1)
        with pytest.raises(RegistryError, match="alpha"):
            reg.get("zzz")

    def test_nameless_registration_rejected(self):
        reg = Registry("thing")
        with pytest.raises(RegistryError, match="string name"):
            reg.add(None, 1)

    def test_names_and_items_sorted(self):
        reg = Registry("thing")
        reg.add("b", 2)
        reg.add("a", 1)
        assert reg.names() == ["a", "b"]
        assert list(reg.items()) == [("a", 1), ("b", 2)]


class TestBuiltinRegistrations:
    def test_experiments_registered(self):
        paper = [f"exp{i:02d}" for i in range(1, 14)]
        for name in paper + ["ablations", "extensions", "kernels", "exp14",
                             "exp15", "exp16", "exp17", "exp18", "exp19"]:
            spec = EXPERIMENTS.get(name)
            assert isinstance(spec, ExperimentSpec)
            assert spec.name == name

    def test_gated_experiments_have_registered_gates(self):
        for name, spec in EXPERIMENTS.items():
            if spec.gate is not None:
                assert spec.gate in GATES, name
            if spec.metrics is not None:
                assert spec.metrics in METRICS, name

    def test_engines_cover_harness_factories(self):
        from repro.bench.harness import ENGINE_FACTORIES

        for name in ENGINE_FACTORIES:
            assert name in ENGINES

    def test_datasets_and_workloads(self):
        assert "uniform_table" in DATASETS
        assert len(WORKLOADS) >= 1


class TestComponents:
    def test_uniform_table_bit_compatible_with_inline_builder(self):
        # The ported drivers must draw the exact RNG stream the legacy
        # inline builders drew, or BENCH outputs silently change.
        rows, domain, seed = 1000, 500, 42
        table = uniform_table(rows, domain, seed)
        rng = np.random.default_rng(seed)
        for attr in ("A", "B"):
            expected = rng.integers(1, domain + 1, size=rows).astype(np.int64)
            np.testing.assert_array_equal(table[attr], expected)

    def test_uniform_table_zero_based_variant(self):
        rows, domain, seed = 512, 100, 7
        table = uniform_table(rows, domain, seed, attrs=("A", "B", "C"),
                              low=0, high=domain)
        rng = np.random.default_rng(seed)
        for attr in ("A", "B", "C"):
            expected = rng.integers(0, domain, size=rows).astype(np.int64)
            np.testing.assert_array_equal(table[attr], expected)

    def test_make_engine_resolves_registry(self):
        from repro.engine.database import Database

        db = Database()
        db.create_table("R", uniform_table(256, 64, 3))
        engine = make_engine("selection_cracking", db)
        assert engine is not None
        with pytest.raises(RegistryError):
            make_engine("no_such_engine", db)


class TestConfigParsing:
    def test_minimal_config(self):
        cfg = parse_config({"experiment": {"name": "exp16"}})
        assert cfg.name == "exp16"
        assert cfg.scale is None
        assert cfg.cells() == [{}]

    def test_unknown_section_rejected(self):
        with pytest.raises(ConfigError, match="unknown section"):
            parse_config({"experiment": {"name": "x"}, "exxperiment": {}})

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config({"experiment": {"name": "x", "scal": 0.1}})
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config({"experiment": {"name": "x"},
                          "artifact": {"compat": "y.json"}})

    def test_missing_name_rejected(self):
        with pytest.raises(ConfigError, match="needs a string 'name'"):
            parse_config({"experiment": {"scale": 0.1}})

    def test_type_validation(self):
        with pytest.raises(ConfigError, match="scale must be a number"):
            parse_config({"experiment": {"name": "x", "scale": "big"}})
        with pytest.raises(ConfigError, match="seed must be an integer"):
            parse_config({"experiment": {"name": "x", "seed": 1.5}})

    def test_params_sweep_overlap_rejected(self):
        with pytest.raises(ConfigError, match="both"):
            parse_config({
                "experiment": {"name": "x"},
                "params": {"queries": 10},
                "sweep": {"queries": [10, 20]},
            })

    def test_empty_sweep_list_rejected(self):
        with pytest.raises(ConfigError, match="non-empty list"):
            parse_config({"experiment": {"name": "x"}, "sweep": {"q": []}})

    def test_sweep_expansion_is_deterministic_cartesian(self):
        cfg = parse_config({
            "experiment": {"name": "x"},
            "params": {"fixed": 1},
            "sweep": {"a": [1, 2], "b": ["u", "v"]},
        })
        assert cfg.cells() == [
            {"fixed": 1, "a": 1, "b": "u"},
            {"fixed": 1, "a": 1, "b": "v"},
            {"fixed": 1, "a": 2, "b": "u"},
            {"fixed": 1, "a": 2, "b": "v"},
        ]

    def test_checked_in_ci_configs_parse(self):
        from pathlib import Path

        from repro.bench.registry.config import load_config

        ci_dir = Path(__file__).resolve().parent.parent / "ci"
        configs = sorted(p for p in ci_dir.glob("*.toml")
                         if p.name != "gates.toml")
        assert len(configs) >= 6
        for path in configs:
            cfg = load_config(path)
            assert cfg.name in EXPERIMENTS
