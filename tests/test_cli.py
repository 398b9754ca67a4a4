"""The command-line interface."""

import pytest

from repro.bench.registry import EXPERIMENTS
from repro.cli import build_parser, main


class TestParser:
    def test_list_command(self, capsys):
        assert main(["list"]) == 0
        lines = capsys.readouterr().out.splitlines()
        listed = [line.split()[0] for line in lines[1:]]
        assert listed == EXPERIMENTS.names()  # each experiment once

    def test_unknown_experiment(self, capsys):
        assert main(["run", "exp99"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestRun:
    def test_run_experiment_small(self, capsys):
        assert main(["run", "exp03", "--scale", "0.2"]) == 0
        out = capsys.readouterr().out
        assert "exp03" in out
        assert "unordered" in out

    def test_run_ablation(self, capsys):
        assert main(["run", "ablations", "--scale", "0.2"]) == 0
        out = capsys.readouterr().out
        assert "crack_in_three" in out
        assert "Ablation: chunk size enforcement" in out

    def test_run_extension(self, capsys):
        assert main(["run", "extensions", "--scale", "0.2"]) == 0
        out = capsys.readouterr().out
        assert "piece_exploiting" in out
        assert "Extension: row vs column" in out

    def test_run_writes_no_file(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["run", "exp17", "--scale", "0.02"]) == 0
        assert list(tmp_path.iterdir()) == []


class TestVerify:
    def test_verify_agrees(self, capsys):
        assert main(["verify", "--scale", "0.5", "--variations", "1"]) == 0
        assert "OK" in capsys.readouterr().out
