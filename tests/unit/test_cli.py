"""Unit tests for the experiments CLI."""

import pytest

from repro.experiments.cli import main


class TestCLI:
    def test_unknown_experiment_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["fig99"])

    def test_retired_perf_subcommand_is_an_unknown_experiment(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["perf", "snapshot"])
        assert exc.value.code == 2
        assert "unknown experiments" in capsys.readouterr().err

    def test_single_cheap_experiment(self, capsys):
        assert main(["table2"]) == 0
        out = capsys.readouterr().out
        assert "table2" in out
        assert "VCT" in out

    def test_table1_runs(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "fastpass" in out

    def test_fig11_runs(self, capsys):
        assert main(["fig11"]) == 0
        out = capsys.readouterr().out
        assert "paper: 40%" in out

    def test_multiple_experiments(self, capsys):
        assert main(["table1", "table2"]) == 0
        out = capsys.readouterr().out
        assert "=== table1" in out and "=== table2" in out
