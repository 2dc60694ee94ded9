"""Unit tests for the experiments CLI."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.campaign import context
from repro.experiments import ALL
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


class TestUsageErrors:
    @pytest.mark.parametrize("argv, message", [
        (["fig99"], "unknown experiments"),
        (["faults", "sweep", "--modes", "earthquake"], "unknown fault modes"),
        (["faults", "sweep", "--schemes", "nope"],
         "unknown fault-sweep schemes"),
        (["scenarios", "run", "nope"], "unknown scenarios"),
        # a fabric run's parallelism is its worker count
        (["fig9", "--jobs", "2", "--fabric", "2"],
         "argument --fabric: not allowed with argument --jobs"),
        (["fabric", "serve", "fig9", "--jobs", "2"],
         "unrecognized arguments: --jobs"),
        (["fabric", "serve", "fig9", "--fabric", "2"],
         "unrecognized arguments: --fabric"),
        # the live view is `fabric status URL`
        (["campaign", "status", "--url", "http://127.0.0.1:1"],
         "unrecognized arguments: --url"),
        (["obs", "report", "--rate", "1.5"],
         "--rate 1.5: phase rate must be in [0, 1]"),
    ])
    def test_exits_2(self, argv, message, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert message in capsys.readouterr().err


class TestCampaignCommands:
    def test_run_status_clean(self, capsys):
        ctx = context.get_context()
        assert main(["campaign", "run", "fig9", "--jobs", "1"]) == 0
        captured = capsys.readouterr()
        assert "=== fig9" in captured.out
        assert "[4/4] cached=0 computed=4 failed=0" in captured.err
        assert main(["campaign", "status"]) == 0
        out = capsys.readouterr().out
        assert "fig9: 4 points — done=4" in out
        assert "run cache: 4 entries" in out
        assert main(["campaign", "clean", "fig9"]) == 0
        assert "removed campaign store" in capsys.readouterr().out
        assert not (ctx.campaign_dir / "fig9.sqlite").exists()
        assert len(ctx.cache()) == 4

    def test_clean_cache_without_names_drops_every_store(self, capsys):
        ctx = context.get_context()
        ctx.store("fig7")
        ctx.store("fig9")
        assert main(["campaign", "clean", "--cache"]) == 0
        out = capsys.readouterr().out
        assert "fig7.sqlite" in out and "fig9.sqlite" in out
        assert "cleared 0 cached results" in out
        assert not list(ctx.campaign_dir.glob("*.sqlite"))

    def test_scenarios_sweep_json(self, tmp_path, capsys):
        out = tmp_path / "sweep.json"
        assert main(["scenarios", "sweep", "bursty", "--scales", "0.5,1",
                     "--seeds", "1", "--jobs", "1", "--json",
                     str(out)]) == 0
        text = capsys.readouterr().out
        assert "=== scenario sweep" in text
        assert "0 hits, 4 misses" in text
        payload = json.loads(out.read_text())
        assert payload["scenario"] == "bursty"
        assert [r["scale"] for r in payload["rows"]] == [0.5, 1.0] * 2


class TestFabricFlag:
    """``--fabric N`` runs through a loopback session wherever it is
    accepted, and the result is the local executor's to the byte."""

    @pytest.mark.parametrize("argv", [
        ["faults", "sweep", "--schemes", "fastpass", "--rates", "0.05",
         "--modes", "cut"],
        ["scenarios", "sweep", "bursty", "--scales", "0.5", "--seeds", "1"],
    ], ids=["faults", "scenarios"])
    def test_fabric_equals_local(self, argv, tmp_path, capsys):
        local, fabric = tmp_path / "local.json", tmp_path / "fabric.json"
        assert main([*argv, "--no-cache", "--jobs", "1",
                     "--json", str(local)]) == 0
        assert "loopback fabric" not in capsys.readouterr().err
        assert main([*argv, "--no-cache", "--fabric", "2",
                     "--json", str(fabric)]) == 0
        assert "loopback fabric: coordinator" in capsys.readouterr().err
        assert fabric.read_bytes() == local.read_bytes()


def test_results_dir_moves_every_artifact(tmp_path, monkeypatch, capsys):
    from repro.fault.postmortem import diagnostics_dir
    from repro.obs.exporters import metrics_dir

    root = tmp_path / "elsewhere"
    monkeypatch.setenv("REPRO_RESULTS_DIR", str(root))
    monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
    monkeypatch.delenv("REPRO_CAMPAIGN_DIR", raising=False)
    context.reset()
    ctx = context.get_context()
    assert (ctx.cache_dir, ctx.campaign_dir) == (root / "cache",
                                                 root / "campaigns")
    assert metrics_dir() == root / "metrics"
    assert diagnostics_dir() == root / "diagnostics"
    assert main(["fabric", "serve", "table2", "--workers", "0"]) == 0
    assert (root / "fabric" / "status_final.json").exists()


def test_fabric_work_refused_at_the_door_exits_2(capsys):
    """A worker whose environment differs from the coordinator's is told
    each differing field with both values and exits 2, no traceback."""
    from repro.fabric import protocol
    from repro.fabric.coordinator import Coordinator

    coord = Coordinator()
    coord.environment = dict(coord.environment, code="0" * 16)
    url = coord.start()
    try:
        assert main(["fabric", "work", url, "--id", "w1"]) == 2
    finally:
        coord.stop()
    err = capsys.readouterr().err
    assert (f"code: coordinator {'0' * 16}, "
            f"worker {protocol.environment()['code']}") in err
    assert "Traceback" not in err
    assert coord.queue.counters.granted == 0


def test_one_figure_imports_no_other():
    """The registry is names; importing a figure loads only its own
    dependencies (checked in a fresh interpreter)."""
    unwanted = {"repro.scenario", "repro.power", "repro.obs"} | {
        f"repro.experiments.{name}" for name in ALL if name != "fig7"}
    code = ("import sys, repro.campaign, repro.experiments.fig7; "
            f"print(sorted({unwanted!r} & set(sys.modules)))")
    src = str(Path(repro.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"
