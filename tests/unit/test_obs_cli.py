"""End-to-end tests of ``repro-experiments obs`` and the run_point /
campaign-worker metrics wiring."""

import json

import pytest

from repro.experiments.cli import main as cli_main

from tests.unit.test_obs_exporters import parse_prometheus

SMALL = ["--rows", "4", "--cols", "4", "--rate", "0.06",
         "--warmup", "50", "--measure", "200"]


@pytest.fixture(autouse=True)
def _results_dir(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path))
    return tmp_path


class TestObsCli:
    def test_report_prints_counters(self, capsys):
        assert cli_main(["obs", "report", *SMALL]) == 0
        out = capsys.readouterr().out
        assert "noc_generated_total" in out
        assert "latency histogram" in out
        assert "metrics artifact:" in out

    def test_export_prometheus_parses(self, capsys):
        assert cli_main(["obs", "export", *SMALL,
                         "--format", "prometheus"]) == 0
        out = capsys.readouterr().out
        samples, helps, types = parse_prometheus(out)
        gen = samples[("noc_generated_total", ())]
        assert gen > 0
        assert types["noc_packet_latency_cycles"] == "histogram"
        # bucket series is cumulative and ends at +Inf == _count
        inf = samples[("noc_packet_latency_cycles_bucket",
                       (("le", "+Inf"),))]
        assert inf == samples[("noc_packet_latency_cycles_count", ())]

    def test_export_json_to_file(self, tmp_path, capsys):
        out_file = tmp_path / "snap.json"
        assert cli_main(["obs", "export", *SMALL, "--format", "json",
                         "--out", str(out_file)]) == 0
        payload = json.loads(out_file.read_text())
        assert payload["kind"] == "repro-metrics"
        assert payload["metrics"]["counters"]["noc_generated_total"] > 0
        assert payload["series"]          # sampling on by default cadence

    def test_artifact_written_under_results_dir(self, _results_dir,
                                                capsys):
        assert cli_main(["obs", "report", *SMALL]) == 0
        files = list((_results_dir / "metrics").glob("metrics_*.json"))
        assert len(files) == 1


class TestRunPointMetrics:
    def test_run_point_metrics_artifact_and_extra(self, _results_dir):
        from repro.config import SimConfig
        from repro.sim.runner import run_point

        cfg = SimConfig(rows=4, cols=4, warmup_cycles=50,
                        measure_cycles=200, fastpass_slot_cycles=64)
        res = run_point("fastpass", "uniform", 0.06, cfg, metrics=50)
        meta = res.extra["metrics"]
        assert meta["events"] > 0
        assert meta["counters"]["noc_generated_total"] > 0
        from pathlib import Path
        artifact = Path(meta["path"])
        assert artifact.parent == _results_dir / "metrics"
        payload = json.loads(artifact.read_text())
        assert payload["kind"] == "repro-metrics"
        assert payload["series"]["noc_packets_in_flight"]["cycles"]

    def test_run_point_metrics_is_result_neutral(self):
        from repro.config import SimConfig
        from repro.sim.runner import run_point

        cfg = SimConfig(rows=4, cols=4, warmup_cycles=50,
                        measure_cycles=200, fastpass_slot_cycles=64)
        plain = run_point("fastpass", "uniform", 0.06, cfg)
        inst = run_point("fastpass", "uniform", 0.06, cfg, metrics=True)
        assert plain.avg_latency == inst.avg_latency
        assert plain.ejected == inst.ejected
        assert plain.cycles == inst.cycles

    def test_worker_env_opt_in(self, monkeypatch, _results_dir):
        from repro.campaign.worker import execute_point
        from repro.config import SimConfig
        from repro.sim.parallel import Point
        from repro.sim.workload import Synthetic

        monkeypatch.setenv("REPRO_METRICS", "100")
        cfg = SimConfig(rows=4, cols=4, warmup_cycles=50,
                        measure_cycles=200, fastpass_slot_cycles=64)
        point = Point("fastpass", Synthetic("uniform", 0.06), {"n_vcs": 2})
        res = execute_point(point, cfg)
        assert "metrics" in res.extra
        assert (_results_dir / "metrics").exists()

    def test_worker_defaults_to_no_metrics(self, monkeypatch,
                                           _results_dir):
        from repro.campaign.worker import execute_point
        from repro.config import SimConfig
        from repro.sim.parallel import Point
        from repro.sim.workload import Synthetic

        monkeypatch.delenv("REPRO_METRICS", raising=False)
        cfg = SimConfig(rows=4, cols=4, warmup_cycles=50,
                        measure_cycles=200, fastpass_slot_cycles=64)
        point = Point("fastpass", Synthetic("uniform", 0.06), {"n_vcs": 2})
        res = execute_point(point, cfg)
        assert "metrics" not in res.extra
        assert not (_results_dir / "metrics").exists()
