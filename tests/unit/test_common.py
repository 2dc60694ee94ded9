"""Unit tests for the experiments' shared helpers."""

import json

from repro.experiments.cli import main
from repro.experiments.common import (
    FIG7_SCHEMES,
    FIG8_SCHEMES,
    FIG10_SCHEMES,
    app_config,
    app_txns,
    fmt_table,
    fnum,
    synthetic_config,
)


class TestConfigs:
    def test_quick_is_smaller(self):
        q, f = synthetic_config(True), synthetic_config(False)
        assert q.measure_cycles < f.measure_cycles
        assert q.warmup_cycles < f.warmup_cycles

    def test_mesh_dims_passed_through(self):
        cfg = synthetic_config(True, rows=16, cols=16)
        assert cfg.rows == cfg.cols == 16

    def test_app_config_sizes(self):
        assert app_config(True).rows == 4
        assert app_config(False).rows == 8

    def test_names_the_e2e_benchmark_imports(self):
        # benchmarks/e2e/workloads.py imports both (kernel_dense's points,
        # every result_digest): a rename fails here, not in the benchmark
        from repro.experiments.perf import RESULT_FIELDS, soa_config
        assert RESULT_FIELDS == ("injected", "ejected", "avg_latency",
                                 "p99_latency", "deadlocked", "cycles")
        cfg = soa_config(16, 16, "active")
        assert (cfg.rows, cfg.warmup_cycles, cfg.measure_cycles,
                cfg.drain_cycles) == (16, 200, 1000, 1500)

    def test_app_config_scales_drain_period(self):
        assert app_config(True).drain_period_cycles < 64000

    def test_app_txns(self):
        assert app_txns(True) < app_txns(False)


class TestSchemeSets:
    def test_fig7_has_eight_schemes(self):
        assert len(FIG7_SCHEMES) == 8
        assert FIG7_SCHEMES[-1][0] == "FastPass"

    def test_fig8_has_five_schemes(self):
        assert len(FIG8_SCHEMES) == 5

    def test_fig10_includes_both_fastpass_configs(self):
        labels = [s[0] for s in FIG10_SCHEMES]
        assert "FastPass(VN=0, VC=2)" in labels
        assert "FastPass(VN=0, VC=4)" in labels

    def test_fig7_fastpass_uses_four_vcs(self):
        kwargs = dict((name, kw) for _l, name, kw in FIG7_SCHEMES)
        assert kwargs["fastpass"] == {"n_vcs": 4}


class TestFormatting:
    def test_fnum_nan(self):
        assert fnum(float("nan")) == "-"

    def test_fnum_precision(self):
        assert fnum(3.14159, 2) == "3.14"

    def test_fmt_table_alignment(self):
        text = fmt_table(["a", "bb"], [[1, 22], [333, 4]])
        lines = text.splitlines()
        assert len(lines) == 3
        assert all(len(l) == len(lines[0]) for l in lines)


class TestJsonExport:
    def test_cli_json_dump(self, tmp_path, capsys):
        out = tmp_path / "results.json"
        assert main(["table1", "--json", str(out)]) == 0
        data = json.loads(out.read_text())
        assert "table1" in data
        assert len(data["table1"]["rows"]) == 6
