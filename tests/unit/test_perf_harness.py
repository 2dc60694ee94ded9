"""Unit tests for the perf-regression harness (snapshot files + gate)."""

import json

import pytest

from repro.experiments import perf


def _point(key, cps, **overrides):
    pt = {"key": key, "cycles_per_sec": cps, "cycles": 2700,
          "injected": 100, "ejected": 100, "avg_latency": 12.5,
          "p99_latency": 30.0, "deadlocked": False}
    pt.update(overrides)
    return pt


def _snap(points):
    return {"kind": "repro-perf-snapshot", "points": points}


class TestPointKey:
    def test_stable_and_readable(self):
        key = perf.point_key("fastpass", {"n_vcs": 4}, "uniform", 0.02)
        assert key == "fastpass(n_vcs=4)/uniform@0.02"

    def test_kwargs_sorted(self):
        a = perf.point_key("x", {"b": 1, "a": 2}, "uniform", 0.1)
        b = perf.point_key("x", {"a": 2, "b": 1}, "uniform", 0.1)
        assert a == b


class TestSnapshotFiles:
    def test_next_path_starts_at_one(self, tmp_path):
        assert perf.next_snapshot_path(tmp_path).name == "BENCH_1.json"

    def test_next_path_fills_gaps(self, tmp_path):
        (tmp_path / "BENCH_1.json").write_text("{}")
        (tmp_path / "BENCH_3.json").write_text("{}")
        assert perf.next_snapshot_path(tmp_path).name == "BENCH_2.json"

    def test_non_numeric_stems_ignored(self, tmp_path):
        (tmp_path / "BENCH_baseline.json").write_text("{}")
        assert perf.next_snapshot_path(tmp_path).name == "BENCH_1.json"

    def test_write_snapshot_explicit_out(self, tmp_path):
        out = tmp_path / "sub" / "snap.json"
        path = perf.write_snapshot({"a": 1}, str(out))
        assert path == out
        assert json.loads(out.read_text()) == {"a": 1}


class TestCompareGate:
    def test_pass_when_fast_enough(self, capsys):
        new = _snap([_point("p", 2000.0)])
        base = _snap([_point("p", 1000.0)])
        assert perf.compare(new, base, fail_under=0.75) == 0

    def test_fails_on_regression(self, capsys):
        new = _snap([_point("p", 700.0)])
        base = _snap([_point("p", 1000.0)])
        assert perf.compare(new, base, fail_under=0.75) == 1
        assert "PERF REGRESSION" in capsys.readouterr().out

    def test_worst_point_gates(self, capsys):
        new = _snap([_point("a", 3000.0), _point("b", 500.0)])
        base = _snap([_point("a", 1000.0), _point("b", 1000.0)])
        assert perf.compare(new, base, fail_under=0.75) == 1

    def test_new_points_do_not_gate(self, capsys):
        new = _snap([_point("old", 1000.0), _point("brand-new", 1.0)])
        base = _snap([_point("old", 1000.0)])
        assert perf.compare(new, base, fail_under=0.75) == 0

    def test_result_drift_is_an_error(self, capsys):
        new = _snap([_point("p", 1000.0, ejected=99)])
        base = _snap([_point("p", 1000.0, ejected=100)])
        assert perf.compare(new, base, fail_under=0.75) == 2
        assert "RESULT DRIFT" in capsys.readouterr().out

    def test_result_drift_waivable(self, capsys):
        new = _snap([_point("p", 1000.0, ejected=99)])
        base = _snap([_point("p", 1000.0, ejected=100)])
        assert perf.compare(new, base, fail_under=0.75,
                            allow_result_drift=True) == 0

    def test_drift_and_regression_reports_drift_code(self, capsys):
        new = _snap([_point("p", 100.0, ejected=99)])
        base = _snap([_point("p", 1000.0, ejected=100)])
        assert perf.compare(new, base, fail_under=0.75) == 2

    def test_nan_latency_is_not_drift(self, capsys):
        nan = float("nan")
        new = _snap([_point("p", 1000.0, avg_latency=nan)])
        base = _snap([_point("p", 1000.0, avg_latency=nan)])
        assert perf.compare(new, base, fail_under=0.75) == 0


class TestProfile:
    def _shrink(self, monkeypatch, tmp_path):
        from repro.config import SimConfig

        monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path))
        monkeypatch.setattr(perf, "SNAPSHOT_POINTS",
                            [("escapevc", {}, "uniform", 0.05)])
        monkeypatch.setattr(
            perf, "snapshot_config",
            lambda engine="active": SimConfig(
                rows=4, cols=4, warmup_cycles=50, measure_cycles=150,
                drain_cycles=300, engine=engine))

    def test_run_profile_writes_prof_and_report(self, tmp_path,
                                                monkeypatch):
        import pstats

        self._shrink(monkeypatch, tmp_path)
        prof_path, txt_path = perf.run_profile(top=10)
        assert prof_path.name == "snapshot.prof"
        stats = pstats.Stats(str(prof_path))   # loadable by pstats
        assert stats.total_calls > 0
        report = txt_path.read_text()
        assert "cumulative" in report and "tottime" in report
        # the simulator's hot loop actually shows up in the profile
        assert "step" in report

    def test_cli_profile_flag(self, tmp_path, monkeypatch, capsys):
        from repro.experiments import cli

        self._shrink(monkeypatch, tmp_path)
        fake = _snap([_point("p", 1000.0)])
        fake.update(label=None, total_wall_s=0.1)
        monkeypatch.setattr(
            perf, "run_snapshot",
            lambda repeat=1, label=None, engine="active": fake)
        calls = []
        real = perf.run_profile
        monkeypatch.setattr(perf, "run_profile",
                            lambda top=30: calls.append(top) or real(top))
        out = tmp_path / "new.json"
        rc = cli.main(["perf", "snapshot", "--out", str(out),
                       "--profile", "--profile-top", "5"])
        assert rc == 0
        assert calls == [5]
        assert (tmp_path / "perf" / "profile" / "snapshot.prof").exists()

    def test_no_profile_without_flag(self, tmp_path, monkeypatch, capsys):
        from repro.experiments import cli

        self._shrink(monkeypatch, tmp_path)
        fake = _snap([_point("p", 1000.0)])
        fake.update(label=None, total_wall_s=0.1)
        monkeypatch.setattr(
            perf, "run_snapshot",
            lambda repeat=1, label=None, engine="active": fake)
        monkeypatch.setattr(perf, "run_profile", lambda top=30: (
            (_ for _ in ()).throw(AssertionError("profiled without flag"))))
        rc = cli.main(["perf", "snapshot",
                       "--out", str(tmp_path / "n.json")])
        assert rc == 0


class TestCLI:
    def test_cli_wiring(self, tmp_path, monkeypatch):
        """End-to-end through the experiments CLI with a stubbed sweep."""
        from repro.experiments import cli

        fake = _snap([_point("p", 1000.0)])
        fake.update(label=None, total_wall_s=0.1)
        monkeypatch.setattr(
            perf, "run_snapshot",
            lambda repeat=1, label=None, engine="active": fake)
        base = tmp_path / "base.json"
        base.write_text(json.dumps(_snap([_point("p", 1000.0)])))
        out = tmp_path / "new.json"
        rc = cli.main(["perf", "snapshot", "--out", str(out),
                       "--compare", str(base)])
        assert rc == 0
        assert out.exists()


def _hist_snap(created, total, points, label=None):
    return {"kind": "repro-perf-snapshot", "created": created,
            "label": label, "total_cycles_per_sec": total,
            "points": points}


class TestHistory:
    def test_append_and_load_round_trip(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path))
        snap = _hist_snap("2026-08-06T10:00:00", 1500.0,
                          [_point("p", 1500.0)], label="before")
        path = perf.append_history(snap)
        assert path == tmp_path / "perf" / "history.jsonl"
        perf.append_history(_hist_snap("2026-08-06T11:00:00", 1800.0,
                                       [_point("p", 1800.0)]))
        entries = perf.load_history()
        assert len(entries) == 2
        assert entries[0]["label"] == "before"
        assert entries[1]["total_cycles_per_sec"] == 1800.0
        assert entries[0]["points"] == {"p": 1500.0}

    def test_load_missing_history_is_empty(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path))
        assert perf.load_history() == []

    def test_print_trend_normalises_to_baseline(self, capsys):
        base = _snap([_point("p", 1000.0)])
        base["total_cycles_per_sec"] = 1000.0
        entries = [
            {"created": "t1", "label": None,
             "total_cycles_per_sec": 1500.0, "points": {"p": 1500.0}},
            {"created": "t2", "label": "slow",
             "total_cycles_per_sec": 500.0, "points": {"p": 500.0}},
        ]
        perf.print_trend(entries, base)
        out = capsys.readouterr().out
        assert "1.50x" in out and "0.50x" in out and "slow" in out

    def test_print_trend_without_baseline(self, capsys):
        perf.print_trend([{"created": "t1", "label": None,
                           "total_cycles_per_sec": 100.0,
                           "points": {}}], None)
        assert "t1" in capsys.readouterr().out

    def test_trend_cli_prints_history(self, tmp_path, monkeypatch,
                                      capsys):
        from repro.experiments import cli
        monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path))
        perf.append_history(_hist_snap("t1", 1200.0,
                                       [_point("p", 1200.0)]))
        base = tmp_path / "base.json"
        snap = _snap([_point("p", 1000.0)])
        snap["total_cycles_per_sec"] = 1000.0
        base.write_text(json.dumps(snap))
        rc = cli.main(["perf", "trend", "--baseline", str(base)])
        assert rc == 0
        assert "1.20x" in capsys.readouterr().out

    def test_snapshot_cli_appends_history(self, tmp_path, monkeypatch):
        from repro.experiments import cli
        monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path))
        fake = _snap([_point("p", 1000.0)])
        fake.update(label=None, total_wall_s=0.1,
                    total_cycles_per_sec=1000.0, created="t0")
        monkeypatch.setattr(
            perf, "run_snapshot",
            lambda repeat=1, label=None, engine="active": fake)
        rc = cli.main(["perf", "snapshot",
                       "--out", str(tmp_path / "n.json")])
        assert rc == 0
        assert len(perf.load_history()) == 1
        rc = cli.main(["perf", "snapshot", "--no-history",
                       "--out", str(tmp_path / "n2.json")])
        assert rc == 0
        assert len(perf.load_history()) == 1


def _soa_snap(gate_speedup, points=()):
    return {"kind": "repro-soa-snapshot", "points": list(points),
            "gate_points": ["fastpass()/uniform@0.2/8x8"],
            "gate_speedup": gate_speedup}


class TestSoaSnapshot:
    def _stub(self, monkeypatch, tmp_path, soa_snap):
        monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path))
        fake_main = _snap([_point("p", 1000.0)])
        fake_main.update(label=None, total_wall_s=0.1,
                         total_cycles_per_sec=1000.0, created="t0")
        monkeypatch.setattr(
            perf, "run_snapshot",
            lambda repeat=1, label=None, engine="active": fake_main)
        if isinstance(soa_snap, BaseException):
            def boom(repeat=3):
                raise soa_snap
            monkeypatch.setattr(perf, "run_soa_snapshot", boom)
        else:
            monkeypatch.setattr(perf, "run_soa_snapshot",
                                lambda repeat=3: soa_snap)

    def test_gate_passes_at_floor(self, tmp_path, monkeypatch):
        from repro.experiments import cli
        self._stub(monkeypatch, tmp_path, _soa_snap(2.4))
        out = tmp_path / "soa.json"
        rc = cli.main(["perf", "snapshot", "--soa",
                       "--out", str(tmp_path / "n.json"),
                       "--soa-out", str(out)])
        assert rc == 0
        assert json.loads(out.read_text())["gate_speedup"] == 2.4

    def test_speedup_is_recorded_not_gated(self, tmp_path, monkeypatch,
                                           capsys):
        """The speed floor is gone (its premise — the scalar engine
        polling for credits — is): a kernel slower than the scalar loop
        is a number in the file, not an exit code."""
        from repro.experiments import cli
        self._stub(monkeypatch, tmp_path, _soa_snap(0.4))
        out = tmp_path / "soa.json"
        rc = cli.main(["perf", "snapshot", "--soa",
                       "--out", str(tmp_path / "n.json"),
                       "--soa-out", str(out)])
        assert rc == 0
        assert out.exists()
        assert "SOA REGRESSION" not in capsys.readouterr().out
        with pytest.raises(SystemExit):
            cli.main(["perf", "snapshot", "--soa", "--soa-fail-under", "2"])

    def test_drift_exits_two(self, tmp_path, monkeypatch, capsys):
        from repro.experiments import cli
        self._stub(monkeypatch, tmp_path,
                   perf.ResultDrift("soa drifted at p"))
        rc = cli.main(["perf", "snapshot", "--soa",
                       "--out", str(tmp_path / "n.json"),
                       "--soa-out", str(tmp_path / "soa.json")])
        assert rc == 2
        assert "SOA RESULT DRIFT" in capsys.readouterr().out


class TestEngineInHistory:
    def test_engine_recorded_per_row(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path))
        snap = _hist_snap("t0", 1000.0, [_point("p", 1000.0)])
        snap["engine"] = "soa"
        perf.append_history(snap)
        perf.append_history(_hist_snap("t1", 900.0,
                                       [_point("p", 900.0)]))
        entries = perf.load_history()
        assert entries[0]["engine"] == "soa"
        assert entries[1]["engine"] == "active"   # default when absent

    def test_trend_refuses_cross_engine_ratios(self, capsys):
        base = _snap([_point("p", 1000.0)])
        base["total_cycles_per_sec"] = 1000.0      # engine: active
        entries = [
            {"created": "t1", "label": None, "engine": "soa",
             "total_cycles_per_sec": 3000.0, "points": {"p": 3000.0}},
            {"created": "t2", "label": None, "engine": "active",
             "total_cycles_per_sec": 1500.0, "points": {"p": 1500.0}},
        ]
        perf.print_trend(entries, base)
        out = capsys.readouterr().out
        assert "1.50x" in out                      # same-engine ratio
        assert "3.00x" not in out                  # cross-engine withheld
        assert "different engine" in out

    def test_trend_plots_per_engine_trajectories(self, capsys):
        """Mixed-engine histories are not refused: each non-baseline
        engine normalises against its own first row, marked '*'."""
        base = _snap([_point("p", 1000.0)])
        base["total_cycles_per_sec"] = 1000.0      # engine: active
        entries = [
            {"created": "t1", "label": None, "engine": "soa",
             "total_cycles_per_sec": 2000.0, "points": {"p": 2000.0}},
            {"created": "t2", "label": None, "engine": "soa",
             "total_cycles_per_sec": 5000.0, "points": {"p": 5000.0}},
            {"created": "t3", "label": None, "engine": "active",
             "total_cycles_per_sec": 1200.0, "points": {"p": 1200.0}},
        ]
        perf.print_trend(entries, base)
        out = capsys.readouterr().out
        assert "1.00x*" in out     # soa t1: its own self-baseline
        assert "2.50x*" in out     # soa t2 vs soa t1, starred
        assert "1.20x " in out     # active vs the snapshot baseline
        assert "5.00x" not in out  # never soa-vs-active
        assert "different engine" in out

    def test_compare_flags_cross_engine(self, capsys):
        new = _snap([_point("p", 2000.0)])
        new["engine"] = "soa"
        base = _snap([_point("p", 1000.0)])
        assert perf.compare(new, base, fail_under=0.75) == 0
        assert "cross-engine" in capsys.readouterr().out
