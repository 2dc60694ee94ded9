"""Workload determinism, the result checks, and the verdict over passes."""

import fnmatch
import json
from pathlib import Path

import pytest

import hygiene
import run
import workloads
from repro.config import RunResult, SimConfig

E2E = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_points_come_from_the_seed_alone(name):
    wl = workloads.WORKLOADS[name]
    again = wl.points(7)
    assert wl.points(7) == again
    assert wl.points(8) != again
    json.dumps(again)                     # inputs are plain data


def test_the_six_workloads_carry_the_fixed_names():
    assert list(workloads.WORKLOADS) == run.WORKLOAD_NAMES
    spec = json.loads((hygiene.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == run.WORKLOAD_NAMES
    assert {m["name"] for m in spec["end_to_end"]} == set(run.END_TO_END)


def tiny_kernel():
    cfg = SimConfig(rows=4, cols=4, warmup_cycles=20, measure_cycles=80,
                    drain_cycles=100)
    return workloads.DirectKernel(
        "tiny", lambda: [(workloads.FASTPASS4, "uniform", 0.05, cfg),
                         (workloads.ESCAPEVC, "transpose", 0.05, cfg)],
        crosscheck=1)


def run_tiny(seed, tmp_path):
    wl = tiny_kernel()
    state = wl.setup(workloads.Env(seed=seed, work_dir=tmp_path, nproc=1))
    raw = wl.run(state)
    return wl, state, raw, wl.finish(state, raw)


def test_same_seed_same_digest_other_seed_other_digest(tmp_path):
    *_, first = run_tiny(7, tmp_path)
    *_, again = run_tiny(7, tmp_path)
    *_, other = run_tiny(8, tmp_path)
    assert first.failed == 0 and first.attempted == 2
    assert first.digest == again.digest != other.digest
    assert first.cycles > 0


def test_traced_run_returns_the_same_results_and_restores(tmp_path):
    import ledger
    from tracer import Tracer
    from repro.sim.engine import Simulation
    original = Simulation.run
    wl, state, _, plain = run_tiny(7, tmp_path)
    tracer = Tracer()
    tracer.install(ledger.targets())
    try:
        raw = wl.run(state, tracer)
    finally:
        tracer.uninstall()
    assert Simulation.run is original
    assert wl.finish(state, raw).digest == plain.digest
    m = ledger.layer_metrics(tracer.spans, {"timed": 1.0}, 1, {})
    assert m["sim.engine_used.active"] == 2
    assert m["sim.cycles"] == plain.cycles
    assert 0 < m["sim.build_share"] < 1
    # the traced pass reports exactly what BENCHMARK.json lists
    assert set(m) | {"process.import_s", "process.cpu_s",
                     "process.cpu_to_wall", "trace.overhead_share"} == \
        set(run.per_layer_units())
    requests = {s.request for s in tracer.spans if s.name == "bench.point"}
    assert len(requests) == 2             # one request id per point


def test_naive_crosscheck_agrees_on_the_tiny_kernel(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path / "results"))
    wl, state, raw, _ = run_tiny(7, tmp_path)
    extras = wl.untraced_extras(
        state, raw, workloads.Env(seed=7, work_dir=tmp_path, nproc=1))
    assert extras["crosscheck_notes"] == []
    assert extras["crosscheck_attempted"] == 1
    assert extras["obs.events"] > 0


def test_broken_names_each_failure():
    ok = RunResult(scheme="x", injected=10, ejected=9)
    assert workloads.broken(ok, 0.1, True) is None
    assert "failed_result" in workloads.broken(
        RunResult(scheme="x", extra={"failed": True, "error": "e"}),
        0.1, False)
    assert "injected" in workloads.broken(
        RunResult(scheme="x", injected=1, ejected=2), 0.1, False)
    assert "deadlocked" in workloads.broken(
        RunResult(scheme="x", injected=2, ejected=1, deadlocked=True),
        0.1, True)
    assert workloads.broken(
        RunResult(scheme="x", injected=2, ejected=1, deadlocked=True),
        0.1, False) is None               # saturation is not a failure
    assert "nothing ejected" in workloads.broken(
        RunResult(scheme="x"), 0.1, False)
    # a closed-loop point (rate 0.0) may eject more than it injects
    assert workloads.broken(
        RunResult(scheme="x", injected=1, ejected=2), 0.0, False) is None


def test_digest_is_nan_safe_and_order_sensitive():
    a = RunResult(scheme="x", injected=1, ejected=1)      # NaN latencies
    b = RunResult(scheme="x", injected=2, ejected=2, avg_latency=3.5)
    assert workloads.digest_of([a, b]) == workloads.digest_of([a, b])
    assert workloads.digest_of([a, b]) != workloads.digest_of([b, a])
    assert workloads.same_result(a, RunResult(scheme="x", injected=1,
                                              ejected=1))


def a_pass(digest="d", failed=0, **over):
    base = {"wall_s": 2.0, "setup_s": 0.3, "kcycles_per_s": 5.0,
            "peak_rss_mb": 80.0, "attempted": 4, "failed": failed,
            "digest": digest, "notes": []}
    return {**base, **over}


def test_verdict_counts_failures_and_digest_drift():
    assert run.verdict({"w": [a_pass(), a_pass()]})["failed"] == 0
    drift = run.verdict({"w": [a_pass("d1"), a_pass("d2")]})
    assert drift["failed"] == 1 and drift["attempted"] == 8
    assert run.verdict({"w": [a_pass(failed=2)]})["failed_share"] == 0.5


def test_verdict_compares_fabric_with_local():
    same = run.verdict({"fig7_cold": [a_pass("d")],
                        "fig7_fabric": [a_pass("d")]})
    assert same["failed"] == 0 and same["attempted"] == 9
    differs = run.verdict({"fig7_cold": [a_pass("d")],
                           "fig7_fabric": [a_pass("e")]})
    assert differs["failed"] == 1
    assert "local != fabric" in differs["notes"][-1]


def test_summarise_reports_median_min_max_and_count():
    s = run.summarise([a_pass(wall_s=3.0), a_pass(wall_s=1.0),
                       a_pass(wall_s=2.0)])
    assert s["wall_s"] == {"median": 2.0, "min": 1.0, "max": 3.0, "n": 3}


def test_pass_env_neutralises_the_ambient_knobs(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_JOBS", "9")
    monkeypatch.setenv("REPRO_NO_BATCH", "1")
    monkeypatch.setenv("REPRO_CACHE_DIR", "/elsewhere")
    monkeypatch.setenv("OMP_NUM_THREADS", "8")
    env = hygiene.pass_env(tmp_path)
    assert not {"REPRO_JOBS", "REPRO_NO_BATCH", "REPRO_CACHE_DIR"} & set(env)
    assert env["OMP_NUM_THREADS"] == env["MKL_NUM_THREADS"] == "1"
    assert env["REPRO_RESULTS_DIR"] == str(tmp_path)
    assert env["PYTHONPATH"].split(":")[0] == str(hygiene.SRC)


def test_a_second_run_is_refused_while_the_lock_is_held():
    with hygiene.exclusive_lock():
        with pytest.raises(hygiene.Busy):
            with hygiene.exclusive_lock():
                pass
    with hygiene.exclusive_lock():        # released: can be taken again
        pass


def test_provenance_flags_a_loaded_machine():
    prov = hygiene.provenance()
    assert prov["nproc"] >= 1 and prov["python"] and prov["numpy"]
    prov["load_1min_start"] = prov["nproc"] + 1.0
    assert hygiene.close_provenance(prov)["noisy"] is True


def test_module_names_stay_out_of_pytest_collection():
    for path in E2E.iterdir():
        if path.suffix == ".py":
            assert not fnmatch.fnmatch(path.name, "test_*.py")
            assert not fnmatch.fnmatch(path.name, "bench_*.py")
