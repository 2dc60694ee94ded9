"""Differential proof that the active-set engine is bit-identical to the
naive all-components sweep.

Every scheme runs the same seeded workload twice — once through the
active-set fast path (the default) and once with ``force_naive_step``
pinned on — and the two :class:`~repro.config.RunResult` objects must
agree on every field.  The paranoia audit stays on throughout, so the
incremental occupancy counters are also cross-checked against a full
rescan while both engines run.
"""

import dataclasses
import math

import pytest

from repro.config import SimConfig
from repro.schemes import get_scheme, scheme_names
from repro.sim.engine import Simulation
from repro.traffic.synthetic import SyntheticTraffic

SCHEMES = sorted(scheme_names())


def _cfg():
    return SimConfig(rows=4, cols=4, warmup_cycles=100, measure_cycles=300,
                     drain_cycles=1200, fastpass_slot_cycles=64,
                     paranoia=50)


def _run(name, pattern, rate, seed, naive):
    sim = Simulation(_cfg(), get_scheme(name),
                     SyntheticTraffic(pattern, rate, seed=seed))
    sim.net.force_naive_step = naive
    return sim.run()


def _same(a, b):
    if isinstance(a, float) and isinstance(b, float) \
            and math.isnan(a) and math.isnan(b):
        return True
    return a == b


def assert_results_equal(fast, slow, label):
    for f in dataclasses.fields(fast):
        va, vb = getattr(fast, f.name), getattr(slow, f.name)
        assert _same(va, vb), \
            f"{label}: field {f.name!r} differs: active={va!r} naive={vb!r}"


@pytest.mark.parametrize("name", SCHEMES)
@pytest.mark.parametrize("pattern,rate", [("uniform", 0.08),
                                          ("transpose", 0.06)])
@pytest.mark.parametrize("seed", [3, 11])
def test_active_matches_naive(name, pattern, rate, seed):
    fast = _run(name, pattern, rate, seed, naive=False)
    slow = _run(name, pattern, rate, seed, naive=True)
    assert_results_equal(fast, slow, f"{name}/{pattern}@{rate} seed={seed}")
    assert fast.ejected > 0


def test_naive_flag_actually_switches_paths(monkeypatch):
    """Guard against the differential test silently comparing the fast
    path with itself."""
    from repro.network.network import Network

    calls = []
    orig = Network._step_naive

    def spy(self):
        calls.append(True)
        orig(self)

    monkeypatch.setattr(Network, "_step_naive", spy)
    _run("baseline", "uniform", 0.05, 3, naive=True)
    assert calls


# -- SoA kernel differentials --------------------------------------------
#
# The SoA engine is a write-through overlay over the scalar object graph,
# so its results must match both scalar engines bit-for-bit wherever it
# engages — and where it cannot engage (unsupported scheme, fault plan)
# the silent fallback must land on the active-set path with, again,
# identical results.

def _run_engine(name, pattern, rate, seed, engine, cfg=None, **kwargs):
    cfg = (cfg or _cfg()).with_(engine=engine)
    sim = Simulation(cfg, get_scheme(name, **kwargs),
                     SyntheticTraffic(pattern, rate, seed=seed))
    return sim.run(), sim


@pytest.mark.parametrize("name", ["fastpass", "escapevc", "spin"])
@pytest.mark.parametrize("rate", [0.02, 0.1, 0.3])
def test_soa_matches_naive_and_active(name, rate):
    """SoA vs active-set vs naive on the supported schemes, low load
    through saturation — plus ``spin``, whose out-of-band probe state
    the kernel refuses: it must fall back and still match."""
    seed = 5
    soa_res, soa_sim = _run_engine(name, "uniform", rate, seed, "soa")
    act_res, _ = _run_engine(name, "uniform", rate, seed, "active")
    naive_res = _run(name, "uniform", rate, seed, naive=True)
    label = f"{name}/uniform@{rate}"
    assert_results_equal(soa_res, act_res, f"{label} soa vs active")
    assert_results_equal(soa_res, naive_res, f"{label} soa vs naive")
    if name == "spin":
        assert soa_sim.net.soa is None
        assert "fallback" in soa_sim.engine_used
    else:
        assert soa_sim.engine_used == "soa"
        assert soa_sim.net.soa is not None
        assert soa_sim.net.soa.cycles > 0, "kernel never stepped"


def test_soa_matches_scalar_with_bounces(monkeypatch):
    """A FastPass run in which the bounce protocol demonstrably fires
    (zero consume bandwidth + single-entry ejection queues), forcing the
    kernel through its manager-absorb and scalar-fallback corners."""
    from repro.network.ni import NetworkInterface
    monkeypatch.setattr(NetworkInterface, "CONSUME_RATE", 0)
    cfg = _cfg().with_(ej_queue_pkts=1)
    soa_res, soa_sim = _run_engine("fastpass", "uniform", 0.3, 5, "soa",
                                   cfg=cfg, n_vcs=2)
    act_res, _ = _run_engine("fastpass", "uniform", 0.3, 5, "active",
                             cfg=cfg, n_vcs=2)
    assert soa_sim.engine_used == "soa"
    assert soa_sim.net.fastpass.engine.bounced > 0, "no bounces provoked"
    assert_results_equal(soa_res, act_res, "soa bounces")


def test_soa_falls_back_under_transient_faults():
    """A fault plan mutates link timers and routes out of band, so
    ``engine="soa"`` must silently run the scalar path — reported via
    ``engine_used`` — with bit-identical results."""
    from repro.fault.plan import LINK_FLAP, FaultEvent, FaultPlan
    plan = FaultPlan(
        events=(FaultEvent(LINK_FLAP, at=150, router=5, port=2,
                           duration=120),),
        rate=0.002, start=100, stop=400, seed=3)
    cfg = _cfg().with_(fault_plan=plan, paranoia=0)
    soa_res, soa_sim = _run_engine("fastpass", "uniform", 0.08, 5,
                                   "soa", cfg=cfg)
    act_res, _ = _run_engine("fastpass", "uniform", 0.08, 5,
                             "active", cfg=cfg)
    assert soa_sim.net.soa is None
    assert "fallback" in soa_sim.engine_used
    assert_results_equal(soa_res, act_res, "soa fault fallback")


def test_soa_transpose_and_seeds():
    """Pattern and seed sweep on the supported schemes at a blocked
    rate — the regime the kernel's screen actually exercises."""
    for name in ("baseline", "fastpass", "escapevc"):
        for seed in (3, 11):
            soa_res, soa_sim = _run_engine(name, "transpose", 0.3,
                                           seed, "soa")
            act_res, _ = _run_engine(name, "transpose", 0.3,
                                     seed, "active")
            assert soa_sim.engine_used == "soa"
            assert_results_equal(soa_res, act_res,
                                 f"{name}/transpose seed={seed}")


# -- Scenario-source differentials ---------------------------------------
#
# Every scenario source (bursty/MMPP, hotspot shift, mixed lanes) and the
# trace-replay source must drive all three engines to bit-identical
# results: they sit on the same TrafficSource seam, so any divergence
# means an engine is consuming traffic state out of order.

from repro.scenario.source import ScenarioTraffic  # noqa: E402
from repro.scenario.spec import SCENARIOS  # noqa: E402
from repro.scenario.trace import TraceReplay  # noqa: E402


def _run_scenario(scheme, spec, seed, engine, cfg=None, naive=False):
    cfg = (cfg or _cfg()).with_(engine=engine)
    sim = Simulation(cfg, get_scheme(scheme),
                     ScenarioTraffic(spec, seed=seed))
    sim.net.force_naive_step = naive
    return sim.run(), sim


@pytest.mark.parametrize("scenario",
                         ["bursty", "hotspot_shift", "mixed_lanes"])
def test_scenario_sources_match_across_engines(scenario):
    spec = SCENARIOS[scenario]
    seed = 7
    soa_res, soa_sim = _run_scenario("fastpass", spec, seed, "soa")
    act_res, _ = _run_scenario("fastpass", spec, seed, "active")
    naive_res, _ = _run_scenario("fastpass", spec, seed, "active",
                                 naive=True)
    assert_results_equal(soa_res, act_res, f"{scenario} soa vs active")
    assert_results_equal(soa_res, naive_res, f"{scenario} soa vs naive")
    assert soa_res.ejected > 0
    assert soa_sim.engine_used == "soa"
    assert soa_sim.net.soa is not None and soa_sim.net.soa.cycles > 0


def test_scenario_under_transient_faults_matches():
    """A scenario source driven through a transient fault plan: SoA must
    fall back, and all three paths must still agree bit for bit."""
    from repro.fault.plan import LINK_FLAP, FaultEvent, FaultPlan
    plan = FaultPlan(
        events=(FaultEvent(LINK_FLAP, at=150, router=5, port=2,
                           duration=120),),
        rate=0.002, start=100, stop=400, seed=3)
    cfg = _cfg().with_(fault_plan=plan, paranoia=0)
    spec = SCENARIOS["bursty"]
    soa_res, soa_sim = _run_scenario("fastpass", spec, 5, "soa", cfg=cfg)
    act_res, _ = _run_scenario("fastpass", spec, 5, "active", cfg=cfg)
    naive_res, _ = _run_scenario("fastpass", spec, 5, "active", cfg=cfg,
                                 naive=True)
    assert soa_sim.net.soa is None
    assert "fallback" in soa_sim.engine_used
    assert_results_equal(soa_res, act_res, "scenario faults soa vs active")
    assert_results_equal(soa_res, naive_res, "scenario faults vs naive")


def test_trace_replay_matches_across_engines(tmp_path):
    """Record once, then replay the identical stream through every
    engine — the recorded run and all three replays must agree."""
    from repro.scenario.runner import record_scenario, replay_trace
    rec_res, path = record_scenario("fastpass", SCENARIOS["bursty"],
                                    _cfg(), tmp_path / "t.jsonl", seed=9)
    act_res = replay_trace("fastpass", path, _cfg().with_(engine="active"))
    soa_res = replay_trace("fastpass", path, _cfg().with_(engine="soa"))
    naive_sim = Simulation(_cfg(), get_scheme("fastpass"),
                           TraceReplay.from_file(path))
    naive_sim.net.force_naive_step = True
    naive_res = naive_sim.run()
    naive_res.extra["rate"] = naive_sim.traffic.rate
    naive_res.extra["pattern"] = naive_sim.traffic.pattern
    # The recorded run labels itself "scenario:..." while replays say
    # "trace:..." — everything else must match bit for bit.
    for f in dataclasses.fields(act_res):
        if f.name == "extra":
            continue
        assert _same(getattr(act_res, f.name), getattr(rec_res, f.name)), \
            f"replay vs recorded: field {f.name!r} differs"
    assert {k: v for k, v in act_res.extra.items() if k != "pattern"} \
        == {k: v for k, v in rec_res.extra.items() if k != "pattern"}
    assert_results_equal(soa_res, act_res, "replay soa vs active")
    assert_results_equal(naive_res, act_res, "replay naive vs active")
    assert act_res.ejected > 0


def _run_closed_loop(name, kwargs, app, naive, monkeypatch):
    """One application run; returns ``(result, NodeModel.consume calls)``."""
    from repro.traffic.coherence import NodeModel
    from repro.traffic.workloads import workload_traffic
    calls = []
    consume = NodeModel.consume

    def counted(self, ni, now):
        calls.append(now)
        return consume(self, ni, now)

    monkeypatch.setattr(NodeModel, "consume", counted)
    cfg = SimConfig(rows=8, cols=8, paranoia=50)
    sim = Simulation(cfg.with_(engine="naive" if naive else "active"),
                     get_scheme(name, **kwargs),
                     workload_traffic(app, txns_per_core=12, seed=5))
    res = sim.run_to_completion(max_cycles=40000)
    assert sim.traffic.done()
    return res, len(calls)


@pytest.mark.parametrize("name,kwargs", [("fastpass", {"n_vcs": 4}),
                                         ("escapevc", {}), ("spin", {})])
@pytest.mark.parametrize("app", ["Radix", "Canneal"])
def test_closed_loop_active_matches_naive(name, kwargs, app, monkeypatch):
    """Node models in the active sets: same results as visiting all 64
    nodes in both phases every cycle (the shared rng draws in the same
    order), for under a tenth of the consume calls."""
    fast, fast_calls = _run_closed_loop(name, kwargs, app, False,
                                        monkeypatch)
    slow, slow_calls = _run_closed_loop(name, kwargs, app, True,
                                        monkeypatch)
    assert_results_equal(fast, slow, f"{name}/app:{app}")
    assert slow_calls == slow.cycles * 64
    assert 0 < fast_calls < slow_calls / 10, (fast_calls, slow_calls)


def test_soa_kernel_fast_paths_engage():
    """The perf-bearing fast paths must demonstrably fire: cycles where
    the whole router phase is screened out, injection-step skips, and
    scalar materialisation staying the exception, not the rule."""
    _, sim = _run_engine("fastpass", "uniform", 0.1, 5, "soa")
    k = sim.net.soa
    assert k.cycles > 0
    assert k.skipped > 0, "screen never skipped a router phase"
    assert k.inject_skips > 0, "injection screen never engaged"
    assert k.materialized < k.cycles * sim.net.mesh.n_routers, \
        "every router materialised every cycle — the screen is dead"
