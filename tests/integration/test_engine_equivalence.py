"""Differential proof that the active-set engine is bit-identical to the
naive all-components sweep.

Every scheme runs the same seeded workload twice — once through the
active-set fast path (the default) and once under ``engine="naive"``,
which pins ``force_naive_step`` on — and the two :class:`~repro.config.RunResult` objects must
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


def _run_engine(name, pattern, rate, seed, engine, cfg=None, **kwargs):
    cfg = (cfg or _cfg()).with_(engine=engine)
    sim = Simulation(cfg, get_scheme(name, **kwargs),
                     SyntheticTraffic(pattern, rate, seed=seed))
    return sim.run(), sim


def _run(name, pattern, rate, seed, naive):
    return _run_engine(name, pattern, rate, seed,
                       "naive" if naive else "active")[0]


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


# -- Saturated and bounce corners ----------------------------------------
#
# Blocked regimes — saturation, and FastPass's bounce protocol — are where
# parking, retry memos and credit wakeups skip the most work, so the two
# engines are compared there too.

def _engines_agree(name, pattern, rate, seed, cfg=None, **kwargs):
    """Run both engines; assert bit-identity; return both simulations."""
    act_res, act_sim = _run_engine(name, pattern, rate, seed, "active",
                                   cfg, **kwargs)
    naive_res, naive_sim = _run_engine(name, pattern, rate, seed, "naive",
                                       cfg, **kwargs)
    assert naive_sim.engine_used == "naive"
    assert_results_equal(act_res, naive_res,
                         f"{name}/{pattern}@{rate} seed={seed}")
    assert act_res.ejected > 0
    return act_sim, naive_sim


@pytest.mark.parametrize("name", ["fastpass", "escapevc", "spin"])
def test_saturated_uniform_active_matches_naive(name):
    _engines_agree(name, "uniform", 0.3, 5)


@pytest.mark.parametrize("name", ["baseline", "fastpass", "escapevc"])
@pytest.mark.parametrize("seed", [3, 11])
def test_saturated_transpose_active_matches_naive(name, seed):
    _engines_agree(name, "transpose", 0.3, seed)


def test_bounces_active_matches_naive(monkeypatch):
    """A FastPass run in which the bounce protocol demonstrably fires
    (zero consume bandwidth + single-entry ejection queues)."""
    from repro.network.ni import NetworkInterface
    monkeypatch.setattr(NetworkInterface, "CONSUME_RATE", 0)
    cfg = _cfg().with_(ej_queue_pkts=1)
    act_sim, naive_sim = _engines_agree("fastpass", "uniform", 0.3, 5,
                                        cfg=cfg, n_vcs=2)
    bounced = act_sim.net.fastpass.engine.bounced
    assert bounced > 0, "no bounces provoked"
    assert naive_sim.net.fastpass.engine.bounced == bounced


# -- Scenario-source differentials ---------------------------------------
#
# Every scenario source (bursty/MMPP, hotspot shift, mixed lanes) and the
# trace-replay source must drive both engines to bit-identical
# results: they sit on the same TrafficSource seam, so any divergence
# means an engine is consuming traffic state out of order.

from repro.sim.workload import Scenario  # noqa: E402
from repro.traffic.spec import SCENARIOS  # noqa: E402


def _run_scenario(scheme, spec, seed, engine, cfg=None):
    cfg = (cfg or _cfg()).with_(engine=engine)
    sim = Simulation(cfg, get_scheme(scheme),
                     Scenario(spec).traffic(seed))
    return sim.run()


@pytest.mark.parametrize("scenario",
                         ["bursty", "hotspot_shift", "mixed_lanes"])
def test_scenario_sources_match_across_engines(scenario):
    spec = SCENARIOS[scenario]
    seed = 7
    act_res = _run_scenario("fastpass", spec, seed, "active")
    naive_res = _run_scenario("fastpass", spec, seed, "naive")
    assert_results_equal(act_res, naive_res, f"{scenario} active vs naive")
    assert act_res.ejected > 0


def test_scenario_under_transient_faults_matches():
    """A scenario source driven through a transient fault plan: both
    engines must still agree bit for bit."""
    from repro.fault.plan import LINK_FLAP, FaultEvent, FaultPlan
    plan = FaultPlan(
        events=(FaultEvent(LINK_FLAP, at=150, router=5, port=2,
                           duration=120),),
        rate=0.002, start=100, stop=400, seed=3)
    cfg = _cfg().with_(fault_plan=plan, paranoia=0)
    spec = SCENARIOS["bursty"]
    act_res = _run_scenario("fastpass", spec, 5, "active", cfg=cfg)
    naive_res = _run_scenario("fastpass", spec, 5, "naive", cfg=cfg)
    assert_results_equal(act_res, naive_res, "scenario faults vs naive")


def test_trace_replay_matches_across_engines(tmp_path):
    """Record once, then replay the identical stream through both
    engines — the recorded run and both replays must agree."""
    from repro.sim.runner import record_scenario, replay_trace
    rec_res, path, _events = record_scenario("fastpass", SCENARIOS["bursty"],
                                    _cfg(), tmp_path / "t.jsonl", seed=9)
    act_res = replay_trace("fastpass", path, _cfg().with_(engine="active"))
    naive_res = replay_trace("fastpass", path, _cfg().with_(engine="naive"))
    # The recorded run labels itself "scenario:..." while replays say
    # "trace:..." — everything else must match bit for bit.
    for f in dataclasses.fields(act_res):
        if f.name == "extra":
            continue
        assert _same(getattr(act_res, f.name), getattr(rec_res, f.name)), \
            f"replay vs recorded: field {f.name!r} differs"
    assert {k: v for k, v in act_res.extra.items() if k != "pattern"} \
        == {k: v for k, v in rec_res.extra.items() if k != "pattern"}
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
