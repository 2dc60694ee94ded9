"""Property tests: the observability counters obey packet conservation.

The metrics registry is fed purely by bus events, an entirely separate
code path from the engine's incremental accounting — so for any scheme,
load and seed, the counter algebra must close exactly:

    generated == ejected + in-flight backlog + (dropped - regenerated)

and the per-counter values must agree with the engine's own
:class:`~repro.sim.stats.StatsCollector` and per-NI tallies.
"""

from hypothesis import example, given, settings, strategies as st

from repro.config import SimConfig
from repro.obs import Observability
from repro.schemes import get_scheme, scheme_names
from repro.sim.engine import Simulation
from repro.traffic.synthetic import PATTERNS, SyntheticTraffic

schemes = st.sampled_from(sorted(scheme_names()))
patterns = st.sampled_from(sorted(PATTERNS))
rates = st.floats(min_value=0.01, max_value=0.25)
seeds = st.integers(min_value=0, max_value=2 ** 16)


def _instrumented(scheme, pattern, rate, seed, **cfg_kw):
    cfg = SimConfig(rows=4, cols=4, fastpass_slot_cycles=64,
                    drain_period_cycles=500, swap_duty_cycles=200,
                    **cfg_kw)
    kwargs = {"n_vcs": 1} if scheme == "fastpass" else {}
    sim = Simulation(cfg, get_scheme(scheme, **kwargs),
                     SyntheticTraffic(pattern, rate, seed=seed))
    obs = Observability().attach(sim.net)
    return sim, obs


def _counters(obs):
    return obs.registry.to_json()["counters"]


@given(scheme=schemes, pattern=patterns, rate=rates, seed=seeds)
@settings(max_examples=20, deadline=None)
def test_counter_algebra_closes(scheme, pattern, rate, seed):
    sim, obs = _instrumented(scheme, pattern, rate, seed)
    net = sim.net
    for _ in range(400):
        net.step()
    c = _counters(obs)
    in_limbo = c["noc_dropped_total"] - c["noc_regenerated_total"]
    assert c["noc_generated_total"] == \
        c["noc_ejected_total"] + net.total_backlog() + in_limbo
    assert in_limbo == net.limbo


@given(scheme=schemes, rate=rates, seed=seeds)
# Pitstop bypasses straight from an injection queue; that network entry
# must reach the bus too (this example reads 946 events against 955
# injected when it does not).
@example(scheme="pitstop", rate=0.3, seed=1)
@settings(max_examples=15, deadline=None)
def test_counters_track_engine_accounting(scheme, rate, seed):
    """Every bus-fed counter equals the engine's independent tally."""
    sim, obs = _instrumented(scheme, "uniform", rate, seed)
    net = sim.net
    for _ in range(400):
        net.step()
    c = _counters(obs)
    assert c["noc_injected_total"] == net.stats.injected
    assert c["noc_ejected_total"] == net.stats.ejected_total
    assert c["noc_dropped_total"] == sum(ni.dropped for ni in net.nis)
    assert c["noc_regenerated_total"] == \
        sum(ni.regenerated for ni in net.nis)


@given(rate=st.floats(min_value=0.05, max_value=0.3), seed=seeds)
@settings(max_examples=15, deadline=None)
def test_fastpass_upgrades_cover_lane_deliveries(rate, seed):
    """Every FastPass delivery rode a lane upgrade first, and bounced
    packets return to their prime at most once per bounce — tiny
    ejection queues force the whole bounce machinery to run."""
    sim, obs = _instrumented("fastpass", "uniform", rate, seed,
                             ej_queue_pkts=1, inj_queue_pkts=2)
    net = sim.net
    for _ in range(600):
        net.step()
    c = _counters(obs)
    upgrades = obs.registry.get("noc_upgrades_total").total()
    assert upgrades >= net.stats.fastpass_delivered
    assert c["noc_bounce_returned_total"] <= c["noc_bounced_total"]
    # conservation survives bounces and dynamic-bubble drops
    in_limbo = c["noc_dropped_total"] - c["noc_regenerated_total"]
    assert c["noc_generated_total"] == \
        c["noc_ejected_total"] + net.total_backlog() + in_limbo
