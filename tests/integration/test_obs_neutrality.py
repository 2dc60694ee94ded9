"""Differential proof that observability is result-neutral.

The same seeded workload runs twice — once bare, once fully instrumented
(event bus with every standard metric wired, periodic gauge sampling,
and the packet tracer subscribed) — and the two
:class:`~repro.config.RunResult` objects must agree on every field.  The
matrix covers both step engines (active-set and naive sweep) and a
transient-fault run so the fault emit points are exercised too.

A second family of checks cross-validates the bus-derived counters
against the engine's own :class:`~repro.sim.stats.StatsCollector`: the
two are maintained by entirely independent code paths, so agreement
means the emit points fire exactly once per real event.
"""

import pytest

from repro.config import SimConfig
from repro.fault.plan import fault_storm
from repro.obs import Observability
from repro.schemes import get_scheme
from repro.sim.engine import Simulation
from repro.obs.events import PacketTracer
from repro.traffic.synthetic import SyntheticTraffic

from tests.integration.test_engine_equivalence import assert_results_equal


def _cfg(**overrides):
    base = dict(rows=4, cols=4, warmup_cycles=100, measure_cycles=300,
                drain_cycles=1200, fastpass_slot_cycles=64, seed=7)
    base.update(overrides)
    return SimConfig(**base)


def _simulation(scheme, cfg, rate=0.08, seed=13):
    kwargs = {"n_vcs": 2} if scheme == "fastpass" else {}
    return Simulation(cfg, get_scheme(scheme, **kwargs),
                      SyntheticTraffic("uniform", rate, seed=seed))


def _run(scheme, cfg, naive, instrument):
    sim = _simulation(scheme, cfg)
    sim.net.force_naive_step = naive
    obs = tracer = None
    if instrument:
        obs = Observability(sample_every=7).attach(sim.net)
        tracer = PacketTracer(sim.net)
    res = sim.run()
    return res, obs, tracer


class TestResultNeutrality:
    @pytest.mark.parametrize("naive", [False, True],
                             ids=["active-set", "naive"])
    @pytest.mark.parametrize("scheme", ["fastpass", "escapevc"])
    def test_instrumented_run_is_bit_identical(self, scheme, naive):
        cfg = _cfg()
        bare, _, _ = _run(scheme, cfg, naive, instrument=False)
        inst, obs, tracer = _run(scheme, cfg, naive, instrument=True)
        assert_results_equal(bare, inst, f"{scheme} naive={naive}")
        # guard: the instrumented leg really observed the run
        assert obs.bus.emitted > 0
        assert tracer.counts()["ejected"] == inst.ejected
        assert obs.sampler.series["noc_packets_in_flight"][0]

    @pytest.mark.parametrize("naive", [False, True],
                             ids=["active-set", "naive"])
    def test_neutral_under_transient_faults(self, naive):
        """Fault activation/recovery emits fire without perturbing the
        run — and the fault-event counter sees them."""
        cfg = _cfg(fault_plan=fault_storm(0.03, start=120, stop=300,
                                          mean_duration=40, seed=5))
        bare, _, _ = _run("fastpass", cfg, naive, instrument=False)
        inst, obs, _ = _run("fastpass", cfg, naive, instrument=True)
        assert_results_equal(bare, inst, f"faults naive={naive}")
        fam = obs.registry.get("noc_fault_events_total")
        assert fam.total() > 0
        kinds = {labels[0][1] for labels in
                 ((c.labels) for c in fam.children())}
        assert "recovered" in kinds


class TestMetricsMatchStats:
    """Bus-derived counters vs the engine's own StatsCollector."""

    @pytest.mark.parametrize("scheme", ["fastpass", "baseline"])
    def test_counters_agree_with_stats(self, scheme):
        sim = _simulation(scheme, _cfg())
        obs = Observability().attach(sim.net)
        sim.run()
        stats = sim.net.stats
        counters = obs.registry.to_json()["counters"]
        assert counters["noc_injected_total"] == stats.injected
        assert counters["noc_ejected_total"] == stats.ejected_total
        assert counters["noc_dropped_total"] == stats.dropped
        hist = obs.registry.get("noc_packet_latency_cycles")
        assert hist.count == stats.ejected_measured
        assert hist.sum == sum(stats.latencies)

    def test_upgrades_cover_fastpass_deliveries(self):
        sim = _simulation("fastpass", _cfg())
        obs = Observability().attach(sim.net)
        sim.run()
        ups = obs.registry.get("noc_upgrades_total").total()
        assert ups >= sim.net.stats.fastpass_delivered > 0
        assert obs.registry.to_json()["counters"][
            "noc_lane_slots_total"] > 0
