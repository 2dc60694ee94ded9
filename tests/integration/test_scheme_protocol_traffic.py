"""Integration: every scheme against the closed-loop coherence traffic at
moderate (non-adversarial) pressure — the everyday regime of Fig. 10."""

import functools

import pytest

from repro.config import SimConfig
from repro.schemes import get_scheme
from repro.sim.engine import Simulation
from repro.traffic.coherence import CoherenceTraffic

SCHEMES = [("escapevc", {}), ("spin", {}), ("swap", {}), ("drain", {}),
           ("pitstop", {}), ("tfc", {}), ("fastpass", {"n_vcs": 2}),
           ("fastpass", {"n_vcs": 4})]


def run(name, kw):
    """One seeded run per scheme, shared by every test that reads it."""
    return _run(name, tuple(sorted(kw.items())))


@functools.cache
def _run(name, kw):
    cfg = SimConfig(rows=4, cols=4, fastpass_slot_cycles=120,
                    drain_period_cycles=2000)
    tr = CoherenceTraffic(txns_per_core=40, seed=4, think=60, burst=4)
    sim = Simulation(cfg, get_scheme(name, **dict(kw)), tr)
    res = sim.run_to_completion(max_cycles=200000)
    return sim, res


class TestModeratePressure:
    @pytest.mark.parametrize("name,kw", SCHEMES)
    def test_completes_without_deadlock(self, name, kw):
        sim, res = run(name, kw)
        assert sim.traffic.done(), (name, kw)
        assert not res.deadlocked

    @pytest.mark.parametrize("name,kw", SCHEMES)
    def test_transaction_latency_sane(self, name, kw):
        sim, res = run(name, kw)
        assert 5 < res.avg_latency < 500, (name, res.avg_latency)

    def test_execution_times_within_band(self):
        cycles = {}
        for name, kw in SCHEMES:
            _sim, res = run(name, kw)
            cycles[(name, tuple(kw.items()))] = res.cycles
        base = cycles[("escapevc", ())]
        for key, c in cycles.items():
            assert 0.7 * base < c < 1.6 * base, (key, c, base)


class TestProtocolIntegrity:
    @pytest.mark.parametrize("name,kw", [("fastpass", {"n_vcs": 2}),
                                         ("pitstop", {})])
    def test_zero_vn_runs_conserve_transactions(self, name, kw):
        sim, _res = run(name, kw)
        tr = sim.traffic
        assert tr.completed == tr.total_txns
        assert all(n.outstanding == 0 for n in tr.nodes)

    def test_fastpass_drop_regen_balanced(self):
        sim, res = run("fastpass", {"n_vcs": 2})
        dropped = sum(ni.dropped for ni in sim.net.nis)
        regen = sum(ni.regenerated for ni in sim.net.nis)
        assert dropped == regen
