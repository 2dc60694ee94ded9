"""Unit tests for the coherence-protocol traffic model."""

import pytest

from repro.config import SimConfig
from repro.network.packet import MessageClass
from repro.sim.engine import Simulation
from repro.schemes import get_scheme
from repro.traffic.coherence import CoherenceTraffic
from repro.traffic.workloads import WORKLOADS, workload_traffic


def run_coherence(txns=20, max_cycles=30000, scheme="escapevc", **params):
    cfg = SimConfig(rows=4, cols=4, fastpass_slot_cycles=64)
    traffic = CoherenceTraffic(txns_per_core=txns, seed=3, **params)
    sim = Simulation(cfg, get_scheme(scheme), traffic)
    res = sim.run_to_completion(max_cycles)
    return sim, res


class TestTransactions:
    def test_all_transactions_complete(self):
        sim, res = run_coherence(txns=15)
        assert sim.traffic.done()
        assert sim.traffic.completed == sim.traffic.total_txns

    def test_outstanding_returns_to_zero(self):
        sim, _res = run_coherence(txns=10)
        assert all(n.outstanding == 0 for n in sim.traffic.nodes)

    def test_mshr_limit_respected(self):
        sim, _ = run_coherence(txns=30, mshrs=4)
        # issued minus completed can never exceed MSHRs at any point;
        # check the invariant's residue at the end
        for node in sim.traffic.nodes:
            assert node.issued == sim.traffic.txns_per_core

    def test_request_and_response_classes_used(self):
        sim, _ = run_coherence(txns=10)
        counts = sim.net.stats.per_class_ejected
        assert counts[MessageClass.REQUEST] > 0
        assert counts[MessageClass.RESPONSE] > 0

    def test_writebacks_generated(self):
        sim, _ = run_coherence(txns=20, wb_frac=0.5)
        assert sim.net.stats.per_class_ejected[MessageClass.WRITEBACK] > 0

    def test_forwards_generated(self):
        sim, _ = run_coherence(txns=30, fwd_frac=0.5)
        assert sim.net.stats.per_class_ejected[MessageClass.FORWARD] > 0

    def test_no_forwards_when_disabled(self):
        sim, _ = run_coherence(txns=10, fwd_frac=0.0)
        assert sim.net.stats.per_class_ejected[MessageClass.FORWARD] == 0


class TestAddressDistribution:
    def test_home_never_self(self):
        cfg = SimConfig(rows=4, cols=4)
        traffic = CoherenceTraffic(txns_per_core=1, seed=1)
        sim = Simulation(cfg, get_scheme("escapevc"), traffic)
        for core in range(16):
            for _ in range(50):
                assert traffic.pick_home(core) != core

    def test_hotspot_concentrates(self):
        cfg = SimConfig(rows=4, cols=4)
        traffic = CoherenceTraffic(txns_per_core=1, seed=1, hotspot=0.9,
                                   n_hotspots=2)
        Simulation(cfg, get_scheme("escapevc"), traffic)
        homes = [traffic.pick_home(5) for _ in range(300)]
        hot = sum(1 for h in homes if h in traffic._hotspots)
        assert hot > 200

    def test_locality_prefers_neighbourhood(self):
        cfg = SimConfig(rows=4, cols=4)
        traffic = CoherenceTraffic(txns_per_core=1, seed=1, locality=0.9)
        sim = Simulation(cfg, get_scheme("escapevc"), traffic)
        mesh = sim.net.mesh
        homes = [traffic.pick_home(5) for _ in range(300)]
        near = sum(1 for h in homes if mesh.hops(5, h) <= 2)
        assert near > 200

    @pytest.mark.parametrize("rows,cols", [(4, 4), (8, 8), (4, 6),
                                           (16, 16)])
    def test_neighbourhood_is_every_node_within_two_hops(self, rows, cols):
        """The enumerated neighbourhood equals the brute-force definition,
        list order included (``pick_home`` indexes it with its rng)."""
        from tests.conftest import make_network
        net = make_network(SimConfig(rows=rows, cols=cols))
        traffic = CoherenceTraffic(txns_per_core=1, seed=1)
        traffic.bind(net)
        mesh, n = net.mesh, net.mesh.n_routers
        assert traffic._neighbourhood == [
            [d for d in range(n) if d != rid and mesh.hops(rid, d) <= 2]
            for rid in range(n)]

    def test_unknown_param_rejected(self):
        with pytest.raises(ValueError):
            CoherenceTraffic(bogus=1)


class TestWorkloadPresets:
    def test_all_presets_build(self):
        for name in WORKLOADS:
            tr = workload_traffic(name, txns_per_core=5)
            assert tr.txns_per_core == 5

    def test_unknown_workload_rejected(self):
        with pytest.raises(ValueError):
            workload_traffic("SPECjbb")

    def test_intensity_ordering_radix_vs_volrend(self):
        """Radix (heavy) must be configured with clearly higher issue
        pressure than Volrend (light)."""
        assert WORKLOADS["Radix"]["think"] < WORKLOADS["Volrend"]["think"]

    @pytest.mark.parametrize("name", ["Radix", "Volrend"])
    def test_preset_completes(self, name):
        cfg = SimConfig(rows=4, cols=4)
        traffic = workload_traffic(name, txns_per_core=10, seed=1)
        sim = Simulation(cfg, get_scheme("escapevc"), traffic)
        sim.run_to_completion(60000)
        assert traffic.done()
