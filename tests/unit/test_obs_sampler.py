"""Unit tests for the gauge time-series sampler and its cycle-tail hook."""

from repro.config import SimConfig
from repro.obs import MetricsRegistry, Observability, TimeSeriesSampler
from repro.schemes import get_scheme
from repro.sim.engine import Simulation
from repro.traffic.synthetic import SyntheticTraffic

from tests.conftest import make_network


class TestSampler:
    def _reg_with_gauge(self, values):
        reg = MetricsRegistry()
        it = iter(values)
        g = reg.gauge("g", "", lambda: next(it))
        return reg, g

    def test_sample_appends_cycle_value_pairs(self):
        reg, g = self._reg_with_gauge([10, 20])
        s = TimeSeriesSampler(reg)
        s.track(g)
        s.sample(100)
        s.sample(200)
        assert s.series["g"] == ([100, 200], [10, 20])

    def test_track_all_gauges(self):
        reg = MetricsRegistry()
        reg.counter("not_a_gauge")
        reg.gauge("a", "", lambda: 1)
        reg.gauge("b", "", lambda: 2)
        s = TimeSeriesSampler(reg)
        s.track_all_gauges()
        assert sorted(s.series) == ["a", "b"]

    def test_max_samples_cap_counts_drops(self):
        reg, g = self._reg_with_gauge(range(100))
        s = TimeSeriesSampler(reg, max_samples=3)
        s.track(g)
        for i in range(5):
            s.sample(i)
        assert len(s.series["g"][0]) == 3
        assert s.dropped_samples == 2

    def test_to_json_shape(self):
        reg, g = self._reg_with_gauge([7])
        s = TimeSeriesSampler(reg)
        s.track(g)
        s.sample(50)
        out = s.to_json()
        assert out["series"]["g"] == {"cycles": [50], "values": [7]}
        assert out["dropped_samples"] == 0


class TestCycleTailHook:
    def test_network_samples_on_cadence(self):
        net = make_network(SimConfig(rows=4, cols=4))
        obs = Observability(sample_every=10).attach(net)
        for _ in range(35):
            net.step()
        cycles = obs.sampler.series["noc_packets_in_flight"][0]
        assert cycles == [0, 10, 20, 30]

    def test_no_sampling_when_cadence_zero(self):
        net = make_network(SimConfig(rows=4, cols=4))
        obs = Observability().attach(net)
        for _ in range(20):
            net.step()
        assert all(c == [] for c, _v in obs.sampler.series.values())

    def test_series_tracks_real_occupancy(self):
        cfg = SimConfig(rows=4, cols=4, warmup_cycles=100,
                        measure_cycles=300, fastpass_slot_cycles=64)
        sim = Simulation(cfg, get_scheme("fastpass", n_vcs=2),
                         SyntheticTraffic("uniform", 0.10, seed=2))
        obs = Observability(sample_every=25).attach(sim.net)
        sim.run()
        cycles, values = obs.sampler.series["noc_total_backlog"]
        assert len(cycles) > 10
        assert max(values) > 0          # traffic actually showed up
        assert values[-1] == sim.net.total_backlog()
