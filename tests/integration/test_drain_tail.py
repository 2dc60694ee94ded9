"""Integration: DRAIN's tail-latency pathology (Fig. 12's claim), plus a
regression pin on the drain *phase* early-exit condition.

When DRAIN's period fires inside a run, the whole-network circulation
misroutes everything in flight — unlucky packets pick up large detours, so
DRAIN's p99 visibly exceeds a no-misrouting scheme's under the same load.
"""

from repro.config import SimConfig
from repro.schemes import get_scheme
from repro.sim.engine import Simulation
from repro.traffic.synthetic import SyntheticTraffic


def run(scheme_name, drain_period=600, **kw):
    cfg = SimConfig(rows=4, cols=4, warmup_cycles=100, measure_cycles=1500,
                    drain_cycles=2500, drain_period_cycles=drain_period,
                    fastpass_slot_cycles=64)
    sim = Simulation(cfg, get_scheme(scheme_name, **kw),
                     SyntheticTraffic("uniform", 0.08, seed=21))
    return sim.run()


class TestDrainTail:
    def test_drain_p99_exceeds_escapevc(self):
        drain = run("drain")
        escape = run("escapevc")
        assert drain.p99_latency > escape.p99_latency

    def test_drain_avg_also_hurt_but_less(self):
        drain = run("drain")
        escape = run("escapevc")
        # the tail is disproportionately affected: the p99 gap factor
        # exceeds the mean gap factor
        tail_factor = drain.p99_latency / escape.p99_latency
        mean_factor = drain.avg_latency / escape.avg_latency
        assert tail_factor > mean_factor

    def test_no_period_no_pathology(self):
        quiet = run("drain", drain_period=10 ** 9)
        escape = run("escapevc")
        assert quiet.p99_latency <= 1.6 * escape.p99_latency

    def test_fastpass_tail_below_drain(self):
        drain = run("drain")
        fp = run("fastpass", n_vcs=2)
        assert fp.p99_latency < drain.p99_latency


class OvercountingTraffic(SyntheticTraffic):
    """Claims one measured packet it never injected.

    The phantom can never be delivered, so ``ejected_measured`` stays one
    short of ``measured_generated`` forever — only the empty-network exit
    (``total_backlog() + limbo > 0``) can end the drain phase early."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._phantom = False

    def generate(self, net, now):
        super().generate(net, now)
        if not self._phantom and \
                self.measure_start <= now < self.measure_end:
            self.measured_generated += 1
            self._phantom = True


class TestDrainLoopExit:
    """Regression pin: the drain loop must stop once the network is empty
    even while undelivered measured packets remain on the books.  Without
    the ``total_backlog() + limbo > 0`` term the loop spins for the full
    ``drain_cycles`` budget on every run with an undeliverable packet."""

    def test_drain_exits_early_when_network_empties(self):
        cfg = SimConfig(rows=4, cols=4, warmup_cycles=50,
                        measure_cycles=200, drain_cycles=50_000,
                        fastpass_slot_cycles=64)
        traffic = OvercountingTraffic("uniform", 0.05, seed=4)
        traffic.stop = cfg.warmup_cycles + cfg.measure_cycles
        sim = Simulation(cfg, get_scheme("fastpass", n_vcs=2), traffic)
        res = sim.run()
        assert traffic._phantom
        assert res.extra["undelivered"] == 1
        assert not res.deadlocked
        assert sim.net.total_backlog() + sim.net.limbo == 0
        # well before the 50k-cycle drain deadline: the empty-network
        # exit fired, not the budget
        assert res.cycles < cfg.warmup_cycles + cfg.measure_cycles + 2000


class TestDrainRotation:
    """Regression pin: a rotation step lists every slot once.  Refilled
    slots used to be admitted while their routers were suspended and
    never pruned, so every step listed again the slots it had just
    vacated (the lists grew ~1.3x per step), and a packet listed twice
    moved — and counted its hops — twice."""

    def test_each_slot_listed_once_through_a_drain(self):
        cfg = SimConfig(rows=8, cols=8, drain_period_cycles=300,
                        paranoia=1)
        drain = get_scheme("drain")
        sim = Simulation(cfg, drain,
                         SyntheticTraffic("uniform", 0.10, seed=1))
        for _ in range(400):
            sim.net.step()          # paranoia=1: audited every cycle
        assert drain.drains == 1
        assert all(len(r.occupied) == len({id(s) for s in r.occupied})
                   for r in sim.net.routers)
