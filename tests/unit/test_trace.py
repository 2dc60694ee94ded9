"""Unit tests for the packet tracer."""

from repro.config import SimConfig
from repro.schemes import get_scheme
from repro.sim.engine import Simulation
from repro.obs.events import PacketTracer
from repro.traffic.synthetic import SyntheticTraffic


def traced_sim(scheme="fastpass", rate=0.1, **kw):
    cfg = SimConfig(rows=4, cols=4, fastpass_slot_cycles=64)
    sim = Simulation(cfg, get_scheme(scheme, **kw),
                     SyntheticTraffic("uniform", rate, seed=5))
    sim.traffic.measure_window(0, 1 << 60)
    tracer = PacketTracer(sim.net)
    return sim, tracer


class TestTracer:
    def test_generation_and_ejection_recorded(self):
        sim, tracer = traced_sim(n_vcs=2)
        for _ in range(300):
            sim.net.step()
        counts = tracer.counts()
        assert counts["generated"] > 0
        assert counts["ejected"] > 0
        assert counts["ejected"] <= counts["generated"]

    def test_upgrades_recorded_for_fastpass(self):
        sim, tracer = traced_sim(n_vcs=2, rate=0.15)
        for _ in range(400):
            sim.net.step()
        assert tracer.counts().get("upgraded", 0) > 0

    def test_timeline_ordered(self):
        sim, tracer = traced_sim(n_vcs=2)
        for _ in range(300):
            sim.net.step()
        done = [pid for pid, evs in tracer.events.items()
                if any(e.kind == "ejected" for e in evs)]
        assert done
        for pid in done[:20]:
            evs = tracer.timeline(pid)
            assert evs[0].kind == "generated"
            cycles = [e.cycle for e in evs]
            assert cycles == sorted(cycles)

    def test_format_timeline(self):
        sim, tracer = traced_sim(n_vcs=2)
        for _ in range(100):
            sim.net.step()
        pid = next(iter(tracer.events))
        text = tracer.format_timeline(pid)
        assert f"packet {pid}:" in text
        assert "generated" in text

    def test_reuses_attached_observability(self):
        from repro.obs import attach_observability
        cfg = SimConfig(rows=4, cols=4, fastpass_slot_cycles=64)
        sim = Simulation(cfg, get_scheme("fastpass", n_vcs=2),
                         SyntheticTraffic("uniform", 0.05, seed=5))
        obs = attach_observability(sim.net)
        tracer = PacketTracer(sim.net)
        assert tracer.obs is obs
        tracer.detach()
        assert obs.bus.subscriber_count("generated") >= 1  # metrics stay

    def test_tracing_does_not_change_results(self):
        cfg = SimConfig(rows=4, cols=4, warmup_cycles=100,
                        measure_cycles=300, drain_cycles=800,
                        fastpass_slot_cycles=64)

        def run(with_tracer):
            sim = Simulation(cfg, get_scheme("fastpass", n_vcs=2),
                             SyntheticTraffic("uniform", 0.08, seed=3))
            if with_tracer:
                PacketTracer(sim.net)
            return sim.run()

        a, b = run(False), run(True)
        assert a.avg_latency == b.avg_latency
        assert a.ejected == b.ejected


class TestTracerActiveEngine:
    """Regression: the bus-based tracer must observe upgrades and bounces
    through the active-set engine with the router's inlined transfer and
    ejection paths — the code the old monkey-patching tracer could not
    hook (inlined calls never went through the patched methods)."""

    def test_upgrades_and_bounces_recorded_inline(self):
        from repro.network.packet import MessageClass, Packet

        sim, tracer = traced_sim(n_vcs=2, rate=0.2)
        net = sim.net
        assert not net.force_naive_step           # active-set engine
        assert all(r._inline_xfer for r in net.routers)
        # Wedge node 3's ejection queues so FastPass deliveries there
        # must bounce back to their prime.
        ni = net.nis[3]
        for cls in MessageClass:
            q = ni.ej[cls]
            while q.can_accept(Packet(0, 3, cls, 0)):
                q.push(Packet(0, 3, cls, 0))
        ni.consumer = type("Stall", (), {
            "consume": lambda *a, **k: None,
            "on_local": lambda *a, **k: None})()
        for _ in range(600):
            net.step()
        counts = tracer.counts()
        assert counts.get("upgraded", 0) > 0
        assert counts.get("bounced", 0) > 0
        assert counts["ejected"] > 0              # inlined _try_eject seen

    def test_active_and_naive_trace_identically(self):
        def run(naive):
            sim, tracer = traced_sim(n_vcs=2, rate=0.12)
            sim.net.force_naive_step = naive
            for _ in range(400):
                sim.net.step()
            return tracer.counts()

        assert run(False) == run(True)
