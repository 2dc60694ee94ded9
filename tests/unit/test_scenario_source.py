"""Unit tests for scenario-driven traffic (fill semantics of the one
open-loop source, :class:`~repro.traffic.synthetic.SyntheticTraffic`)."""

from types import SimpleNamespace

import pytest

from repro.network.topology import Mesh
from repro.sim.workload import Scenario
from repro.traffic.spec import BurstSpec, PhaseSpec, ScenarioSpec


def stub_net(rows=4, cols=4):
    """The minimal network surface ``bind``/``_fill`` touch."""
    return SimpleNamespace(mesh=Mesh(rows, cols))


def bound(spec, seed=1, rows=4, cols=4):
    t = Scenario(spec).traffic(seed)
    t.bind(stub_net(rows, cols))
    return t


def drain_fills(t, until):
    """Run fills over [0, until) and return the raw event stream."""
    while t._chunk_end < until:
        t._fill(t._chunk_end)
    return dict(t._by_cycle)


def generated_stream(t, cycles, rows=4, cols=4):
    """The ``(cycle, src, dst, mclass)`` stream ``t.generate`` hands to
    the NIs over cycles ``[0, cycles)``, read off the ``pending`` queues
    of a real network that is never stepped (packet ids keep the
    generation order across NIs)."""
    from repro.config import SimConfig
    from repro.network.network import Network
    from repro.network.routing import ROUTERS

    net = Network(SimConfig(rows=rows, cols=cols), Mesh(rows, cols),
                  ROUTERS["xy"])
    t.bind(net)
    for now in range(cycles):
        t.generate(net, now)
    pkts = sorted((p for ni in net.nis for p in ni.pending),
                  key=lambda p: p.pid)
    return [(p.gen_cycle, p.src, p.dst, p.mclass) for p in pkts]


def fill_stream(t, cycles, rows=4, cols=4):
    """The same stream read straight off the fills, building no packets:
    equal to :func:`generated_stream` while nothing stops generation."""
    t.bind(stub_net(rows, cols))
    by_cycle = drain_fills(t, cycles)
    return [(cycle, *ev) for cycle in sorted(by_cycle) if cycle < cycles
            for ev in by_cycle[cycle]]


class TestFillClamping:
    def test_fill_clamps_at_phase_boundary(self):
        spec = ScenarioSpec("clamp", (PhaseSpec(duration=300, rate=0.05),
                                      PhaseSpec(duration=212, rate=0.05)))
        t = bound(spec)
        t._fill(0)
        assert t._chunk_end == 256          # CHUNK within the phase
        t._fill(256)
        assert t._chunk_end == 300          # clamped at the boundary
        t._fill(300)
        assert t._chunk_end == 512          # next phase, clamped at 512
        t._fill(512)
        assert t._chunk_end == 768          # wrapped, full chunk again

    def test_aligned_spec_fills_are_full_chunks(self):
        spec = ScenarioSpec("al", (PhaseSpec(duration=256, rate=0.05),
                                   PhaseSpec(duration=512, rate=0.05)))
        t = bound(spec)
        for start in range(0, 2048, 256):
            t._fill(start)
            assert t._chunk_end == start + 256


class TestPatternsAndHotspots:
    def test_phase_pattern_respected(self):
        spec = ScenarioSpec("pat", (
            PhaseSpec(duration=256, pattern="transpose", rate=0.3),))
        t = bound(spec)
        events = drain_fills(t, 256)
        n, cols = 16, 4
        assert events
        for evs in events.values():
            for src, dst, _cls in evs:
                x, y = src % cols, src // cols
                assert dst == x * cols + y

    def test_hotspot_redirection(self):
        spec = ScenarioSpec("hot", (
            PhaseSpec(duration=1024, rate=0.3, hotspot_frac=1.0,
                      hotspots=((5, 1.0),)),))
        t = bound(spec)
        events = drain_fills(t, 1024)
        dsts = [dst for evs in events.values() for _s, dst, _c in evs]
        assert dsts and set(dsts) == {5}

    def test_hotspot_fraction_partial(self):
        spec = ScenarioSpec("hot2", (
            PhaseSpec(duration=4096, rate=0.3, hotspot_frac=0.5,
                      hotspots=((5, 1.0),)),))
        t = bound(spec)
        events = drain_fills(t, 4096)
        dsts = [dst for evs in events.values() for _s, dst, _c in evs]
        frac = sum(1 for d in dsts if d == 5) / len(dsts)
        # ~0.5 plus the uniform background's 1/15 share landing on 5
        assert 0.4 < frac < 0.7

    def test_no_self_traffic(self):
        spec = ScenarioSpec("self", (
            PhaseSpec(duration=1024, rate=0.3, hotspot_frac=1.0,
                      hotspots=((0, 1.0),)),))
        t = bound(spec)
        events = drain_fills(t, 1024)
        for evs in events.values():
            for src, dst, _cls in evs:
                assert src != dst

    def test_hotspot_out_of_range_rejected_at_bind(self):
        spec = ScenarioSpec("big", (
            PhaseSpec(duration=256, rate=0.1, hotspot_frac=0.5,
                      hotspots=((40, 1.0),)),))
        t = Scenario(spec).traffic(1)
        with pytest.raises(ValueError, match="out of range"):
            t.bind(stub_net(4, 4))
        # but fine on a mesh large enough
        Scenario(spec).traffic(1).bind(stub_net(8, 8))


class TestBurstModulation:
    def test_burst_produces_fewer_events_than_steady(self):
        steady = ScenarioSpec("s", (PhaseSpec(duration=4096, rate=0.2),))
        bursty = ScenarioSpec("b", (
            PhaseSpec(duration=4096, rate=0.2,
                      burst=BurstSpec(on_cycles=32, off_cycles=96,
                                      off_scale=0.0)),))
        n_steady = sum(len(v) for v in
                       drain_fills(bound(steady, seed=9), 4096).values())
        n_burst = sum(len(v) for v in
                      drain_fills(bound(bursty, seed=9), 4096).values())
        assert n_burst < 0.7 * n_steady

    def test_burst_chain_continues_across_fills(self):
        """State must persist between the 256-cycle fills of one long
        phase occurrence — a chain reset every fill would inflate the
        on-time far above the duty cycle."""
        spec = ScenarioSpec("dwell", (
            PhaseSpec(duration=65536, rate=1.0,
                      burst=BurstSpec(on_cycles=16, off_cycles=1024,
                                      off_scale=0.0)),))
        t = bound(spec, seed=3)
        events = drain_fills(t, 65536)
        busy = sum(1 for evs in events.values() if evs)
        duty = BurstSpec(16, 1024).duty
        # a per-fill reset would put every fill ~16/256 on => busy share
        # >= ~6%; the true duty is ~1.5%
        assert busy / 65536 < 2.5 * duty


class TestDeterminism:
    def test_same_seed_same_stream(self):
        spec = ScenarioSpec("det", (
            PhaseSpec(duration=512, rate=0.1,
                      burst=BurstSpec(16, 48, 0.2)),
            PhaseSpec(duration=256, pattern="shuffle", rate=0.05),
            PhaseSpec(duration=256, rate=0.08, hotspot_frac=0.4,
                      hotspots=((3, 1.0), (12, 2.0))),))
        a = drain_fills(bound(spec, seed=42), 4096)
        b = drain_fills(bound(spec, seed=42), 4096)
        assert a == b

    def test_different_seed_different_stream(self):
        spec = ScenarioSpec("det2", (PhaseSpec(duration=512, rate=0.1),))
        a = drain_fills(bound(spec, seed=1), 2048)
        b = drain_fills(bound(spec, seed=2), 2048)
        assert a != b

    def test_pattern_and_rate_surface(self):
        spec = ScenarioSpec("meta", (PhaseSpec(duration=256, rate=0.1),))
        t = Scenario(spec).traffic(1)
        assert t.pattern == "scenario:meta"
        assert t.rate == pytest.approx(spec.mean_rate())
