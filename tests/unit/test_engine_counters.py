"""Incremental occupancy counters and active-set bookkeeping.

``packets_in_flight``/``total_backlog`` are O(1) counter reads in the
active-set engine; these tests pit them against a full rescan of every
slot and queue while real traffic runs, and confirm the paranoia audit
catches counter drift and active-set gaps when they are fabricated.
"""

import pytest

from repro.network.packet import MessageClass, Packet
from repro.network.validate import InvariantViolation, check_invariants
from repro.schemes import get_scheme, scheme_names
from repro.sim.engine import Simulation
from repro.traffic.synthetic import SyntheticTraffic
from tests.conftest import make_network, park


def rescan_in_flight(net):
    """Ground-truth recount of everything ``packets_in_flight`` tracks."""
    buffered = sum(1 for r in net.routers for port in r.slots
                   for s in port if s.pkt is not None)
    buffered += sum(r.extra_occupancy() for r in net.routers)
    inj = sum(len(q) for ni in net.nis for q in ni.inj)
    return buffered + net.in_transit + inj


def rescan_backlog(net):
    return rescan_in_flight(net) + sum(len(ni.pending) for ni in net.nis)


class TestCountersMatchRescan:
    @pytest.mark.parametrize("name,pattern,rate", [
        ("fastpass", "uniform", 0.1),
        ("minbd", "transpose", 0.2),
        ("drain", "uniform", 0.1),
        ("baseline", "transpose", 0.15),
    ])
    def test_under_traffic(self, small_cfg, name, pattern, rate):
        sim = Simulation(small_cfg, get_scheme(name),
                         SyntheticTraffic(pattern, rate, seed=4))
        net = sim.net
        for _ in range(300):
            net.step()
            assert net.packets_in_flight() == rescan_in_flight(net)
            assert net.total_backlog() == rescan_backlog(net)

    def test_drains_to_zero_counters(self, small_cfg):
        sim = Simulation(small_cfg, get_scheme("fastpass", n_vcs=2),
                         SyntheticTraffic("uniform", 0.05, seed=4))
        res = sim.run()
        net = sim.net
        assert res.extra["undelivered"] == 0
        # unmeasured stragglers may outlive the drain window; flush them
        for _ in range(2000):
            if net.total_backlog() == 0:
                break
            net.step()
        assert net.packets_in_flight() == 0
        assert net.total_backlog() == 0
        assert net.buffered == 0 and net.inj_total == 0
        assert net.pending_total == 0 and net.in_transit == 0


class TestAuditCatchesDrift:
    def test_buffered_drift(self, small_cfg):
        net = make_network(small_cfg)
        net.buffered += 1
        with pytest.raises(InvariantViolation, match="buffered counter"):
            check_invariants(net)

    def test_inj_count_drift(self, small_cfg):
        net = make_network(small_cfg)
        net.nis[3].inj_count += 1
        with pytest.raises(InvariantViolation, match="inj_count drift"):
            check_invariants(net)

    def test_inj_total_drift(self, small_cfg):
        net = make_network(small_cfg)
        pkt = Packet(0, 5, MessageClass.REQUEST, 0)
        ni = net.nis[0]
        ni.inj[pkt.mclass].append(pkt)
        ni.inj_count += 1
        net.wake_inject(0)
        # per-NI count is right, network total was not bumped
        with pytest.raises(InvariantViolation, match="inj_total"):
            check_invariants(net)

    def test_pending_total_drift(self, small_cfg):
        net = make_network(small_cfg)
        net.pending_total += 2
        with pytest.raises(InvariantViolation, match="pending_total"):
            check_invariants(net)

    def test_limbo_drift(self, small_cfg):
        net = make_network(small_cfg)
        net.limbo += 1
        with pytest.raises(InvariantViolation, match="limbo"):
            check_invariants(net)


class TestAuditCatchesActiveSetGaps:
    def test_router_with_work_must_be_active(self, small_cfg):
        net = make_network(small_cfg)
        r = net.routers[6]
        park(net, r, r.slots[1][0], Packet(6, 2, MessageClass.REQUEST, 0))
        net._r_active.discard(6)
        with pytest.raises(InvariantViolation, match="router active set"):
            check_invariants(net)

    def test_ni_with_injection_work_must_be_active(self, small_cfg):
        net = make_network(small_cfg)
        ni = net.nis[2]
        pkt = Packet(2, 9, MessageClass.REQUEST, 0)
        ni.inj[pkt.mclass].append(pkt)
        ni.inj_count += 1
        net.inj_total += 1
        # deliberately no wake_inject
        with pytest.raises(InvariantViolation, match="inject active"):
            check_invariants(net)


class TestActiveSetLifecycle:
    def test_fresh_network_is_idle(self, small_cfg):
        net = make_network(small_cfg)
        for _ in range(10):
            net.step()
        assert not net._r_active
        assert not net._inj_active
        assert not net._con_active

    def test_single_packet_wakes_and_sleeps(self, small_cfg):
        from tests.conftest import inject_now
        net = make_network(small_cfg)
        inject_now(net, 0, 15, MessageClass.REQUEST)
        assert 0 in net._inj_active
        woke = False
        for _ in range(100):
            net.step()
            woke |= bool(net._r_active)
        assert woke
        assert net.packets_in_flight() == 0
        assert not net._r_active and not net._inj_active

    def test_active_routers_sorted(self, small_cfg):
        net = make_network(small_cfg)
        for rid in (9, 1, 6):
            r = net.routers[rid]
            park(net, r, r.slots[0][0],
                 Packet(rid, 0, MessageClass.REQUEST, 0))
        assert [r.id for r in net.active_routers()] == [1, 6, 9]


class TestHookCadence:
    """The network alone decides when a scheme hook runs: on every
    multiple of the declared period (cycle 0 included), under both
    engines; SWAP's and Pitstop's periods come from the config."""

    CONFIG_PERIODS = {"swap": 5, "pitstop": 3}

    @pytest.mark.parametrize("name", scheme_names())
    def test_hooks_run_on_declared_period(self, small_cfg, name):
        cfg = small_cfg.with_(swap_duty_cycles=5, pitstop_token_cycles=3)
        cycles = 40
        seen = {}
        for engine in ("active", "naive"):
            scheme = get_scheme(name)
            calls = seen[engine] = {"pre": [], "post": []}
            for hook in calls:
                def spy(net, now, _log=calls[hook],
                        _orig=getattr(scheme, f"{hook}_cycle")):
                    _log.append(now)
                    _orig(net, now)
                setattr(scheme, f"{hook}_cycle", spy)
            sim = Simulation(cfg.with_(engine=engine), scheme,
                             SyntheticTraffic("uniform", 0.2, seed=1))
            sim.net.run(cycles)
        assert seen["active"] == seen["naive"]
        if name in self.CONFIG_PERIODS:
            assert scheme.post_cycle_every == self.CONFIG_PERIODS[name]
        for hook, every in (("pre", scheme.pre_cycle_every),
                            ("post", scheme.post_cycle_every)):
            expected = list(range(0, cycles, every)) if every else []
            assert seen["naive"][hook] == expected, hook
