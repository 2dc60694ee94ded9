"""Unit tests for the scheme framework and per-scheme behaviours."""

import pytest

from repro.config import SimConfig
from repro.network.packet import MessageClass, Packet
from repro.obs.events import EventLog
from repro.schemes import SCHEMES, get_scheme, scheme_names
from repro.schemes.base import Scheme
from repro.schemes.escapevc import EscapeVCRouter
from repro.schemes.pitstop import BLOCK_THRESHOLD
from repro.sim.engine import Simulation, build_network
from repro.traffic.synthetic import SyntheticTraffic
from tests.conftest import drain_packet, inject_now, make_network, park


class TestRegistry:
    def test_all_paper_schemes_registered(self):
        expected = {"escapevc", "spin", "swap", "drain", "pitstop",
                    "minbd", "tfc", "fastpass", "baseline"}
        assert expected <= set(scheme_names())

    def test_get_scheme_unknown(self):
        with pytest.raises(ValueError):
            get_scheme("nope")

    def test_every_scheme_has_table1_except_baseline(self):
        for name, cls in SCHEMES.items():
            if name == "baseline":
                continue
            assert cls.table1 is not None, name

    def test_fastpass_is_the_only_all_yes_row(self):
        for name, cls in SCHEMES.items():
            if cls.table1 is None:
                continue
            all_yes = all(v == "X" for v in cls.table1.cells())
            assert all_yes == (name == "fastpass"), name

    def test_vn_configuration_per_table2(self):
        assert SCHEMES["fastpass"].n_vns == 1
        assert SCHEMES["pitstop"].n_vns == 1
        for name in ("escapevc", "spin", "swap", "drain", "tfc"):
            assert SCHEMES[name].n_vns == 6

    def test_configure_applies_vns(self):
        cfg = get_scheme("fastpass", n_vcs=4).configure(SimConfig())
        assert cfg.n_vns == 1 and cfg.n_vcs == 4

    def test_labels_mention_configuration(self):
        assert "VN=0" in get_scheme("fastpass").label
        assert "VN=6" in get_scheme("escapevc").label


def _quick_run(name, rate=0.05, pattern="uniform", cfg=None, **kwargs):
    cfg = cfg or SimConfig(rows=4, cols=4, warmup_cycles=100,
                           measure_cycles=400, drain_cycles=1500,
                           fastpass_slot_cycles=64)
    sim = Simulation(cfg, get_scheme(name, **kwargs),
                     SyntheticTraffic(pattern, rate, seed=2))
    return sim, sim.run()


class TestAllSchemesDeliver:
    @pytest.mark.parametrize("name", ["escapevc", "spin", "swap", "drain",
                                      "pitstop", "minbd", "tfc", "fastpass",
                                      "baseline"])
    def test_low_load_delivery(self, name):
        sim, res = _quick_run(name)
        assert res.ejected > 0
        assert not res.deadlocked
        assert res.extra["undelivered"] == 0

    @pytest.mark.parametrize("name", ["escapevc", "swap", "fastpass"])
    def test_zero_load_latency_sane(self, name):
        _sim, res = _quick_run(name, rate=0.01)
        assert 4 < res.avg_latency < 40


class TestEscapeVC:
    def test_escape_vc_is_index_zero_of_vn(self, small_cfg):
        net = make_network(small_cfg, scheme=get_scheme("escapevc"))
        r = net.routers[5]
        pkt = Packet(5, 0, MessageClass.REQUEST, 0)
        slot = r.slots[2][0]   # escape VC of VN 0 (east input)
        slot.pkt = pkt
        mv = r.moves(pkt, slot)
        # in-escape: west-first only, escape VC only
        assert all(vcs == (0,) for _o, vcs in mv)

    def test_adaptive_vc_offers_escape_fallback(self, small_cfg):
        net = make_network(small_cfg, scheme=get_scheme("escapevc"))
        r = net.routers[5]
        pkt = Packet(5, 15, MessageClass.REQUEST, 0)
        slot = r.slots[2][1]   # non-escape VC
        slot.pkt = pkt
        mv = r.moves(pkt, slot)
        vcs_used = {vcs for _o, vcs in mv}
        assert (0,) in vcs_used          # escape fallback present
        assert any(vcs != (0,) for _o, vcs in mv)

    def test_injection_prefers_adaptive_vcs(self, small_cfg):
        net = make_network(small_cfg, scheme=get_scheme("escapevc"))
        r = net.routers[0]
        assert isinstance(r, EscapeVCRouter)
        vcs = r.vn_vcs(0)
        assert vcs[-1] == 0              # escape VC last


class TestSPIN:
    def test_spin_rotates_manufactured_cycle(self, small_cfg):
        cfg = small_cfg.with_(n_vns=1, n_vcs=1,
                              spin_detection_threshold=16)
        scheme = get_scheme("spin", n_vns=1, n_vcs=1)
        net = make_network(cfg, scheme=scheme)
        placements = [(0, 1, 5), (1, 4, 4), (5, 3, 0), (4, 2, 1)]
        pkts = []
        for rid, port, dst in placements:
            r = net.routers[rid]
            pkt = Packet(rid, dst, MessageClass.REQUEST, 0)
            park(net, r, r.slots[port][0], pkt)
            pkts.append(pkt)
        hops_before = [p.hops for p in pkts]
        for _ in range(200):
            net.step()
        assert scheme.spins >= 1
        assert all(p.eject_cycle >= 0 or p.hops > h
                   for p, h in zip(pkts, hops_before))


class TestSWAP:
    def test_swap_forces_blocked_packet(self, small_cfg):
        # paranoia off: the hand-built blockade below is intentionally
        # outside the occupied list and would trip the invariant audit
        cfg = small_cfg.with_(swap_duty_cycles=50, paranoia=0)
        scheme = get_scheme("swap")
        net = make_network(cfg, scheme=scheme)
        # Park a packet whose every downstream VC is held by stalled
        # packets; SWAP must exchange it forward.
        r0, r1 = net.routers[0], net.routers[1]
        pkt = Packet(0, 3, MessageClass.REQUEST, 0)
        slot = r0.slots[1][0]
        park(net, r0, slot, pkt)
        blocker = Packet(1, 2, MessageClass.REQUEST, 0)
        for vc in r1.vn_vcs(0):
            s = r1.slots[4][vc]
            # ready (so SWAP may exchange with them) but kept out of the
            # occupied list so they never move on their own
            s.pkt, s.ready_at = blocker, 0
        for _ in range(120):
            net.step()
        assert scheme.swaps >= 1
        assert slot.pkt is not pkt    # the blocked packet was pushed out

    def test_forced_hops_take_the_router_hop_latency(self, small_cfg):
        """A forced move and an exchange charge what a regular hop does:
        router plus link latency."""
        cfg = small_cfg.with_(router_latency=2)
        scheme = get_scheme("swap")
        net = make_network(cfg, scheme=scheme)
        r5, r6 = net.routers[5], net.routers[6]
        hop = cfg.router_latency + cfg.link_latency
        # A regular hop 5 -> 6 (East), switched by Router.step.
        a = Packet(4, 7, MessageClass.REQUEST, 0)
        park(net, r5, r5.slots[4][0], a)
        net.step()
        (landed,) = [s for s in r6.slots[4] if s.pkt is a]
        assert landed.ready_at == 0 + hop
        # SWAP's forced move 5 -> 6 into a free VC.
        now = net.cycle
        b = Packet(4, 7, MessageClass.REQUEST, 0)
        slot = r5.slots[1][0]
        park(net, r5, slot, b)
        assert scheme._force_forward(net, r5, slot, now)
        (moved,) = [s for s in r6.slots[4] if s.pkt is b]
        assert moved.ready_at == now + hop
        # An exchange: both packets hop, both pay the same latency.
        for s in r6.slots[4]:
            if s.pkt is None:
                park(net, r6, s, Packet(6, 15, MessageClass.REQUEST, 0))
        c = Packet(4, 7, MessageClass.REQUEST, 0)
        slot = r5.slots[3][0]
        park(net, r5, slot, c)
        landed.ready_at = moved.ready_at = now
        assert scheme._force_forward(net, r5, slot, now)
        (swapped,) = [s for s in r6.slots[4] if s.pkt is c]
        assert swapped.ready_at == now + hop
        assert slot.pkt is not c and slot.ready_at == now + hop


class TestDRAIN:
    def test_drain_triggers_periodically(self, small_cfg):
        cfg = small_cfg.with_(drain_period_cycles=100)
        scheme = get_scheme("drain")
        sim = Simulation(cfg, scheme, SyntheticTraffic("uniform", 0.05,
                                                       seed=1))
        sim.net.run(350)
        assert scheme.drains == 3

    def test_drain_rotation_preserves_packets(self, small_cfg):
        cfg = small_cfg.with_(drain_period_cycles=50, warmup_cycles=0)
        scheme = get_scheme("drain")
        sim = Simulation(cfg, scheme, SyntheticTraffic("uniform", 0.1,
                                                       seed=1))
        sim.traffic.measure_window(0, 200)
        net = sim.net
        for _ in range(200):
            net.step()
        in_flight = net.total_backlog()
        delivered = net.stats.ejected_total
        generated = sim.traffic.measured_generated
        assert delivered + in_flight == generated

    def test_drain_misroutes(self, small_cfg):
        cfg = small_cfg.with_(drain_period_cycles=60)
        scheme = get_scheme("drain")
        sim = Simulation(cfg, scheme, SyntheticTraffic("uniform", 0.15,
                                                       seed=1))
        sim.traffic.measure_window(0, 1 << 60)
        sim.net.run(300)
        assert scheme.drains >= 1


class TestPitstop:
    def test_bypass_rescues_blocked_packet(self, small_cfg):
        cfg = small_cfg.with_(pitstop_token_cycles=2, paranoia=0)
        scheme = get_scheme("pitstop")
        net = make_network(cfg, scheme=scheme)
        r0, r1 = net.routers[0], net.routers[1]
        pkt = Packet(0, 3, MessageClass.REQUEST, 0)
        slot = r0.slots[1][0]
        park(net, r0, slot, pkt)
        blocker = Packet(1, 2, MessageClass.REQUEST, 0)
        for vc in r1.vn_vcs(0):
            s = r1.slots[4][vc]
            s.pkt, s.ready_at = blocker, 1 << 60
        for _ in range(300):
            net.step()
        assert pkt.eject_cycle >= 0
        assert scheme.bypasses >= 1

    def test_single_bypass_at_a_time(self, small_cfg):
        scheme = get_scheme("pitstop")
        net = make_network(small_cfg.with_(paranoia=0), scheme=scheme)
        scheme._busy_until = 1 << 40
        pkt = Packet(0, 3, MessageClass.REQUEST, 0)
        r0 = net.routers[0]
        slot = r0.slots[1][0]
        park(net, r0, slot, pkt)
        blocker = Packet(1, 2, MessageClass.REQUEST, 0)
        r1 = net.routers[1]
        for vc in r1.vn_vcs(0):
            s = r1.slots[4][vc]
            s.pkt, s.ready_at = blocker, 1 << 60
        for _ in range(200):
            net.step()
        assert scheme.bypasses == 0       # the path is occupied

    def test_bypass_injects_an_old_injection_queue_head(self, small_cfg):
        """No router head is blocked, so the token holder's bypass takes
        the head of its NI's injection queue: that packet enters the
        network there and then, and counts and emits as injected."""
        scheme = get_scheme("pitstop")
        net = make_network(small_cfg, scheme=scheme)
        log = EventLog(net, ["injected"])
        ni = net.nis[5]
        pkt = Packet(5, 10, MessageClass.REQUEST, 0)
        ni.inj[pkt.mclass].append(pkt)
        ni.inj_count += 1
        net.inj_total += 1
        scheme._token = 4                 # post_cycle passes it to router 5
        now = BLOCK_THRESHOLD
        assert not net.routers[5].blocked_heads(now, BLOCK_THRESHOLD)
        scheme.post_cycle(net, now)
        assert scheme.bypasses == 1 and ni.inj_count == 0
        assert net.stats.injected == 1
        assert [(c, pid) for c, pid, _k, _f in log.records] == \
            [(now, pkt.pid)]
        assert pkt.net_entry == now
        assert drain_packet(net, pkt)


class TestMinBD:
    def test_deflections_recorded_under_contention(self, small_cfg):
        sim = Simulation(small_cfg, get_scheme("minbd"),
                         SyntheticTraffic("transpose", 0.25, seed=1))
        sim.traffic.measure_window(0, 1 << 60)
        net = sim.net
        for _ in range(500):
            net.step()
        total_defl = sum(s.pkt.deflections for r in net.routers
                         for s in r.occupied if s.pkt)
        done_defl = any(True for r in net.routers for s in r.occupied)
        assert net.stats.ejected_total > 0

    def test_side_buffer_used(self, small_cfg):
        sim = Simulation(small_cfg, get_scheme("minbd"),
                         SyntheticTraffic("transpose", 0.3, seed=1))
        sim.traffic.measure_window(0, 1 << 60)
        net = sim.net
        used = False
        for _ in range(400):
            net.step()
            used |= any(r.side.pkt is not None for r in net.routers)
        assert used


class TestTFC:
    def test_bypass_reduces_zero_load_latency(self, small_cfg):
        _sim_t, res_t = _quick_run("tfc", rate=0.01)
        _sim_b, res_b = _quick_run("baseline", rate=0.01)
        assert res_t.avg_latency < res_b.avg_latency

    def test_uses_west_first(self):
        assert SCHEMES["tfc"].routing == "west_first"
