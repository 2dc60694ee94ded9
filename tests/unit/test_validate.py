"""Unit tests for the runtime invariant checker."""

import pytest

from repro.network.packet import MessageClass, Packet
from repro.network.validate import InvariantViolation, check_invariants
from repro.schemes import get_scheme
from repro.sim.engine import Simulation
from repro.traffic.synthetic import SyntheticTraffic
from repro.network.topology import PORT_LOCAL, PORT_W
from tests.conftest import make_network, park
from tests.unit.test_credit_wakeup import blockade


class TestCleanStates:
    def test_fresh_network_passes(self, small_cfg):
        net = make_network(small_cfg)
        check_invariants(net)

    def test_running_network_passes(self, small_cfg):
        sim = Simulation(small_cfg, get_scheme("fastpass", n_vcs=2),
                         SyntheticTraffic("uniform", 0.1, seed=1))
        net = sim.net
        for _ in range(200):
            net.step()
            check_invariants(net)

    def test_minbd_side_buffer_exempt(self, small_cfg):
        sim = Simulation(small_cfg, get_scheme("minbd"),
                         SyntheticTraffic("transpose", 0.2, seed=1))
        net = sim.net
        for _ in range(200):
            net.step()
            check_invariants(net)


class TestCorruptionDetected:
    def test_unlisted_occupied_slot(self, small_cfg):
        net = make_network(small_cfg)
        r = net.routers[0]
        r.slots[1][0].pkt = Packet(0, 5, MessageClass.REQUEST, 0)
        with pytest.raises(InvariantViolation, match="missing"):
            check_invariants(net)

    def test_duplicated_packet(self, small_cfg):
        net = make_network(small_cfg)
        pkt = Packet(0, 5, MessageClass.REQUEST, 0)
        for rid in (0, 1):
            r = net.routers[rid]
            park(net, r, r.slots[1][0], pkt)
        with pytest.raises(InvariantViolation, match="two slots"):
            check_invariants(net)

    def test_buffered_but_ejected(self, small_cfg):
        net = make_network(small_cfg)
        r = net.routers[0]
        pkt = Packet(0, 5, MessageClass.REQUEST, 0)
        pkt.eject_cycle = 10
        slot = r.slots[1][0]
        slot.pkt = pkt
        r.occupied.append(slot)
        with pytest.raises(InvariantViolation, match="already ejected"):
            check_invariants(net)

    def test_in_transit_underflow(self, small_cfg):
        net = make_network(small_cfg)
        net.in_transit = -1
        with pytest.raises(InvariantViolation, match="underflow"):
            check_invariants(net)

    def test_packet_in_slot_and_queue(self, small_cfg):
        net = make_network(small_cfg)
        pkt = Packet(0, 5, MessageClass.REQUEST, 0)
        r = net.routers[0]
        park(net, r, r.slots[1][0], pkt)
        ni = net.nis[2]
        ni.inj[MessageClass.REQUEST].append(pkt)
        ni.inj_count += 1
        net.inj_total += 1
        net.wake_inject(ni.id)
        with pytest.raises(InvariantViolation, match="both buffered"):
            check_invariants(net)


def _blockade(net):
    """The hand-built blockade of the wakeup tests, stepped until router
    0's head has subscribed."""
    hslot, _head, held = blockade(net)
    for _ in range(5):
        net.step()
    check_invariants(net)
    return hslot, held


class TestSkippedHeadAudits:
    """The wakeup contract, audited: a head that a memo skips has no
    legal move, and every occupied VC it waits for knows it."""

    def test_slot_emptied_behind_the_memo(self, small_cfg):
        net = make_network(small_cfg)
        hslot, held = _blockade(net)
        # The pre-vacate idiom: nobody tells the waiter.
        held[0].pkt = None
        held[0].free_at = net.cycle
        net.buffered -= 1
        net.routers[1].occupied.remove(held[0])
        with pytest.raises(InvariantViolation, match="wakeup was lost"):
            check_invariants(net)

    def test_waiter_missing_from_an_occupied_candidate(self, small_cfg):
        net = make_network(small_cfg)
        hslot, held = _blockade(net)
        held[1].waiters = None
        with pytest.raises(InvariantViolation, match="waiter"):
            check_invariants(net)

    def test_ejection_head_skipped_while_it_could_eject(self, small_cfg):
        net = make_network(small_cfg)
        r = net.routers[0]
        slot = r.slots[1][0]
        pkt = Packet(5, 0, MessageClass.REQUEST, 0)
        park(net, r, slot, pkt)
        # A forged memo: ejection never sets one, so this head is skipped
        # although the port is idle and the queue has room.
        slot.retry_at, slot.retry_pid = net.cycle + 30, pkt.pid
        with pytest.raises(InvariantViolation, match="can eject now"):
            check_invariants(net)


class TestSkipBoundAudits:
    """The two O(1) skips, audited: a router that only rotates has no
    head that could move before its wake bound, and an NI the cycle loop
    skips can neither refill nor inject, and waits on every held
    candidate VC."""

    def test_router_wake_bound_behind_a_movable_head(self, small_cfg):
        net = make_network(small_cfg)
        r = net.routers[5]
        park(net, r, r.slots[PORT_W][0], Packet(4, 7, MessageClass.REQUEST, 0))
        check_invariants(net)
        r._wake = net.cycle + 50        # forged: the head can move now
        with pytest.raises(InvariantViolation, match="wake bound was not"):
            check_invariants(net)

    def test_router_rotating_past_an_empty_slot(self, small_cfg):
        net = make_network(small_cfg)
        r = net.routers[5]
        slot = r.slots[PORT_W][0]
        park(net, r, slot, Packet(4, 7, MessageClass.REQUEST, 0), 60)
        net.step()
        assert r._wake == 60
        # emptied behind vacate's back: nobody zeroes the bound
        slot.pkt = None
        net.buffered -= 1
        with pytest.raises(InvariantViolation, match="empty slot listed"):
            check_invariants(net)

    @staticmethod
    def _queued_request(net):
        ni = net.nis[0]
        pkt = Packet(0, 5, MessageClass.REQUEST, 0)
        ni.inj[pkt.mclass].append(pkt)
        ni.inj_count += 1
        net.inj_total += 1
        net.wake_inject(0)
        return ni, pkt

    def test_ni_skipped_while_its_source_can_refill(self, small_cfg):
        net = make_network(small_cfg)
        ni = net.nis[0]
        ni.source(Packet(0, 5, MessageClass.REQUEST, 0))
        ni.retry_at = net.cycle + 50    # forged
        with pytest.raises(InvariantViolation, match="can refill"):
            check_invariants(net)

    def test_ni_skipped_while_a_local_vc_is_claimable(self, small_cfg):
        net = make_network(small_cfg)
        ni, _pkt = self._queued_request(net)
        ni.retry_at = net.cycle + 50    # forged
        with pytest.raises(InvariantViolation, match="claimable now"):
            check_invariants(net)

    def test_ni_missing_from_a_held_candidate(self, small_cfg):
        net = make_network(small_cfg)
        router = net.routers[0]
        ni, pkt = self._queued_request(net)
        held = [router.slots[PORT_LOCAL][vc]
                for vc in router._inj_vcs[pkt.vn]]
        for slot in held:
            park(net, router, slot, Packet(0, 1, MessageClass.REQUEST, 0),
                 10 ** 6)
        net.step()
        assert all(ni in slot.waiters for slot in held)
        check_invariants(net)
        held[-1].waiters = None
        with pytest.raises(InvariantViolation, match="waiter"):
            check_invariants(net)


class TestConsumeCoverage:
    def _closed_loop(self, small_cfg):
        from repro.traffic.coherence import CoherenceTraffic
        sim = Simulation(small_cfg.with_(paranoia=1),
                         get_scheme("fastpass", n_vcs=2),
                         CoherenceTraffic(txns_per_core=6, seed=4))
        return sim

    def test_sleeping_node_models_pass(self, small_cfg):
        sim = self._closed_loop(small_cfg)
        net = sim.net
        for _ in range(300):
            net.step()          # paranoia=1: audited every cycle
        assert len(net._con_active) < len(net.nis)

    def test_ejection_without_a_wake(self, small_cfg):
        sim = self._closed_loop(small_cfg)
        net = sim.net
        net.step()
        ni = net.nis[3]
        assert ni.id not in net._con_active
        ni.ej[MessageClass.WRITEBACK].q.append(
            Packet(0, 3, MessageClass.WRITEBACK, 0))
        with pytest.raises(InvariantViolation, match="packets to consume"):
            check_invariants(net)

    def test_due_service_entry_without_a_wake(self, small_cfg):
        sim = self._closed_loop(small_cfg)
        net = sim.net
        for _ in range(3):
            net.step()
        node = sim.traffic.nodes[3]
        assert 3 not in net._con_active
        # filed behind the event wheel's back
        node.service.append((net.cycle - 1,
                             Packet(0, 3, MessageClass.REQUEST, 0)))
        with pytest.raises(InvariantViolation, match="service entry due"):
            check_invariants(net)
