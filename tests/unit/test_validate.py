"""Unit tests for the runtime invariant checker."""

import pytest

from repro.network.packet import MessageClass, Packet
from repro.network.validate import InvariantViolation, check_invariants
from repro.schemes import get_scheme
from repro.sim.engine import Simulation
from repro.traffic.synthetic import SyntheticTraffic
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
    0's head has subscribed and parked."""
    hslot, _head, held = blockade(net)
    for _ in range(5):
        net.step()
    check_invariants(net)
    return hslot, held


class TestSkippedHeadAudits:
    """The wakeup contract, audited: a head that a memo or a park skips
    has no legal move, and every occupied VC it waits for knows it."""

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

    def test_park_outliving_a_timer(self, small_cfg):
        net = make_network(small_cfg)
        r = net.routers[0]
        slot = r.slots[0][0]
        park(net, r, slot, Packet(0, 3, MessageClass.REQUEST, 0),
             ready_at=40)
        for _ in range(5):
            net.step()
        assert r._parked_sw >= 0 and r._wake_at == 40
        slot.ready_at = net.cycle        # a timer lowered, no disturb()
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
        park(net, r, slot, Packet(5, 0, MessageClass.REQUEST, 0))
        r.eject_busy_until = 30
        for _ in range(3):
            net.step()
        assert r._parked_sw >= 0 and r._wake_at == 30
        r.eject_busy_until = 0
        with pytest.raises(InvariantViolation, match="can eject now"):
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
