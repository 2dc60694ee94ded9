"""Unit tests for the network assembly, event wheel and watchdog."""

import pytest

from repro.network.packet import MessageClass, Packet
from repro.network.watchdog import Watchdog, find_blocked_cycle
from tests.conftest import inject_now, make_network, park


@pytest.fixture
def net(small_cfg):
    return make_network(small_cfg, routing="adaptive")


class TestWiring:
    def test_link_count(self, net):
        # 4x4 mesh: 2*(rows*(cols-1) + cols*(rows-1)) directed links
        assert len(net.links) == 2 * (4 * 3 + 4 * 3)

    def test_links_are_paired(self, net):
        for link in net.links:
            back = net.routers[link.dst].links_out
            assert any(l is not None and l.dst == link.src for l in back)

    def test_link_for_lookup(self, net):
        link = net.link_for(0, 2)    # East out of router 0
        assert link.src == 0 and link.dst == 1

    def test_link_for_missing_raises(self, net):
        with pytest.raises(ValueError):
            net.link_for(0, 4)       # no West link at the corner


class TestEventWheel:
    def test_event_fires_at_cycle(self, net):
        fired = []
        net.schedule(5, lambda now: fired.append(now))
        for _ in range(10):
            net.step()
        assert fired == [5]

    def test_event_args_passed(self, net):
        fired = []
        net.schedule(3, lambda now, a, b: fired.append((now, a, b)), 1, 2)
        for _ in range(5):
            net.step()
        assert fired == [(3, 1, 2)]

    def test_multiple_events_same_cycle(self, net):
        fired = []
        net.schedule(2, lambda now: fired.append("a"))
        net.schedule(2, lambda now: fired.append("b"))
        for _ in range(4):
            net.step()
        assert fired == ["a", "b"]

    def test_scheduling_into_a_cycle_already_run_raises(self, net):
        """``_run_events`` pops a cycle's list when the cycle starts; an
        event filed for that cycle afterwards used to be dropped without
        a word (a wake timer lost that way is a hang)."""
        net.schedule(net.cycle, lambda now: None)    # not yet run: fine
        for _ in range(3):
            net.step()
        with pytest.raises(ValueError, match="already run"):
            net.schedule(2, lambda now: None)
        with pytest.raises(ValueError, match="already run"):
            net.schedule(0, lambda now: None)
        net.schedule(3, lambda now: None)            # the next cycle is

    def test_event_cannot_reschedule_into_its_own_cycle(self, net):
        fired = []

        def again(now):
            fired.append(now)
            net.schedule(now, again)

        net.schedule(1, again)
        net.step()
        with pytest.raises(ValueError, match="already run"):
            net.step()
        assert fired == [1]


class TestInFlightAccounting:
    def test_empty_network(self, net):
        assert net.packets_in_flight() == 0
        assert net.total_backlog() == 0

    def test_counts_injected_packet(self, net):
        inject_now(net, 0, 15, MessageClass.REQUEST)
        net.step()
        net.step()
        assert net.packets_in_flight() >= 1

    def test_drains_to_zero(self, net):
        inject_now(net, 0, 15, MessageClass.REQUEST)
        for _ in range(100):
            net.step()
        assert net.packets_in_flight() == 0


class TestWatchdog:
    def test_no_fire_when_idle(self, net):
        for _ in range(net.cfg.watchdog_cycles + 100):
            net.step()
        assert not net.watchdog.deadlocked

    def test_fires_on_stuck_packet(self, small_cfg):
        # Park a packet in a router slot with no way to move (dst full).
        # The hand-built blockade below shares one packet object across
        # slots outside the occupied list — intentionally non-physical
        # state, so the paranoia audit must stay off for this net.
        net = make_network(small_cfg.with_(paranoia=0),
                           routing="adaptive")
        r = net.routers[0]
        pkt = Packet(0, 5, MessageClass.REQUEST, 0)
        park(net, r, r.slots[1][0], pkt)
        blocker = Packet(0, 5, MessageClass.REQUEST, 0)
        r1 = net.routers[1]
        for vc in r1.vn_vcs(0):
            s = r1.slots[4][vc]
            s.pkt, s.ready_at = blocker, 1 << 60
        r5 = net.routers[4]
        for vc in r5.vn_vcs(0):
            s = r5.slots[3][vc]
            s.pkt, s.ready_at = blocker, 1 << 60
        for _ in range(net.cfg.watchdog_cycles + 50):
            net.step()
        assert net.watchdog.deadlocked

    def test_progress_resets_timer(self, net):
        wd = Watchdog(net, threshold=10)
        net.last_progress = 0
        assert not wd.check(5)
        net.last_progress = 8
        assert not wd.check(15)


class TestWaitForGraph:
    def test_finds_simple_cycle(self, small_cfg):
        """Construct the classic 4-router turn cycle by hand and detect it.

        Each head packet sits in the input VC the previous one is waiting
        on: (router, input-port, dst) chosen so the adaptive route's
        productive VC is exactly the next occupied slot.
        """
        net = make_network(small_cfg.with_(n_vns=1, n_vcs=1),
                           routing="adaptive")
        # square 0 (0,0), 1 (1,0), 5 (1,1), 4 (0,1)
        placements = [
            (0, 1, 5),   # A: router 0, North input, dst 5 -> waits East on B
            (1, 4, 4),   # B: router 1, West input, dst 4 -> waits North on C
            (5, 3, 0),   # C: router 5, South input, dst 0 -> waits West on D
            (4, 2, 1),   # D: router 4, East input, dst 1 -> waits South on A
        ]
        for rid, port, dst in placements:
            r = net.routers[rid]
            pkt = Packet(rid, dst, MessageClass.REQUEST, 0)
            park(net, r, r.slots[port][0], pkt)
        cyc = find_blocked_cycle(net, now=10, min_blocked=1)
        assert cyc is not None
        assert len(cyc) == 4
        assert {rid for rid, _slot in cyc} == {0, 1, 5, 4}

    def test_no_cycle_in_empty_network(self, net):
        assert find_blocked_cycle(net, 100) is None
