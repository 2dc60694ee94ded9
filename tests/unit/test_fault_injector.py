"""Unit tests for runtime fault application: one activation-window test
per fault kind, plus reroute installation and cache invalidation."""

from repro.config import SimConfig
from repro.fault.injector import FOREVER, FaultInjector, RerouteTable
from repro.fault.plan import (
    EJECT_FREEZE,
    FaultEvent,
    FaultPlan,
    LINK_FLAP,
    LOOKAHEAD_CORRUPT,
    LOOKAHEAD_DROP,
    PORT_STALL,
    link_cut,
)
from repro.network.packet import Packet
from repro.network.topology import PORT_E, PORT_LOCAL, PORT_S

from tests.conftest import make_network


def _cfg(**kw) -> SimConfig:
    return SimConfig(rows=4, cols=4, **kw)


def _net_with(plan, scheme=None):
    net = make_network(_cfg(fault_plan=plan), scheme=scheme)
    assert isinstance(net.faults, FaultInjector)
    return net


def _run_to(net, cycle):
    while net.cycle <= cycle:
        net.step()


class TestActivationWindows:
    def test_link_fail_is_permanent(self):
        net = _net_with(link_cut(5, PORT_E, at=10))
        link = net.link_for(5, PORT_E)
        _run_to(net, 9)
        assert link.busy_until < FOREVER
        assert not net.fault_exposed
        _run_to(net, 11)
        assert link.busy_until >= FOREVER
        assert (5, PORT_E) in net.faults.dead_links
        assert net.fault_exposed
        _run_to(net, 500)
        assert link.busy_until >= FOREVER  # never recovers

    def test_link_flap_recovers(self):
        plan = FaultPlan(events=(FaultEvent(LINK_FLAP, 10, 5, PORT_E, 40),))
        net = _net_with(plan)
        link = net.link_for(5, PORT_E)
        _run_to(net, 11)
        assert link.busy_until >= FOREVER
        assert (5, PORT_E) in net.faults.dead_links
        _run_to(net, 50)   # recovery applies at cycle until == 50
        assert link.busy_until < FOREVER
        assert (5, PORT_E) not in net.faults.dead_links
        assert not net.fault_exposed

    def test_port_stall_window(self):
        plan = FaultPlan(events=(FaultEvent(PORT_STALL, 20, 6, PORT_S, 15),))
        net = _net_with(plan)
        router = net.routers[6]
        _run_to(net, 19)
        assert router.in_busy[PORT_S] <= 19
        _run_to(net, 21)
        assert router.in_busy[PORT_S] == 35   # at + duration
        _run_to(net, 40)
        assert not net.fault_exposed          # expired

    def test_eject_freeze_window(self):
        plan = FaultPlan(events=(FaultEvent(EJECT_FREEZE, 30, 9, -1, 25),))
        net = _net_with(plan)
        _run_to(net, 31)
        assert net.routers[9].eject_busy_until == 55
        assert net.fault_exposed

    def test_lookahead_drop_blocks_lane(self):
        plan = FaultPlan(
            events=(FaultEvent(LOOKAHEAD_DROP, 10, 5, PORT_E, 50),))
        net = _net_with(plan)
        _run_to(net, 11)
        faults = net.faults
        # Lane 4 -> 7 crosses the 5 --E--> 6 hop while its lookahead is
        # dark; the prime must refuse the launch.
        assert not faults.lane_ok(prime=4, dst=7, now=net.cycle, size=1)
        assert faults.lane_skips == 1
        # A lane avoiding that hop stays trusted.
        assert faults.lane_ok(prime=8, dst=12, now=net.cycle, size=1)
        _run_to(net, 70)
        assert faults.lane_ok(prime=4, dst=7, now=net.cycle, size=1)

    def test_lookahead_corrupt_phantom_busy(self):
        plan = FaultPlan(
            events=(FaultEvent(LOOKAHEAD_CORRUPT, 10, 5, PORT_E, 30),))
        net = _net_with(plan)
        link = net.link_for(5, PORT_E)
        _run_to(net, 11)
        assert link.busy_until == 40          # at + duration, not forever
        assert (5, PORT_E) not in net.faults.dead_links

    def test_summary_counts(self):
        plan = FaultPlan(events=(
            FaultEvent(PORT_STALL, 5, 1, PORT_E, 10),
            FaultEvent(PORT_STALL, 6, 2, PORT_E, 10),
            FaultEvent(LINK_FLAP, 7, 5, PORT_E, 10),
        ))
        net = _net_with(plan)
        _run_to(net, 8)
        s = net.faults.summary()
        assert s["applied"] == {"link_flap": 1, "port_stall": 2}
        assert s["pending"] == 0
        assert s["plan_events"] == 3


class TestDegradation:
    def test_reroute_installed_for_capable_scheme(self):
        from repro.schemes import get_scheme
        net = _net_with(link_cut(5, PORT_E, at=10),
                        scheme=get_scheme("escapevc"))
        assert net.reroute is None
        _run_to(net, 11)
        assert isinstance(net.reroute, RerouteTable)
        # Shortest surviving routes from 5 to 6 dodge the dead East link.
        assert PORT_E not in net.reroute.ports(5, 6)
        assert net.reroute.ports(5, 6)

    def test_no_reroute_for_baseline(self):
        net = _net_with(link_cut(5, PORT_E, at=10))  # bare net, no scheme
        _run_to(net, 11)
        assert net.reroute is None

    def test_reroute_removed_after_flap_heals(self):
        from repro.schemes import get_scheme
        plan = FaultPlan(events=(FaultEvent(LINK_FLAP, 10, 5, PORT_E, 20),))
        net = _net_with(plan, scheme=get_scheme("escapevc"))
        _run_to(net, 11)
        assert net.reroute is not None
        _run_to(net, 31)
        assert net.reroute is None

    def test_buffered_packets_marked_exposed(self):
        net = _net_with(link_cut(5, PORT_E, at=10))
        router = net.routers[8]
        pkt = Packet(8, 3, 0, 0)
        slot = router.slots[0][0]
        slot.pkt = pkt
        slot.ready_at = FOREVER   # parked: keep it out of the switch
        router.occupied.append(slot)
        assert not pkt.fault_exposed
        _run_to(net, 11)
        assert pkt.fault_exposed

    def test_lane_ok_blocks_dead_forward_and_return(self):
        net = _net_with(link_cut(5, PORT_E, at=0))
        net.step()
        faults = net.faults
        # Forward XY path 4 -> 7 crosses 5 --E--> 6.
        assert not faults.lane_ok(prime=4, dst=7, now=net.cycle, size=1)
        # Lanes not touching the dead link stay usable.
        assert faults.lane_ok(prime=0, dst=12, now=net.cycle, size=1)


class TestRerouteTable:
    def test_avoids_dead_link(self, mesh4):
        table = RerouteTable(mesh4, {(5, PORT_E)})
        ports = table.ports(5, 6)
        assert ports and PORT_E not in ports

    def test_local_delivery(self, mesh4):
        assert table_ports(mesh4, 3, 3) == (PORT_LOCAL,)

    def test_unreachable_destination(self, mesh4):
        dead = {(0, p) for p in mesh4.ports_of(0)}
        table = RerouteTable(mesh4, dead)
        assert table.ports(0, 5) == ()
        assert not table.reachable(0, 5)
        # Inbound links to router 0 are alive: 0 stays reachable as a dst.
        assert table.reachable(5, 0)
        assert table.ports(5, 0)

    def test_preserves_shortest_path_diversity(self, mesh4):
        table = RerouteTable(mesh4, set())
        # 0 -> 5 is one row hop + one column hop: both orders minimal, so
        # both ports toward the adjacent routers 1 and 4 must be offered.
        expected = {p for p in mesh4.ports_of(0)
                    if mesh4.neighbor(0, p) in (1, 4)}
        assert len(expected) == 2
        assert set(table.ports(0, 5)) == expected


def table_ports(mesh, src, dst):
    return RerouteTable(mesh, set()).ports(src, dst)
