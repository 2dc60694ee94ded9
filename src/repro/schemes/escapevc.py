"""EscapeVC baseline (Duato): per-VN escape virtual channel.

Within each of the 6 virtual networks, VC 0 is the *escape* channel routed
west-first (deadlock-free turn model) and the remaining VCs are fully
adaptive (Table II).  A packet may always fall back from an adaptive VC
into the escape VC; once in the escape subnetwork it stays there — the
classic Duato construction, so the scheme is network-deadlock-free but
offers no full path diversity inside the escape channel and still needs
all 6 VNs against protocol deadlock.
"""

from __future__ import annotations

from repro.network.router import Router
from repro.network.routing import route_adaptive, route_west_first
from repro.network.topology import PORT_LOCAL
from repro.schemes.base import FaultCaps, Scheme, Table1Row, register

LOCAL_MOVE = ((PORT_LOCAL, ()),)


def _escape_moves(adaptive, escape_ports, esc: int, n_vcs: int,
                  in_escape) -> tuple:
    esc_moves = tuple((o, (esc,)) for o in escape_ports)
    if in_escape:
        return esc_moves
    normal = tuple(range(esc + 1, esc + n_vcs))
    return tuple((o, normal) for o in adaptive) + esc_moves


class EscapeVCRouter(Router):
    """Router whose candidate moves depend on the current VC class."""

    __slots__ = ()

    def __init__(self, rid, mesh, cfg, net):
        super().__init__(rid, mesh, cfg, net)
        # Tells the base step's inlined table probe how to spot a packet
        # sitting in its VN's escape VC (vc == vn * n_vcs).
        self._esc_stride = cfg.n_vcs
        # Injection prefers the adaptive VCs; the escape VC is last resort.
        n_vcs = cfg.n_vcs
        self._inj_vcs = [
            tuple(range(vn * n_vcs + 1, (vn + 1) * n_vcs)) + (vn * n_vcs,)
            for vn in range(6)
        ]

    @staticmethod
    def move_rule(routing_fn, mesh, rid, dst, vn, escape, n_vns, n_vcs):
        """Adaptive ports on the VN's normal VCs, then west-first ports on
        its escape VC; west-first only once inside the escape VC.  (The
        two subnetworks fix their routing, so ``routing_fn`` is unused.)"""
        if rid == dst:
            return LOCAL_MOVE
        return _escape_moves(route_adaptive(mesh, rid, dst),
                             route_west_first(mesh, rid, dst),
                             vn * n_vcs, n_vcs, escape)

    def moves(self, pkt, slot=None) -> tuple:
        if pkt.dst == self.id:
            return LOCAL_MOVE
        n_vcs = self.cfg.n_vcs
        esc = pkt.vn * n_vcs                    # escape VC of this VN
        in_escape = slot is not None and slot.vc == esc
        if self.net.reroute is not None:
            # Degraded mode: shortest surviving paths for both classes,
            # looked up live (paths change as faults come and go).  The
            # west-first escape guarantee does not survive a dead link
            # anyway — a wedge here is the watchdog's to report.
            live = self.net.reroute.ports(self.id, pkt.dst)
            return _escape_moves(live, live, esc, n_vcs, in_escape)
        return self.net.routes.lookup(self.id, pkt.dst, pkt.vn, in_escape)


@register
class EscapeVC(Scheme):
    name = "escapevc"
    routing = "adaptive"   # unused: the router computes its own moves
    router_cls = EscapeVCRouter
    fault_caps = FaultCaps(reroute=True)
    n_vns = 6
    n_vcs = 2

    table1 = Table1Row(
        no_detection=True,
        protocol_deadlock_freedom=False,
        network_deadlock_freedom=True,
        full_path_diversity=False,   # none within the escape VC
        high_throughput=False,
        low_power=False,             # needs multiple VNs
        scalability=True,
        no_misrouting=True,
    )

    @property
    def label(self) -> str:
        return f"EscapeVC(VN={self.n_vns}, VC={self.n_vcs})"
