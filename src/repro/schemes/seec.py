"""SEEC-like extension baseline (Parasar et al., SC 2021).

The paper's Related Work singles out SEEC as the closest prior design:
*"SEEC provides simultaneous bufferless paths like FastPass.  However,
FastPass is free from sending tokens (i.e., seekers) and its associated
overhead to upgrade packets."*  This extension models that difference so
the comparison can actually be run:

* like FastPass, a router may launch a packet onto a bufferless express
  path — but only after a *seeker* token has scouted the path and
  returned, which (a) delays every upgrade by a path round trip and
  (b) occupies link reservation windows with seeker traffic;
* seekers are launched opportunistically by the routers holding the
  longest-blocked head packets (no TDM schedule, no partitions), so two
  seekers may claim overlapping paths — the loser's reservation attempt
  fails and it must re-seek, which is SEEC's congestion-sensitivity;
* there are no VNs (SEEC, like FastPass, targets VN-free operation).

This is an *extension* (the paper cites but does not evaluate SEEC); it is
excluded from the paper-figure regenerators and exercised by the ablation
bench and tests.
"""

from __future__ import annotations

from repro.network.link import ReservationConflict
from repro.network.topology import PORT_LOCAL
from repro.schemes.base import Scheme, Table1Row, register

#: a head packet must be blocked this long before a seeker is sent
SEEK_THRESHOLD = 24
#: how often each router may originate a seeker (cycles)
SEEK_INTERVAL = 8


@register
class SEEC(Scheme):
    name = "seec"
    routing = "adaptive"
    n_vns = 1
    n_vcs = 2
    post_cycle_every = SEEK_INTERVAL

    table1 = Table1Row(
        no_detection=True,
        protocol_deadlock_freedom=True,
        network_deadlock_freedom=True,
        full_path_diversity=True,
        high_throughput=False,     # seeker overhead (the paper's point)
        low_power=True,
        scalability=True,
        no_misrouting=True,
    )

    def __init__(self, n_vns: int | None = None, n_vcs: int | None = None):
        super().__init__(n_vns=1 if n_vns is None else n_vns, n_vcs=n_vcs)
        self.seeks = 0
        self.seek_failures = 0
        self.expressed = 0

    def build(self, net) -> None:
        self.seeks = 0
        self.seek_failures = 0
        self.expressed = 0
        self._net = net

    # ------------------------------------------------------------------
    def post_cycle(self, net, now: int) -> None:
        if now % SEEK_INTERVAL:
            return
        for router in net.active_routers():
            blocked = router.blocked_heads(now, SEEK_THRESHOLD)
            if not blocked:
                continue
            slot = min(blocked, key=lambda s: s.ready_at)
            pkt = slot.pkt
            mv = router.moves(pkt)
            if mv and mv[0][0] == PORT_LOCAL:
                continue
            self._seek(net, router, slot, pkt, now)

    def _seek(self, net, router, slot, pkt, now: int) -> None:
        """Send a seeker along the XY path; on success the packet departs
        bufferlessly after the seeker's round trip."""
        self.seeks += 1
        path = net.mesh.xy_path(router.id, pkt.dst)
        dist = len(path)
        depart = now + 2 * dist          # seeker out + grant back
        try:
            # The seeker itself occupies each link for one cycle on the way
            # out, and the express packet follows after the grant returns.
            for k, (rid, port) in enumerate(path):
                net.link_for(rid, port).reserve_fp(now + k, now + k + 1)
            for k, (rid, port) in enumerate(path):
                net.link_for(rid, port).reserve_fp(
                    depart + k, depart + k + pkt.size)
        except ReservationConflict:
            # Another seeker/express claimed part of the path: re-seek
            # later.  (Windows already placed stay reserved — the wasted
            # bandwidth is exactly SEEC's seeker overhead.)
            self.seek_failures += 1
            return
        slot.vacate(depart + pkt.size)
        net.buffered -= 1
        pkt.was_fastpass = True
        if pkt.fp_upgrade < 0:
            pkt.fp_upgrade = depart
        pkt.hops += dist
        self.expressed += 1
        net.in_transit += 1
        net.schedule(depart + dist, self._arrive, net, pkt)
        net.last_progress = now

    def _arrive(self, now: int, net, pkt) -> None:
        ni = net.nis[pkt.dst]
        if ni.can_eject(pkt, now):
            router = net.routers[pkt.dst]
            router.eject_busy_until = max(router.eject_busy_until,
                                          now) + pkt.size
            net.in_transit -= 1
            ni.eject(pkt, now)
            net.last_progress = now
            return
        # Destination full: retry shortly (SEEC re-seeks from the NI).
        net.schedule(now + 8, self._arrive, net, pkt)

    @property
    def label(self) -> str:
        return f"SEEC(VN=0, VC={self.n_vcs})"
