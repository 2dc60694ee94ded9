"""SPIN baseline (Ramrakhyani et al., ISCA 2018): deadlock detection and
synchronized packet rotation.

Fully adaptive routing with no escape resource, so network deadlock can and
does form.  A periodic detector looks for head packets blocked beyond the
detection threshold (128 cycles, Table II), extracts a cycle from the
wait-for graph, and — after a probe-propagation delay proportional to the
loop length (SPIN's probe/move message round) — rotates every packet in the
loop forward one hop simultaneously.  The detection latency is SPIN's
scalability problem (Table I): resolution time grows with both the
threshold and the loop length.
"""

from __future__ import annotations

from repro.network.watchdog import find_blocked_cycle
from repro.schemes.base import Scheme, Table1Row, register


@register
class SPIN(Scheme):
    name = "spin"
    routing = "adaptive"
    reroutes = True
    n_vns = 6
    n_vcs = 2

    #: how often the detector scans (cycles); the real SPIN probes
    #: continuously in hardware — scanning every few cycles is equivalent
    #: at far lower simulation cost.
    post_cycle_every = 16

    table1 = Table1Row(
        no_detection=False,
        protocol_deadlock_freedom=False,
        network_deadlock_freedom=True,
        full_path_diversity=True,
        high_throughput=False,
        low_power=False,
        scalability=False,
        no_misrouting=True,
    )

    def __init__(self, n_vns: int | None = None, n_vcs: int | None = None):
        super().__init__(n_vns=n_vns, n_vcs=n_vcs)
        self.spins = 0
        self._pending_until = 0

    def build(self, net) -> None:
        self.spins = 0
        self._pending_until = 0
        self._net = net

    #: cycles a router freezes while it originates/forwards a probe round
    PROBE_FREEZE = 4

    def post_cycle(self, net, now: int) -> None:
        if now < self._pending_until:
            return
        threshold = net.cfg.spin_detection_threshold
        # Probe overhead: every router suspecting deadlock (a head blocked
        # past the detection threshold) originates a probe round; while the
        # probe weaves through the router, normal arbitration pauses.  This
        # is the "considerable latency overhead at saturation" the paper
        # attributes to SPIN — it only costs anything when congestion has
        # already produced long-blocked heads.
        frozen = 0
        for router in net.active_routers():
            if router.blocked_heads(now, threshold):
                until = now + self.PROBE_FREEZE
                for p in range(router.n_ports):
                    if router.in_busy[p] < until:
                        router.in_busy[p] = until
                frozen += 1
        if not frozen:
            return
        cyc = find_blocked_cycle(net, now, threshold)
        if cyc is None:
            return
        # Probe + move-message latency: two traversals of the loop.
        delay = 2 * len(cyc)
        self._pending_until = now + delay
        net.schedule(now + delay, self._spin, cyc)

    # ------------------------------------------------------------------
    def _spin(self, now: int, cyc) -> None:
        """Synchronously rotate the packets of ``cyc`` one hop forward."""
        slots = [slot for (_rid, slot) in cyc]
        pkts = [s.pkt for s in slots]
        if any(p is None for p in pkts):
            return  # the loop resolved on its own; abort the spin
        hop = self._net.routers[cyc[0][0]]._hop_latency
        n = len(slots)
        for i in range(n):
            pkt = pkts[i]
            slots[(i + 1) % n].fill(pkt, now + hop)
            pkt.hops += 1
        self.spins += 1
        # All slots stay occupied (a rotation), so the occupied lists of
        # the involved routers are already correct.
        self._net.last_progress = now
