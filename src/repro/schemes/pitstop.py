"""Pitstop baseline (Farrokhbakht et al., HPCA 2021): a VN-free NoC with a
serialized NI-to-NI bypass.

Like FastPass, Pitstop needs no virtual networks; unlike FastPass, its
escape mechanism handles only one message at a time network-wide: a token
rotates over the routers, and the holder may pull its longest-blocked
packet out of the network and deliver it over the NI bypass path.  While
one bypass is in flight no other can start, which is exactly the
scalability limitation the paper attributes to Pitstop ("only one message
type can use the bypass approach in the network at a time").
"""

from __future__ import annotations

from repro.schemes.base import Scheme, Table1Row, register

#: a packet must have been blocked this long before the bypass takes it
BLOCK_THRESHOLD = 64
#: fixed NI processing overhead of one bypass delivery (cycles)
BYPASS_OVERHEAD = 8


@register
class Pitstop(Scheme):
    name = "pitstop"
    routing = "adaptive"
    n_vns = 1        # VN-free, like FastPass
    n_vcs = 2

    table1 = Table1Row(
        no_detection=True,
        protocol_deadlock_freedom=True,
        network_deadlock_freedom=True,
        full_path_diversity=True,
        high_throughput=False,
        low_power=True,
        scalability=False,
        no_misrouting=True,
    )

    def __init__(self, n_vns: int | None = None, n_vcs: int | None = None):
        super().__init__(n_vns=1 if n_vns is None else n_vns, n_vcs=n_vcs)
        self.bypasses = 0

    def build(self, net) -> None:
        self.bypasses = 0
        self._token = 0
        self._busy_until = 0

    def hook_cadence(self, cfg) -> tuple[int, int]:
        return 0, cfg.pitstop_token_cycles

    def post_cycle(self, net, now: int) -> None:
        cfg = net.cfg
        if now % cfg.pitstop_token_cycles:
            return
        self._token = (self._token + 1) % net.mesh.n_routers
        if self._busy_until > now:
            return   # the single bypass path is occupied
        router = net.routers[self._token]
        victim = self._pick_victim(net, router, now)
        if victim is None:
            return
        slot, pkt = victim
        if slot is not None:
            slot.vacate(now + pkt.size + 1)
            net.buffered -= 1
        dist = net.mesh.hops(router.id, pkt.dst)
        eta = now + dist + pkt.size + BYPASS_OVERHEAD
        self._busy_until = eta
        self.bypasses += 1
        net.in_transit += 1
        net.schedule(eta, self._deliver, net, pkt)
        net.last_progress = now

    # ------------------------------------------------------------------
    def _pick_victim(self, net, router, now: int):
        """Longest-blocked head packet at the token holder: an in-network
        head, or a protocol-blocked injection-queue head."""
        blocked = router.blocked_heads(now, BLOCK_THRESHOLD)
        if blocked:
            slot = min(blocked, key=lambda s: s.ready_at)
            return slot, slot.pkt
        ni = net.nis[router.id]
        for q in ni.inj:
            if q and now - q[0].gen_cycle >= BLOCK_THRESHOLD:
                pkt = q.popleft()
                ni.inj_count -= 1
                net.inj_total -= 1
                pkt.net_entry = now
                net.stats.injected += 1
                return None, pkt
        return None

    def _deliver(self, now: int, net, pkt) -> None:
        """Complete the NI-to-NI bypass; retry while the destination
        ejection queue is full (Pitstop holds the bypass meanwhile)."""
        ni = net.nis[pkt.dst]
        if not ni.can_eject(pkt, now):
            self._busy_until = now + 4
            net.schedule(now + 4, self._deliver, net, pkt)
            return
        net.in_transit -= 1
        ni.eject(pkt, now)
        net.last_progress = now
