"""DRAIN baseline (Parasar et al., HPCA 2020): periodic whole-network
circulation.

Fully adaptive routing; every DRAIN period (64K cycles, Table II) normal
switching is suspended and *every* in-network packet circulates
synchronously along a predefined Hamiltonian ring for one full loop —
packets eject when the rotation carries them past their destination, and
every potential deadlock cycle is destroyed because everything moved.  The
cost is indiscriminate misrouting, which is what ruins DRAIN's tail
latency in Fig. 12.
"""

from __future__ import annotations

from repro.schemes.base import Scheme, Table1Row, register


@register
class DRAIN(Scheme):
    name = "drain"
    routing = "adaptive"
    n_vns = 6
    n_vcs = 2

    table1 = Table1Row(
        no_detection=True,
        protocol_deadlock_freedom=True,   # can run VN-less, at a buffer cost
        network_deadlock_freedom=True,
        full_path_diversity=True,
        high_throughput=False,
        low_power=False,
        scalability=False,
        no_misrouting=False,
    )

    def __init__(self, n_vns: int | None = None, n_vcs: int | None = None):
        super().__init__(n_vns=n_vns, n_vcs=n_vcs)
        self.drains = 0
        self._drain_until = -1
        self._ring_next: list[int] = []

    def build(self, net) -> None:
        self.drains = 0
        self._drain_until = -1
        ring = net.mesh.hamiltonian_ring()
        nxt = [0] * net.mesh.n_routers
        for i, rid in enumerate(ring):
            nxt[rid] = ring[(i + 1) % len(ring)]
        self._ring_next = nxt

    # ------------------------------------------------------------------
    def pre_cycle(self, net, now: int) -> None:
        period = net.cfg.drain_period_cycles
        if self._drain_until < now and now > 0 and now % period == 0:
            self._drain_until = now + net.mesh.n_routers
            self.drains += 1
        if now < self._drain_until:
            net.suspended = True
            self._rotate(net, now)
        else:
            net.suspended = False

    # ------------------------------------------------------------------
    def _rotate(self, net, now: int) -> None:
        """One synchronous bufferless rotation step along the ring."""
        moves = []     # (src_slot, dst_slot, pkt, next_router)
        routers = net.active_routers()
        for router in routers:
            router.disturb()   # the scan reads occupied order and ejects
            nxt = net.routers[self._ring_next[router.id]]
            ni = net.nis[router.id]
            for slot in router.occupied:
                pkt = slot.pkt
                if pkt is None:
                    continue
                if pkt.dst == router.id and ni.can_eject(pkt, now):
                    slot.vacate(now + pkt.size + 1)
                    net.buffered -= 1
                    ni.eject(pkt, now)
                    net.last_progress = now
                    continue
                # Not home yet (or the ejection queue is full): keep
                # circulating — DRAIN misroutes indiscriminately.
                moves.append((slot, nxt.slots[slot.port][slot.vc], pkt, nxt))
        # The rotation is a permutation across routers: apply all reads
        # before writes so simultaneous motion is exact.
        for slot, dslot, pkt, nxt in moves:
            slot.vacate(now + 1)
        # Suspended routers do not step, so nothing else prunes the
        # slots just vacated: a refilled one would be listed twice.
        for router in routers:
            router.occupied = [s for s in router.occupied
                               if s.pkt is not None]
        for slot, dslot, pkt, nxt in moves:
            dslot.pkt = pkt
            dslot.ready_at = now + 1
            dslot.free_at = 1 << 60
            nxt.admit(dslot)
            pkt.hops += 1
            pkt.deflections += 1
        if moves:
            net.last_progress = now
