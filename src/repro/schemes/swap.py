"""SWAP baseline (Parasar et al., MICRO 2019): synchronized weaving of
adjacent packets.

Fully adaptive routing; every *swap duty* period (1K cycles, Table II) each
router holding a long-blocked head packet forces it forward into an
adjacent router, exchanging it with the packet occupying the target VC if
necessary.  The displaced packet is misrouted one hop — SWAP's known cost
(Table I: misrouting) — but the forced motion guarantees that any deadlock
cycle is eventually broken without detection hardware.
"""

from __future__ import annotations

from repro.schemes.base import Scheme, Table1Row, register

#: a head packet must have been stuck this long to be eligible for a swap
BLOCK_THRESHOLD = 64


@register
class SWAP(Scheme):
    name = "swap"
    routing = "adaptive"
    n_vns = 6
    n_vcs = 2

    table1 = Table1Row(
        no_detection=True,
        protocol_deadlock_freedom=False,
        network_deadlock_freedom=True,
        full_path_diversity=True,
        high_throughput=False,
        low_power=False,
        scalability=True,
        no_misrouting=False,
    )

    def __init__(self, n_vns: int | None = None, n_vcs: int | None = None):
        super().__init__(n_vns=n_vns, n_vcs=n_vcs)
        self.swaps = 0

    def build(self, net) -> None:
        self.swaps = 0

    def configure(self, cfg):
        # the swap duty period is a config knob (Table II)
        self.post_cycle_every = cfg.swap_duty_cycles
        return super().configure(cfg)

    def post_cycle(self, net, now: int) -> None:
        for router in net.active_routers():
            blocked = router.blocked_heads(now, BLOCK_THRESHOLD)
            if not blocked:
                continue
            # Oldest blocked head first.
            slot = min(blocked, key=lambda s: s.ready_at)
            if self._force_forward(net, router, slot, now):
                self.swaps += 1
                net.last_progress = now

    # ------------------------------------------------------------------
    def _force_forward(self, net, router, slot, now: int) -> bool:
        """Push ``slot``'s packet into a productive neighbour VC, swapping
        with the occupant if every candidate VC is taken."""
        pkt = slot.pkt
        mv = router.moves(pkt)
        if not mv or mv[0][0] == 0:
            return False   # waiting on ejection; a swap cannot help
        for out, vcs in mv:
            link = router.links_out[out]
            if link is None:
                continue
            nbr = router.neighbors[out]
            dslots = nbr.slots[link.dst_port]
            # Prefer a genuinely free VC (plain forced move).
            for vc in vcs:
                d = dslots[vc]
                if d.is_free(now):
                    self._move(router, slot, nbr, d, now)
                    return True
        # No free VC anywhere: swap with the first occupied candidate.
        for out, vcs in mv:
            link = router.links_out[out]
            if link is None:
                continue
            nbr = router.neighbors[out]
            dslots = nbr.slots[link.dst_port]
            for vc in vcs:
                d = dslots[vc]
                if d.pkt is not None and d.ready_at <= now:
                    self._swap(router, slot, nbr, d, now)
                    return True
        return False

    @staticmethod
    def _move(router, slot, nbr, dslot, now: int) -> None:
        pkt = slot.pkt
        dslot.fill(pkt, now + router._hop_latency)
        nbr.admit(dslot)
        slot.vacate(now + pkt.size + 1)
        pkt.hops += 1

    @staticmethod
    def _swap(router, slot, nbr, dslot, now: int) -> None:
        a, b = slot.pkt, dslot.pkt
        hop = router._hop_latency
        dslot.fill(a, now + hop)
        a.hops += 1
        slot.fill(b, now + hop)
        b.hops += 1
        b.deflections += 1      # the displaced packet was misrouted
