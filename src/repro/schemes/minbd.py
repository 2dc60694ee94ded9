"""MinBD baseline (Fallin et al., NOCS 2012): minimally-buffered deflection
routing.

Each input port holds a single latch (one packet); there are no credits —
every packet must leave every cycle it can, taking a productive output when
one is free and being *deflected* to any other free output otherwise.  One
small side buffer per router absorbs a would-be deflection.  Oldest-first
priority provides livelock freedom.  Deflections waste link bandwidth, so
throughput degrades at load (Fig. 7: FastPass is ~1.4x better).
"""

from __future__ import annotations

from repro.network.link import VCSlot
from repro.network.router import Router
from repro.network.routing import productive_ports
from repro.schemes.base import Scheme, Table1Row, register


class MinBDRouter(Router):
    """Deflection router with a one-packet side buffer."""

    __slots__ = ("side",)

    def __init__(self, rid, mesh, cfg, net):
        super().__init__(rid, mesh, cfg, net)
        self.side = VCSlot(port=-1, vc=0)

    def step(self, now: int) -> None:
        # Candidates: every latched packet plus the side buffer, oldest
        # (by generation time) first.
        cands = []
        for slot in self.occupied:
            if slot.pkt is not None and slot.ready_at <= now:
                cands.append(slot)
        if self.side.pkt is not None and self.side.ready_at <= now:
            cands.append(self.side)
        if not cands:
            self.occupied = [s for s in self.occupied if s.pkt is not None]
            if not self.occupied and self.side.pkt is None:
                self.net.sleep_router(self.id)
            return
        cands.sort(key=lambda s: s.pkt.gen_cycle)
        taken = 0
        moved_any = False
        ejected = 0
        for slot in cands:
            pkt = slot.pkt
            if pkt.dst == self.id:
                # MinBD moves flits every cycle; a latch is never held
                # hostage by ejection serialization.  Model: up to two
                # ejections per router per cycle straight into the queue.
                ni = self.net.nis[self.id]
                if ejected < 2 and ni.can_eject(pkt, now):
                    slot.vacate(now + 1)
                    self.net.buffered -= 1
                    ni.eject(pkt, now)
                    ejected += 1
                    moved_any = True
                continue
            prod = productive_ports(self.mesh, self.id, pkt.dst)
            out = self._free_out(prod, taken, now, pkt)
            deflected = False
            if out is None:
                # Only mis-route under pressure: at flit granularity MinBD
                # deflects when flits *contend*, not whenever a link is
                # mid-serialization.  We approximate contention by latch
                # occupancy: with plenty of free latches the packet simply
                # waits for its productive link.
                if len(cands) < 6:
                    continue
                # Absorb into the side buffer instead of deflecting.
                if self.side.pkt is None and slot is not self.side:
                    self.side.pkt = pkt
                    self.side.ready_at = now + 1
                    slot.vacate(now + 1)
                    moved_any = True
                    continue
                out = self._free_out(self._all_ports(), taken, now, pkt)
                deflected = out is not None
            if out is None:
                continue   # every output serializing: wait in the latch
            link = self.links_out[out]
            dslot = None
            for d in self.neighbors[out].slots[link.dst_port]:
                if d.pkt is None and d.free_at <= now:
                    dslot = d
                    break
            dslot.pkt = pkt
            dslot.ready_at = now + 2
            dslot.free_at = 1 << 60
            self.neighbors[out].admit(dslot)
            slot.vacate(now + pkt.size + 1)
            link.busy_until = now + pkt.size
            pkt.hops += 1
            if deflected:
                pkt.deflections += 1
            pkt.invalidate_route()
            taken |= 1 << out
            moved_any = True
        self.occupied = [s for s in self.occupied if s.pkt is not None]
        if not self.occupied and self.side.pkt is None:
            self.net.sleep_router(self.id)
        if moved_any:
            self.net.last_progress = now

    def extra_occupancy(self) -> int:
        return 1 if self.side.pkt is not None else 0

    # ------------------------------------------------------------------
    def _all_ports(self):
        return (1, 2, 3, 4)

    def _free_out(self, ports, taken: int, now: int, pkt):
        for out in ports:
            if taken & (1 << out):
                continue
            link = self.links_out[out]
            if link is None or link.busy_until > now:
                continue
            for d in self.neighbors[out].slots[link.dst_port]:
                if d.pkt is None and d.free_at <= now:
                    return out
        return None


@register
class MinBD(Scheme):
    name = "minbd"
    routing = "adaptive"
    router_cls = MinBDRouter
    n_vns = 1
    n_vcs = 2    # two pipeline latches per input port (Table II)

    table1 = Table1Row(
        no_detection=True,
        protocol_deadlock_freedom=False,
        network_deadlock_freedom=True,
        full_path_diversity=True,
        high_throughput=False,
        low_power=True,
        scalability=True,
        no_misrouting=False,
    )

    def __init__(self, n_vns: int | None = None, n_vcs: int | None = None):
        super().__init__(n_vns=1, n_vcs=2)

    @property
    def label(self) -> str:
        return "MinBD"
