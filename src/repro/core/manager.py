"""FastPass management: prime-router packet scanning and upgrading.

Implements Sec. III-C2 faithfully:

* for each partition, when its lane is free and enough of the slot remains
  for a worst-case round trip, the prime scans for an eligible packet —
  one whose destination lies in the currently covered partition;
* the scan starts with the *request injection queue* (so a bounced packet
  is always re-selected first, Qn 2 scenario 1), then the other injection
  queues, then the input-port VCs in round-robin order;
* upgrading a packet from an input VC frees the upstream credit as soon as
  the packet departs (Sec. III-C4) — unless a bounced packet is waiting in
  the request injection queue, in which case it takes the freed slot via
  the green path (Qn 2 scenario 2) instead of the credit going upstream.
"""

from __future__ import annotations

from functools import lru_cache

from repro.core.fastflow import FastFlowEngine
from repro.core.schedule import TdmSchedule
from repro.network.packet import MessageClass
from repro.network.topology import Mesh


@lru_cache(maxsize=32)
def _geometry(rows: int, cols: int, slot_cycles: int, slack: int) -> tuple:
    """The TDM schedule and the hops-dependent round-trip table
    (``rt[prime * n + dst]``): pure mesh/config geometry, so every
    manager of one configuration in a process shares one copy."""
    mesh = Mesh(rows, cols)
    n = mesh.n_routers
    return (TdmSchedule(rows, cols, slot_cycles),
            tuple(2 * mesh.hops(p, d) + slack
                  for p in range(n) for d in range(n)))


class FastPassManager:
    """Drives all primes; one instance per network."""

    def __init__(self, net):
        cfg = net.cfg
        self.net = net
        self.mesh = net.mesh
        self.engine = FastFlowEngine(net)

        self.schedule, self._rt = _geometry(
            cfg.rows, cfg.cols, cfg.fastpass_slot(),
            self.engine.RETURN_SLACK)
        P = self.schedule.P
        self.lane_free_at = [0] * P
        self._min_free = 0     # min(lane_free_at): skip fully-busy cycles
        self._scan_rr = [0] * P
        # Per-slot-window cache of the TDM geometry (primes and covered
        # partitions are constant within a slot).
        self._slot_end = 0
        self._primes: list[int] = []
        self._tcols: list[int] = []
        #: last phase seen by the slot-refresh block, for the
        #: 'prime_rotation' observability event
        self._last_phase = -1
        self.upgrades = 0
        self.upgrades_from_injection = 0
        #: SoA-kernel hook: a shared list ``_take_slot`` appends its
        #: ``(router, slot)`` to, so the kernel can re-mirror exactly the
        #: slots an upgrade mutated.  ``None`` — and free — otherwise.
        self.slot_sink = None
        #: injection-queue scan order: request queue first (Qn 2 / Qn 6)
        self._cls_order = [MessageClass.REQUEST] + \
            [m for m in MessageClass if m != MessageClass.REQUEST]
        # Round-trip budget is ``2*hops + 2*size + RETURN_SLACK``; the
        # hops-dependent part lives in the shared ``_rt`` table.
        self._nr = self.mesh.n_routers
        self._cols = self.mesh.cols

    # ------------------------------------------------------------------
    def step(self, now: int) -> None:
        if now < self._min_free:
            return      # every lane is mid-flight: nothing to scan
        net = self.net
        if net.inj_total == 0 and net.buffered == 0:
            return      # no packet anywhere: every prime's scan is empty
        obs = net.obs
        if now >= self._slot_end:
            sched = self.schedule
            info = sched.info(now)
            self._slot_end = info.slot_end
            self._primes = sched.primes(info.phase)
            self._tcols = [sched.target_partition(c, info.slot)
                           for c in range(sched.P)]
            if obs is not None:
                # Lazily attributed: the manager only refreshes the slot
                # cache when it has work, so slot/rotation events mark the
                # boundaries the manager *observed*, not every TDM tick.
                obs.emit("lane_slot", now, slot=info.slot,
                         phase=info.phase, slot_end=info.slot_end)
                if info.phase != self._last_phase:
                    obs.emit("prime_rotation", now, phase=info.phase,
                             primes=tuple(self._primes))
            self._last_phase = info.phase
        slot_end = self._slot_end
        primes = self._primes
        tcols = self._tcols
        lane_free = self.lane_free_at
        for c in range(len(primes)):
            if lane_free[c] > now:
                continue
            prime = primes[c]
            found = self._select(c, prime, tcols[c], now, slot_end)
            if found is None:
                continue
            pkt, remove = found
            remove()
            self.upgrades += 1
            if obs is not None:
                obs.emit("upgraded", now, pkt.pid,
                         lane=c, prime=prime, dst=pkt.dst)
            lane_free[c] = self.engine.launch_forward(pkt, prime, now)
        self._min_free = min(lane_free)

    # ------------------------------------------------------------------
    def _eligible(self, pkt, prime: int, tcol: int, now: int,
                  slot_end: int) -> bool:
        dst = pkt.dst
        if dst == prime or dst % self._cols != tcol:
            return False
        rt = self._rt[prime * self._nr + dst] + 2 * pkt.size
        if now + rt > slot_end:
            return False
        # Lane-schedule degradation: a prime never launches onto a lane
        # whose forward or return path crosses a dead link, or whose
        # lookahead signal is currently dropped (schemes declare the
        # capability via fault_caps.lane_skip).
        faults = self.net.faults
        if faults is not None and not faults.lane_ok(prime, pkt.dst, now,
                                                     pkt.size):
            return False
        return True

    def _select(self, c: int, prime: int, tcol: int, now: int,
                slot_end: int):
        """Find the next FastPass-Packet candidate at ``prime``.

        Returns ``(pkt, remove_callback)`` or None.
        """
        net = self.net
        ni = net.nis[prime]
        router = net.routers[prime]
        # Fast path: nothing queued and nothing buffered at the prime —
        # (every slot holding a packet is in the occupied list, so an
        # empty list means the VC scan below would find nothing).
        if ni.inj_count == 0 and not router.occupied:
            return None
        # 1. Injection buffers, request queue first (Qn 2 / Qn 6).
        for cls in self._cls_order:
            q = ni.inj[cls]
            if q and self._eligible(q[0], prime, tcol, now, slot_end):
                pkt = q[0]
                return pkt, lambda q=q, pkt=pkt: self._take_injection(ni,
                                                                      q, pkt)
        # 2. Input-port VC slots, round-robin.  Only occupied slots can
        # match, so scan those — ordered by their flat index relative to
        # the rr pointer, which reproduces the full flat scan exactly.
        occ = router.occupied
        if occ:
            n = len(router.all_slots)
            start = self._scan_rr[c] % n
            nv = router.n_vcs_total
            cols = self._cols
            cands = []
            for slot in occ:
                pkt = slot.pkt
                if pkt is not None and slot.ready_at <= now:
                    # The cheap structural half of _eligible, hoisted so
                    # ineligible slots never reach the sort (selection is
                    # per-slot, so prefiltering picks the same winner).
                    dst = pkt.dst
                    if dst == prime or dst % cols != tcol:
                        continue
                    cands.append(
                        ((slot.port * nv + slot.vc - start) % n, slot))
            if cands:
                # Offsets are unique per slot, so tuple sort never falls
                # through to comparing slots.
                cands.sort()
                for off, slot in cands:
                    pkt = slot.pkt
                    if self._eligible(pkt, prime, tcol, now, slot_end):
                        self._scan_rr[c] = start + off + 1
                        return pkt, \
                            lambda slot=slot, pkt=pkt: self._take_slot(
                                ni, router, slot, pkt, now)
        return None

    # -- removal callbacks ---------------------------------------------------
    def _take_injection(self, ni, q, pkt) -> None:
        q.remove(pkt)
        ni.inj_count -= 1
        net = self.net
        net.inj_total -= 1
        pkt.net_entry = net.cycle
        pkt.rejected = False
        net.stats.injected += 1
        self.upgrades_from_injection += 1
        obs = net.obs
        if obs is not None:
            # Mirrors stats.injected: an upgrade straight from the
            # injection queues counts as the packet's network entry.
            obs.emit("injected", net.cycle, pkt.pid,
                     src=ni.id, dst=pkt.dst, vn=pkt.vn)

    def _take_slot(self, ni, router, slot, pkt, now: int) -> None:
        router.disturb()           # the upgrade empties (or refills) a slot
        if self.slot_sink is not None:
            self.slot_sink.append((router, slot))
        rejected = self._pending_rejected(ni)
        if rejected is not None:
            # Green path: the bounced packet moves into the freed VC slot;
            # the upstream credit is NOT returned (the slot stays occupied
            # — it is refilled, not vacated, and its waiters keep waiting).
            ni.inj[MessageClass.REQUEST].remove(rejected)
            ni.inj_count -= 1
            self.net.inj_total -= 1
            slot.pkt = rejected
            slot.ready_at = now + 1
            slot.free_at = 1 << 60
            rejected.invalidate_route()
        else:
            # Credit freed as soon as the FastPass-Packet departs.
            slot.vacate(now + pkt.size)
            self.net.buffered -= 1

    def _pending_rejected(self, ni):
        for pkt in ni.inj[MessageClass.REQUEST]:
            if pkt.rejected:
                return pkt
        return None
