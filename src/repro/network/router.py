"""The baseline credit-based virtual-cut-through router.

Pipeline model (Table II): 1-cycle router + 1-cycle link.  Each input port
has ``n_vns * n_vcs`` VC slots, each holding a single packet (VCT).  Switch
allocation is a single rotating pass over the occupied slots: each ready
head packet claims the first available candidate move (output port free,
no FastFlow reservation conflict, downstream VC credit available).  Output
ports are granted at most once per cycle; serialization keeps a port busy
for ``size`` cycles per packet.

Active-set contract: a router is in the network's active set exactly while
its ``occupied`` list (or a scheme-specific side buffer) is non-empty.
Every code path that hands a router a packet goes through :meth:`admit`
(or wakes the router explicitly); :meth:`step` puts the router back to
sleep when it runs out of work.

Parking: when a step finds every head provably stuck — blocked by its own
timers (``slot.ready_at`` / ``in_busy``), by a busy link, or by downstream
credits (an empty VC frees at ``free_at``; an occupied VC has no time to
offer, so the head *subscribes* to it and :meth:`VCSlot.vacate
<repro.network.link.VCSlot.vacate>` — the one way a slot is emptied —
lowers the head's retry memo and this router's wake cycle to the cycle
the credit arrives) — a lower bound on the earliest useful cycle is known
and the router *parks*: subsequent steps return immediately until that
cycle.  A head behind nothing but occupied VCs waits with no bound at all
until one of them is vacated.  Heads at their ejection port never park
(queue capacity is not timer-predictable).  A skipped step would only
have advanced the round-robin offset and rotated the occupied list, so
the wake path replays the skipped steps in closed form and the observable
state is bit-identical to stepping every cycle.  Any outside agent that
mutates a router's slots (or reads the occupied list order) must call
:meth:`disturb` first; :meth:`admit` and :meth:`blocked_heads` do so
themselves, and the fault injector disturbs every router on topology
changes (reroute install/heal can unblock a head earlier than its parked
bound), which covers every scheme in the tree.
"""

from __future__ import annotations

from bisect import insort

from repro.network.arbiter import granted_order, skipped_rotation
from repro.network.link import VCSlot
from repro.network.routing import vn_vc_ranges
from repro.network.topology import PORT_LOCAL

INF = 1 << 60


class Router:
    """Baseline router; schemes subclass and override the small hooks
    (:meth:`move_rule`, :meth:`step` for radically different datapaths)."""

    __slots__ = ("id", "mesh", "cfg", "net", "n_ports", "n_vcs_total",
                 "slots", "all_slots", "occupied", "links_out", "neighbors",
                 "eject_busy_until", "in_busy", "rr",
                 "_vn_vcs", "_inj_vcs", "_row", "_mv", "_wake_at", "_parked_sw",
                 "_esc_stride", "_hop_latency", "_inline_xfer", "_ni")

    def __init__(self, rid: int, mesh, cfg, net):
        self.id = rid
        self.mesh = mesh
        self.cfg = cfg
        self.net = net
        self.n_ports = 5
        self.n_vcs_total = cfg.total_vcs
        self.slots = [
            [VCSlot(p, v, self) for v in range(self.n_vcs_total)]
            for p in range(self.n_ports)
        ]
        #: flat port-major view of ``slots`` (scan order of the FastPass
        #: prime round-robin); immutable, built once
        self.all_slots = tuple(s for port_slots in self.slots
                               for s in port_slots)
        #: occupied VC slots (lazily pruned each cycle)
        self.occupied: list[VCSlot] = []
        self.links_out = [None] * self.n_ports     # Link per output port
        self.neighbors = [None] * self.n_ports     # Router per output port
        self.eject_busy_until = 0
        # A crossbar reads one flit per input port per cycle: after a grant
        # the input port streams the packet for ``size`` cycles.  (FastFlow
        # traversals use the dedicated D0/M2 bypass path of Fig. 6 and are
        # exempt.)
        self.in_busy = [0] * self.n_ports
        self.rr = rid  # rotating arbitration offset
        #: this router's class row and the move list of ``net.routes``,
        #: held for the inlined probe in :meth:`step`.  The escape bit is
        #: always 0 for the base router; EscapeVC sets ``_esc_stride`` so
        #: the probe can pick the escape-subnetwork move set without a
        #: dynamic dispatch.
        self._row = net.routes.rows[rid]
        self._mv = net.routes.moves
        self._esc_stride = 0
        self._hop_latency = cfg.router_latency + cfg.link_latency
        #: True when this class inherits the base datapath: ``step`` may
        #: then run the transfer inline instead of dispatching (TFC etc.
        #: override :meth:`_transfer` and keep the dynamic call)
        self._inline_xfer = type(self)._transfer is Router._transfer
        self._ni = None        # the co-located NI, set by Network wiring
        # Parking state: while ``_parked_sw >= 0`` the router sleeps until
        # cycle ``_wake_at``; ``_parked_sw`` remembers ``net.switch_cycles``
        # at park time so the skipped steps can be replayed in closed form.
        self._wake_at = 0
        self._parked_sw = -1
        self._vn_vcs = vn_vc_ranges(cfg.n_vns, cfg.n_vcs)
        #: injection VC preference order per VN (EscapeVC reorders it);
        #: the NI indexes this directly on the injection hot path
        self._inj_vcs = self._vn_vcs

    # -- hooks ----------------------------------------------------------
    @staticmethod
    def move_rule(routing_fn, mesh, rid: int, dst: int, vn: int,
                  escape: int, n_vns: int, n_vcs: int) -> tuple:
        """This router class's candidate moves for a VN-``vn`` packet at
        ``rid`` headed to ``dst``: every port of ``routing_fn`` onto the
        VN's VCs.  Must be a pure function of its arguments that reads
        the position only through ``routing_fn`` —
        :func:`repro.network.routing.route_table` evaluates it once per
        direction class and serves every router from the result."""
        vcs = vn_vc_ranges(n_vns, n_vcs)[vn]
        return tuple((o, vcs) for o in routing_fn(mesh, rid, dst))

    def moves(self, pkt, slot=None) -> tuple:
        """Candidate moves for ``pkt`` at this router, as a tuple of
        ``(out_port, downstream_vc_indices)`` pairs, read from the
        network's route table — except in degraded (reroute) mode, where
        paths change as faults come and go and every lookup goes to the
        live reroute table."""
        if self.net.reroute is not None:
            outs = self.net.reroute.ports(self.id, pkt.dst)
            vcs = self._vn_vcs[pkt.vn]
            return tuple((o, vcs) for o in outs)
        return self.net.routes.lookup(self.id, pkt.dst, pkt.vn)

    def vn_vcs(self, vn: int) -> tuple:
        return self._inj_vcs[vn]

    def admit(self, slot) -> None:
        """List ``slot`` (which just received a packet) as occupied and
        wake this router.  The single entry point for handing a router a
        packet — transfers, injections, and scheme rotations all land
        here, so the active set can never miss an arrival."""
        if self._parked_sw >= 0:
            self.disturb()
        self.occupied.append(slot)
        # Inlined Network.wake_router — admit rides on every transfer.
        net = self.net
        rid = self.id
        act = net._r_active
        if rid not in act:
            act.add(rid)
            todo = net._stepping
            if todo is not None and rid > todo[net._step_idx]:
                insort(todo, rid, net._step_idx + 1)

    # -- parking ----------------------------------------------------------
    def disturb(self) -> None:
        """Cancel a park because external state is about to change (or the
        occupied-list order is about to be observed).  Replays the steps
        the guard skipped so the state is exactly what per-cycle stepping
        would have produced."""
        if self._parked_sw < 0:
            return
        net = self.net
        k = net.switch_cycles - self._parked_sw
        todo = net._stepping
        if todo is not None:
            if todo[net._step_idx] < self.id:
                k -= 1     # this cycle's own (guarded) step is still pending
        elif 0 <= net._step_pos < self.id:
            k -= 1         # same, in the naive sweep
        self._unpark(k)

    def _unpark(self, skipped: int) -> None:
        """Apply the net effect of ``skipped`` guarded steps (the shared
        arbitration spec's closed-form replay — see
        :mod:`repro.network.arbiter`)."""
        self._wake_at = 0
        self._parked_sw = -1
        if skipped <= 0:
            return
        occ = self.occupied
        rot, self.rr = skipped_rotation(self.rr, len(occ), skipped)
        if rot:
            self.occupied = occ[rot:] + occ[:rot]

    # -- switch allocation ------------------------------------------------
    def step(self, now: int) -> None:
        if now < self._wake_at:
            return                      # parked: nothing can move yet
        net = self.net
        if self._parked_sw >= 0:
            self._unpark(net.switch_cycles - self._parked_sw - 1)
        occ = self.occupied
        if not occ:
            net.sleep_router(self.id)
            return
        # Visit order per the shared arbitration spec (repro.network
        # .arbiter); the SoA kernel calls the same function.
        occ, self.rr = granted_order(occ, self.rr)
        taken = 0  # bitmask of output ports granted this cycle
        survivors = []
        survive = survivors.append
        in_busy = self.in_busy
        arb = False  # arbitration-only locals bound on first live head
        parkable = True
        wake = INF
        now1 = now + 1
        for slot in occ:
            pkt = slot.pkt
            if pkt is None:
                continue
            ready = slot.ready_at
            if ready > now:
                survive(slot)
                if parkable:
                    busy = in_busy[slot.port]
                    if busy > ready:
                        ready = busy
                    if ready < wake:
                        wake = ready
                continue
            busy = in_busy[slot.port]
            if busy > now:
                survive(slot)
                if parkable and busy < wake:
                    wake = busy
                continue
            retry = slot.retry_at
            if retry > now and slot.retry_pid == pkt.pid:
                # A previous arbitration proved this head cannot move
                # before ``retry``: skip the rescan until then.
                survive(slot)
                if parkable and retry < wake:
                    wake = retry
                continue
            if not arb:
                arb = True
                links_out = self.links_out
                neighbors = self.neighbors
                row = self._row
                tbl = self._mv
                reroute = net.reroute
                esc_stride = self._esc_stride
                inline_xfer = self._inline_xfer
                hop_latency = self._hop_latency
            # Inlined ``RouteTable.lookup`` — the one copy of the table
            # layout outside repro.network.routing; moves() handles
            # degraded (reroute) mode.
            if reroute is None:
                key = row[pkt.dst] + pkt.vn * 2
                if esc_stride and slot.vc == pkt.vn * esc_stride:
                    key += 1
                mv = tbl[key]
            else:
                mv = self.moves(pkt, slot)
            if mv and mv[0][0] == PORT_LOCAL:
                eb = self.eject_busy_until
                if eb > now:
                    # The ejection port itself is serialising: a pure
                    # (raise-only) timer, so the head may park on it.
                    survive(slot)
                    if parkable and eb < wake:
                        wake = eb
                    continue
                if self._try_eject(slot, pkt, now):
                    continue
                # Queue capacity is not timer-predictable: no park.
                parkable = False
                survive(slot)
                continue
            # Arbitration.  While trying moves, also track a provable
            # lower bound on the earliest cycle this head could possibly
            # move, so a fully blocked router can park even mid-traffic:
            #   * a port granted this cycle may be free again next cycle;
            #   * a busy link frees at ``busy_until``;
            #   * an empty downstream VC becomes claimable at ``free_at``;
            #   * an occupied downstream VC bounds nothing: the head
            #     subscribes to its credit below.
            moved = False
            bound = INF
            for out, vcs in mv:
                bit = 1 << out
                link = links_out[out]
                if taken & bit:
                    # Granted earlier this cycle: the winning transfer
                    # stamped the link busy until its tail passes, and the
                    # link serialises — that stamp is this head's bound.
                    lb = link.busy_until
                    if lb <= now:
                        lb = now1   # subclass transfer without a stamp
                    if lb < bound:
                        bound = lb
                    continue
                if link is None:
                    continue
                lb = link.busy_until
                if lb > now:
                    if lb < bound:
                        bound = lb
                    continue
                if link.fp_windows:
                    link.prune(now)
                    if link.fp_conflict(now, now + pkt.size):
                        bound = now1   # reservations churn: no prediction
                        continue
                nbr = neighbors[out]
                dslots = nbr.slots[link.dst_port]
                for vc in vcs:
                    dslot = dslots[vc]
                    if dslot.pkt is None:
                        fa = dslot.free_at
                        if fa <= now:
                            if inline_xfer:
                                # Inlined ``_transfer`` + downstream
                                # ``admit`` (base datapath only).
                                dslot.pkt = pkt
                                dslot.ready_at = now + hop_latency
                                dslot.free_at = INF
                                if nbr._parked_sw >= 0:
                                    nbr.disturb()
                                nbr.occupied.append(dslot)
                                rid = nbr.id
                                act = net._r_active
                                if rid not in act:
                                    act.add(rid)
                                    todo = net._stepping
                                    if todo is not None \
                                            and rid > todo[net._step_idx]:
                                        insort(todo, rid,
                                               net._step_idx + 1)
                                size = pkt.size
                                end = now + size
                                slot.pkt = None    # inline VCSlot.vacate
                                slot.free_at = end + 1
                                if slot.waiters is not None:
                                    slot.vacate(end + 1)
                                in_busy[slot.port] = end
                                link.busy_until = end
                                link.inflight = [dslot, slot, end]
                                link.util_flits += size
                                pkt.hops += 1
                            else:
                                self._transfer(slot, pkt, link, dslot, now)
                            taken |= bit
                            moved = True
                            break
                        if fa < bound:
                            bound = fa
                if moved:
                    break
            if not moved:
                survive(slot)
                if bound > now1:
                    slot.retry_at = bound
                    slot.retry_pid = pkt.pid
                    # Credit subscription: the memo skips this head past
                    # ``now + 1``, so every occupied VC the scan just
                    # looked at (behind a free link) must call back when
                    # it is vacated.  Once per (head slot, VC): a waiter
                    # stays listed until that VC's next vacate.
                    for out, vcs in mv:
                        link = links_out[out]
                        if link is None or link.busy_until > now:
                            continue
                        dslots = neighbors[out].slots[link.dst_port]
                        for vc in vcs:
                            dslot = dslots[vc]
                            if dslot.pkt is not None:
                                waiters = dslot.waiters
                                if waiters is None:
                                    dslot.waiters = [slot]
                                elif slot not in waiters:
                                    waiters.append(slot)
                if parkable and bound < wake:
                    wake = bound
        self.occupied = survivors
        if not survivors:
            net.sleep_router(self.id)
        elif parkable and wake > now1:
            # Every surviving head is provably stuck until at least
            # ``wake``: sleep until then.
            self._wake_at = wake
            self._parked_sw = net.switch_cycles
        if taken:
            net.last_progress = now

    # -- helpers ----------------------------------------------------------
    def _claim_downstream(self, link, vcs, now: int):
        dslots = self.neighbors[link.src_port].slots[link.dst_port]
        for vc in vcs:
            s = dslots[vc]
            if s.pkt is None and s.free_at <= now:
                return s
        return None

    def _transfer(self, slot, pkt, link, dslot, now: int) -> None:
        dslot.pkt = pkt
        dslot.ready_at = now + self._hop_latency
        dslot.free_at = INF
        # Inlined ``admit`` on the downstream router (one call per hop).
        nbr = self.neighbors[link.src_port]
        if nbr._parked_sw >= 0:
            nbr.disturb()
        nbr.occupied.append(dslot)
        net = self.net
        rid = nbr.id
        act = net._r_active
        if rid not in act:
            act.add(rid)
            todo = net._stepping
            if todo is not None and rid > todo[net._step_idx]:
                insort(todo, rid, net._step_idx + 1)
        size = pkt.size
        slot.vacate(now + size + 1)    # tail drain + credit return
        self.in_busy[slot.port] = now + size
        # Inlined Link.start_transfer (one call per hop adds up).
        link.busy_until = now + size
        link.inflight = [dslot, slot, now + size]
        link.util_flits += size
        pkt.hops += 1

    def _try_eject(self, slot, pkt, now: int) -> bool:
        if self.eject_busy_until > now:
            return False
        # Inlined EjectionQueue.can_accept + NI.eject: ejection rides on
        # every delivered packet, so the queue operations are open-coded;
        # the 'ejected' event below keeps observability in sync.
        q = self._ni.ej[pkt.mclass]
        res = q.reservations
        if pkt.pid in res:
            if len(q.q) >= q.cap:
                return False
            res.discard(pkt.pid)
        elif len(q.q) + len(res) >= q.cap:
            return False
        size = pkt.size
        self.eject_busy_until = now + size
        slot.vacate(now + size + 1)
        self.in_busy[slot.port] = now + size
        net = self.net
        net.buffered -= 1
        pkt.eject_cycle = now + 1
        q.q.append(pkt)
        net._con_active.add(self.id)
        net.stats.record_ejected(pkt)
        net.last_progress = now
        obs = net.obs
        if obs is not None:
            obs.emit("ejected", now + 1, pkt.pid,
                     dst=self.id, fastpass=pkt.was_fastpass,
                     measured=pkt.measured,
                     latency=now + 1 - pkt.gen_cycle)
        return True

    # -- introspection (watchdog, SPIN, SWAP) ------------------------------
    def blocked_heads(self, now: int, threshold: int):
        """Occupied slots whose head has been ready but unable to move for
        at least ``threshold`` cycles.

        Callers (SPIN/SWAP/SEEC/Pitstop/DRAIN selection) go on to mutate
        the slots they pick and are sensitive to occupied-list order, so
        the scan cancels any park first."""
        if self._parked_sw >= 0:
            self.disturb()
        out = []
        for slot in self.occupied:
            pkt = slot.pkt
            if pkt is not None and now - slot.ready_at >= threshold:
                out.append(slot)
        return out

    def free_vc_count(self, port: int, now: int) -> int:
        return sum(1 for s in self.slots[port] if s.is_free(now))

    def extra_occupancy(self) -> int:
        """Packets held outside the regular VC slots (e.g. MinBD's side
        buffer); used by the conservation accounting."""
        return 0
