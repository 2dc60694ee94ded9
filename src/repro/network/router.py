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

Arbitration order.  :meth:`Router.step` grants the switch in exactly this
order under both cycle engines (active-set and naive), or they stop being
bit-identical:

1.  Routers arbitrate independently; within a cycle they are stepped in
    ascending router id (the naive engine steps every router, the
    active one only those with work, in the same order).
2.  Within a router, the occupied VC slots are visited in *rotated list
    order*: the occupied list left-rotated by ``rr % len(occupied)``,
    where ``rr`` is the router's monotonically increasing round-robin
    offset.  ``rr`` advances by exactly one per step in which the
    occupied list is non-empty (an empty router's step is a no-op and
    does **not** advance ``rr``).  List order itself is arrival order:
    packets are appended by :meth:`Router.admit` and survivors are
    re-appended in visit order each cycle.
3.  The first ready head in that order wins each output port for the
    whole cycle (the ``taken`` bitmask); later heads wanting the same
    port lose.
4.  A head tries its candidate moves in route order (the tuple returned
    by :meth:`Router.moves`, i.e. routing-function port order), and
    within a move claims the **lowest-indexed** free downstream VC of
    the move's VC range.
5.  A head whose first move is the local port only ever tries ejection,
    never the network ports.

Skipping blocked heads.  A head that fails arbitration records a proven
lower bound on its earliest possible move in its slot's retry memo
(``retry_at``/``retry_pid``) and is not re-arbitrated before it.  A busy
link or an empty downstream VC gives a time; an occupied downstream VC
gives none, so the head *subscribes* to it and :meth:`VCSlot.vacate
<repro.network.link.VCSlot.vacate>` — the one way a slot is emptied —
lowers the memo to the cycle the credit arrives.  A skipped head is still
visited (it keeps its place in the rotation), so skipping changes no
grant.

Rotating without arbitrating.  While it visits every head, the full pass
of :meth:`Router.step` also records ``_wake``: the earliest cycle at which
any listed head could stop being skipped (the later of its ``ready_at``
and its input port's ``in_busy``, its retry memo, or ``now + 1`` for a
head that failed without a memo or at its ejection port).  A step before
``_wake`` advances ``rr`` and rotates ``occupied`` exactly as the full pass
would (every head skipped, nothing pruned) and visits no slot.  The bound
is only ever *lowered* from outside, never trusted to stay valid:
:meth:`VCSlot.fill <repro.network.link.VCSlot.fill>` and :meth:`admit`
lower it to the new head's ``ready_at``, :meth:`VCSlot.vacate
<repro.network.link.VCSlot.vacate>` zeroes it (an empty slot to prune)
and lowers every waiter's owner to the credit's ``free_at``, and
``Network.topology_changed`` zeroes it with the memos.  So ``ready_at``
is lowered only through ``fill`` (or set before ``admit``), and a change
that *raises* a timer (FastFlow pre-emption, a stalled port) can only
make a step arbitrate early, which changes nothing.
"""

from __future__ import annotations

from bisect import insort

from repro.network.link import INF, VCSlot
from repro.network.routing import vn_vc_ranges
from repro.network.topology import PORT_LOCAL


class Router:
    """Baseline router; schemes subclass and override the small hooks
    (:meth:`move_rule`, :meth:`step` for radically different datapaths)."""

    __slots__ = ("id", "mesh", "cfg", "net", "n_ports", "n_vcs_total",
                 "slots", "all_slots", "occupied", "links_out", "neighbors",
                 "eject_busy_until", "in_busy", "rr", "_wake",
                 "_vn_vcs", "_inj_vcs", "_row", "_mv",
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
        #: before this cycle every listed head is skipped, so a step only
        #: rotates (module docstring, "Rotating without arbitrating")
        self._wake = 0
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
        self.occupied.append(slot)
        if self._wake > slot.ready_at:
            self._wake = slot.ready_at
        # Inlined Network.wake_router — admit rides on every transfer.
        net = self.net
        rid = self.id
        act = net._r_active
        if rid not in act:
            act.add(rid)
            todo = net._stepping
            if todo is not None and rid > todo[net._step_idx]:
                insort(todo, rid, net._step_idx + 1)

    # -- switch allocation ------------------------------------------------
    def step(self, now: int) -> None:
        net = self.net
        occ = self.occupied
        if not occ:
            net.sleep_router(self.id)
            return
        # Visit order: rule 2 of the arbitration order (module docstring).
        rr = self.rr
        start = rr % len(occ)
        self.rr = rr + 1
        if now < self._wake:
            # Every head is skipped and no slot is empty: the full pass
            # would leave exactly this rotated list behind.
            if start:
                self.occupied = occ[start:] + occ[:start]
            return
        if start:
            occ = occ[start:] + occ[:start]
        taken = 0  # bitmask of output ports granted this cycle
        survivors = []
        survive = survivors.append
        in_busy = self.in_busy
        arb = False  # arbitration-only locals bound on first live head
        now1 = now + 1
        wake = INF   # earliest cycle a surviving head stops being skipped
        for slot in occ:
            pkt = slot.pkt
            if pkt is None:
                continue
            t = slot.ready_at
            busy = in_busy[slot.port]
            if t > now or busy > now:
                survive(slot)
                if busy > t:
                    t = busy
                if t < wake:
                    wake = t
                continue
            t = slot.retry_at
            if t > now and slot.retry_pid == pkt.pid:
                # A previous arbitration proved this head cannot move
                # before ``retry_at``: skip the rescan until then.
                survive(slot)
                if t < wake:
                    wake = t
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
                # Ejection sets no memo: queue capacity is not
                # timer-predictable.
                if not self._try_eject(slot, pkt, now):
                    survive(slot)
                    wake = now1
                continue
            # Arbitration.  While trying moves, also track a provable
            # lower bound on the earliest cycle this head could possibly
            # move, for its retry memo:
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
                                # Inlined ``_transfer`` (base datapath
                                # only): the one measured copy of
                                # ``VCSlot.fill`` + ``admit`` + ``vacate``
                                # + ``Link.start_transfer``.
                                dslot.pkt = pkt
                                t = dslot.ready_at = now + hop_latency
                                dslot.free_at = INF
                                nbr.occupied.append(dslot)
                                if nbr._wake > t:
                                    nbr._wake = t
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
                if bound <= now1:
                    wake = now1
                else:
                    if bound < wake:
                        wake = bound
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
        self.occupied = survivors
        self._wake = wake
        if not survivors:
            net.sleep_router(self.id)
        if taken:
            net.last_progress = now

    # -- helpers ----------------------------------------------------------
    def _transfer(self, slot, pkt, link, dslot, now: int,
                  ready_at: int = 0) -> None:
        """One hop of ``pkt`` from ``slot`` over ``link`` into ``dslot``,
        its head ready there at ``ready_at`` (default: after the router
        and link latency).  :meth:`step` inlines it for the base
        datapath."""
        dslot.fill(pkt, ready_at or now + self._hop_latency)
        self.neighbors[link.src_port].admit(dslot)
        size = pkt.size
        slot.vacate(now + size + 1)    # tail drain + credit return
        self.in_busy[slot.port] = now + size
        link.start_transfer(now, size, dslot, slot)
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
        the slots they pick; the result is in occupied-list order."""
        out = []
        for slot in self.occupied:
            pkt = slot.pkt
            if pkt is not None and now - slot.ready_at >= threshold:
                out.append(slot)
        return out

    def extra_occupancy(self) -> int:
        """Packets held outside the regular VC slots (e.g. MinBD's side
        buffer); used by the conservation accounting."""
        return 0
