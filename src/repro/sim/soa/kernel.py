"""The vectorized structure-of-arrays cycle kernel.

One :class:`SoAKernel` drives a whole :class:`~repro.network.network
.Network` cycle: instead of stepping each active router through the
scalar switch-allocation loop, it *screens* every buffered head packet in
a handful of numpy passes and then *materializes* — runs the exact scalar
arbitration for — only the routers that provably can move a packet this
cycle, and within them touches only the screened candidate heads.  The
scalar object graph stays authoritative throughout: every array write is
a write-through of a mutation the kernel just performed on the objects,
so observers (stats, invariant checks, the FastPass manager, the
watchdog) see exactly the state per-cycle scalar stepping would have
produced, and the result is bit-identical by construction.

The screen is O(slots), not O(ready heads): per-slot route rows (the
move list a head at that slot would probe, pre-gathered from the dense
tables) live in persistent ``(N, 4)`` arrays that are refreshed
incrementally — one batched gather per cycle over the slots whose packet
changed — so the steady-state cycle cost is a dozen full-array boolean
operations regardless of how many heads are ready.

Exactness argument, in brief (DESIGN.md section 15 carries the full
version):

* The screen evaluates each ready head's candidate moves against
  phase-start state (input-port serialization, link serialization, a
  downstream free-VC prefix sum).  During the router phase those
  resources only become *more* constrained — grants stamp timers strictly
  beyond ``now`` and freed slots carry ``free_at > now`` — so a head
  screened infeasible could not have moved in the scalar engine either:
  screen *negatives* are exact.  Screen positives are conservative and
  re-checked exactly during apply (FastFlow reservation windows are
  deliberately left out of the screen for the same reason; the live
  ``in_busy`` re-check catches a same-port head that won earlier in the
  same pass).
* A candidate head's screen-time slot state equals its apply-time state:
  slots are only emptied by their own router's apply (visited once, in
  ascending id order) or by the FastPass manager (which runs before the
  screen and force-materializes the routers it touched), and timers only
  move out-of-band in the pre/event phases (also before the screen).
  Skipping the per-slot ready/busy re-scan for non-candidates is
  therefore exact.
* A skipped router's scalar step would have been arbitration-only: one
  occupied-list rotation and a round-robin bump, per the shared spec in
  :mod:`repro.network.arbiter`.  The kernel defers those rotations and
  replays them in closed form
  (:func:`~repro.network.arbiter.skipped_rotation`) the next time the
  router is materialized or admitted into — the same replay the scalar
  engine's parking machinery uses.
* Heads at their ejection port always materialize their router (queue
  capacity is not screenable), matching the scalar engine's "never park
  on ejection" rule.
* The injection phase is screened the same way: :meth:`~repro.network.ni
  .NetworkInterface.inject_step` is provably mutation-free — and is
  skipped — when the source-queue refill cannot run (queue empty, or its
  head packet's class queue already full) *and* no buffered packet can
  claim a VC (injection port serialising, or no free local-port slot per
  the kernel's mirror).  The only dropped effects are the NI's own
  active-set bookkeeping, which is scheduling, not semantics.
* Mutations that bypass the router phase are absorbed: FastFlow
  reservations mark their links dirty (:attr:`~repro.network.link.Link
  .dirty_sink`) and are re-mirrored before the screen; a FastPass
  upgrade delta re-syncs and force-materializes the prime routers whose
  slots the manager may have emptied or refilled; injections land through
  the hooked :meth:`admit`.

The kernel never parks routers and never writes retry memos — both are
scalar-engine skip optimizations whose skipped work is provably a no-op,
so dropping them cannot change any observable result.
"""

from __future__ import annotations

import numpy as np

from repro.network.arbiter import granted_order, skipped_rotation

INF = 1 << 60


class SoAKernel:
    """Array mirror + fused cycle pass for one network.

    Attach exactly once, immediately after the network is built and
    before the first cycle; the kernel snapshots the full state then and
    keeps its arrays coherent via write-through from that point on.
    """

    def __init__(self, net):
        from repro.sim.soa.tables import build_tables

        self.net = net
        cfg = net.cfg
        self.R = R = len(net.routers)
        self.V = V = cfg.total_vcs
        self.PV = 5 * V
        self.N = N = R * 5 * V
        self.tables = build_tables(net)
        self._esc_stride = net.routers[0]._esc_stride
        self._inj_cap = cfg.inj_queue_pkts

        # Per-slot state, flat-indexed g = (rid*5 + port)*V + vc.
        self.s_has = np.zeros(N, dtype=bool)
        self.s_ready = np.zeros(N, dtype=np.int64)
        self.s_free = np.zeros(N, dtype=np.int64)
        self.s_dst = np.zeros(N, dtype=np.int64)
        self.s_vn = np.zeros(N, dtype=np.int64)
        self.s_esc = np.zeros(N, dtype=np.int64)
        self.s_pkt: list = [None] * N
        # Persistent per-slot route rows (refreshed by _refresh_routes
        # for slots whose packet changed; garbage — but in-bounds — for
        # empty slots, which the ready mask excludes).
        self.h_mo = np.full((N, 4), -1, dtype=np.int64)
        self.h_plo = np.zeros((N, 4), dtype=np.int64)
        self.h_phi = np.zeros((N, 4), dtype=np.int64)
        self.h_lidx = np.zeros((N, 4), dtype=np.int64)
        self.h_valid = np.zeros((N, 4), dtype=bool)
        self.h_ej = np.zeros(N, dtype=bool)
        #: reusable credit prefix-sum buffer (screen scratch)
        self._pref = np.empty(N + 1, dtype=np.int64)
        self._pref[0] = 0
        #: slots whose route rows are stale (packet changed)
        self._route_dirty: list[int] = []
        # Per-(router, port) timer mirrors consulted by the screen.
        self.in_busy = np.zeros((R, 5), dtype=np.int64)
        self.link_busy = np.zeros((R, 5), dtype=np.int64)
        #: FastFlow-window presence per output port — only read by the
        #: apply loop, so a plain nested list beats an array here
        self.fp_any = [[False] * 5 for _ in range(R)]
        #: switch_cycles value after each router's last *realized* step;
        #: the gap to the current count is the deferred-rotation backlog
        self.defer = [net.switch_cycles] * R

        #: links whose timers changed behind the arrays (FastFlow
        #: reservations / pre-emptions); drained before every screen
        self._dirty: list = []
        for link in net.links:
            link.dirty_sink = self._dirty
        #: routers that must materialize this cycle regardless of the
        #: screen (FastPass upgrades mutate their slots out of band)
        self._force: set[int] = set()
        self._mgr = getattr(net, "fastpass", None)
        #: slots mutated by FastPass upgrades, reported by the manager
        self._mgr_sink: list = []
        if self._mgr is not None:
            self._mgr.slot_sink = self._mgr_sink

        # Introspection counters (tests / perf notes, not results).
        self.cycles = 0
        self.materialized = 0
        self.skipped = 0
        self.inject_skips = 0

        for rid, router in enumerate(net.routers):
            base = rid * self.PV
            for slot in router.all_slots:
                slot.gidx = base + slot.port * V + slot.vc
        self.full_sync()

    # -- mirror maintenance ---------------------------------------------
    def _sync_slot(self, rid: int, slot) -> None:
        g = slot.gidx
        pkt = slot.pkt
        self.s_ready[g] = slot.ready_at
        self.s_free[g] = slot.free_at
        if pkt is None:
            self.s_has[g] = False
            self.s_pkt[g] = None
        else:
            self.s_has[g] = True
            self.s_pkt[g] = pkt
            self.s_dst[g] = pkt.dst
            self.s_vn[g] = pkt.vn
            self.s_esc[g] = 1 if (self._esc_stride
                                  and slot.vc == pkt.vn * self._esc_stride) \
                else 0
            self._route_dirty.append(g)

    def _resync_router(self, rid: int) -> None:
        router = self.net.routers[rid]
        for slot in router.all_slots:
            self._sync_slot(rid, slot)
        for port in range(5):
            self.in_busy[rid, port] = router.in_busy[port]

    def full_sync(self) -> None:
        """Re-mirror the entire network (attach time; also a test hook)."""
        for rid in range(self.R):
            self._resync_router(rid)
        for link in self.net.links:
            self.link_busy[link.src, link.src_port] = link.busy_until
            self.fp_any[link.src][link.src_port] = bool(link.fp_windows)

    def _refresh_routes(self) -> None:
        """Batched re-gather of route rows for slots whose packet changed
        since the last screen (one fancy-indexing pass, not per-slot)."""
        t = self.tables
        g = np.array(self._route_dirty, dtype=np.int64)
        del self._route_dirty[:]
        g = g[self.s_has[g]]          # empty slots keep (masked) stale rows
        if not g.size:
            return
        rid = g // self.PV
        dst = self.s_dst[g]
        esc = self.s_esc[g]
        plo = t.mv_plo[rid, dst, esc]
        phi = t.mv_phi[rid, dst, esc]
        if t.vn_spread:
            vb = t.vn_base[self.s_vn[g]][:, None]
            plo = plo + vb
            phi = phi + vb
        self.h_mo[g] = t.mv_out[rid, dst, esc]
        self.h_plo[g] = plo
        self.h_phi[g] = phi
        self.h_lidx[g] = t.mv_lidx[rid, dst, esc]
        self.h_valid[g] = t.mv_valid[rid, dst, esc]
        self.h_ej[g] = t.mv_ej[rid, dst, esc]

    def _drain_dirty(self) -> None:
        dirty = self._dirty
        for link in dirty:
            self.link_busy[link.src, link.src_port] = link.busy_until
            self.fp_any[link.src][link.src_port] = bool(link.fp_windows)
            infl = link.inflight
            if infl is not None:
                # Pre-emption pushed the in-flight transfer's timers back.
                self._sync_slot(link.dst, infl[0])
                if infl[1] is not None:
                    self._sync_slot(link.src, infl[1])
        del dirty[:]

    def _absorb_manager(self) -> None:
        # Slots a FastPass upgrade emptied (or refilled with a bounced
        # packet) without passing through admit, reported by the
        # manager's slot sink.  Re-mirror them; when a slot was emptied,
        # force a materialized step — the scalar engine would prune it
        # (and advance the round-robin over the shrunk list) this very
        # cycle, so the rotation-deferral replay needs the prune realized
        # at the same cycle.
        sink = self._mgr_sink
        for router, slot in sink:
            self._sync_slot(router.id, slot)
            if slot.pkt is None:
                self._force.add(router.id)
        del sink[:]

    # -- admit hook ------------------------------------------------------
    def on_admit(self, router, slot) -> None:
        """Hooked :meth:`Router.admit`: runs for every admit outside the
        kernel's own router phase (NI injections, tests)."""
        net = self.net
        rid = router.id
        S = net.switch_cycles
        occ = router.occupied
        if occ:
            k = S - self.defer[rid]
            if k > 0:
                rot, router.rr = skipped_rotation(router.rr, len(occ), k)
                if rot:
                    router.occupied = occ[rot:] + occ[:rot]
        router.occupied.append(slot)
        self.defer[rid] = S
        act = net._r_active
        if rid not in act:
            act.add(rid)
        self._sync_slot(rid, slot)

    # -- the fused cycle -------------------------------------------------
    def step(self) -> None:
        """One full cycle."""
        now = self.begin_cycle()
        if self.net._r_active or self._force:
            self._router_phase(now)
        self.finish_cycle(now)

    def begin_cycle(self) -> int:
        """The pre-switch phases of one cycle: scheme pre-hook, events,
        out-of-band absorption, traffic, the screened injection pass, and
        the switch-cycle advance.  Returns ``now``."""
        net = self.net
        now = net.cycle
        if net.suspended:
            raise RuntimeError(
                "SoA kernel cannot drive a suspended network "
                "(scheme gating should have fallen back to scalar)")
        pre = net._pre_every
        if pre and (pre == 1 or now % pre == 0):
            net.scheme.pre_cycle(net, now)
            if self._mgr_sink:
                self._absorb_manager()
        net._run_events(now)
        if self._dirty:
            self._drain_dirty()
        if net.traffic is not None:
            net.traffic.generate(net, now)
        if net._inj_active:
            nis = net.nis
            cap = self._inj_cap
            # Per-router "any claimable local-port VC" from the mirrors.
            loc_free = ((~self.s_has & (self.s_free <= now))
                        .reshape(self.R, 5, self.V)[:, 0, :]
                        .any(axis=1).tolist())
            for nid in sorted(net._inj_active):
                ni = nis[nid]
                if now < ni._inj_skip:
                    continue
                if ni.inj_count > 0 and (ni.inj_busy_until > now
                                         or not loc_free[nid]):
                    pend = ni.pending
                    if not pend or len(ni.inj[pend[0].mclass]) >= cap:
                        # Exact skip: the refill loop cannot run (empty
                        # source queue, or its head's class queue already
                        # full — the loop breaks on its first packet) and
                        # no buffered packet can claim a VC, so
                        # inject_step would scan and return.
                        self.inject_skips += 1
                        continue
                ni.inject_step(now)
        net.switch_cycles += 1
        return now

    def finish_cycle(self, now: int) -> None:
        """The post-switch phases: consumption, post-hook, step tail."""
        net = self.net
        if net._con_active:
            nis = net.nis
            for nid in sorted(net._con_active):
                nis[nid].consume_step(now)
        post = net._post_every
        if post and (post == 1 or now % post == 0):
            net.scheme.post_cycle(net, now)
        self.cycles += 1
        net._step_tail(now)

    # -- screen + apply --------------------------------------------------
    def _router_phase(self, now: int) -> None:
        R = self.R
        s_has = self.s_has
        if self._route_dirty:
            self._refresh_routes()

        # Screen: phase-start feasibility of every ready head, evaluated
        # over the full slot axis (cheap full-array ops, no compaction —
        # empty slots carry stale route rows but are masked by ready).
        ready = ((s_has & (self.s_ready <= now)).reshape(R, 5, self.V)
                 & (self.in_busy <= now)[:, :, None]).ravel()
        mat_list = None
        feas = None
        free_l = None
        cnt = None
        if ready.any():
            free = ~s_has & (self.s_free <= now)
            # Downstream credit: any free VC in [lo, hi) via one prefix
            # sum (ranges never cross an input-port block).
            pref = self._pref
            np.cumsum(free, out=pref[1:])
            lfree = (self.link_busy <= now).ravel()
            movable = (self.h_valid & lfree[self.h_lidx]
                       & (pref[self.h_phi] > pref[self.h_plo])).any(axis=1)
            # Ejection heads always materialize (queue capacity is not
            # screenable).
            movable |= self.h_ej
            movable &= ready
            heads = np.flatnonzero(movable)
            if heads.size:
                frid = heads // self.PV
                mat_list = np.unique(frid).tolist()
                cnt = np.bincount(frid, minlength=R).tolist()
                feas = dict(zip(
                    heads.tolist(),
                    zip(self.h_mo[heads].tolist(),
                        self.h_plo[heads].tolist(),
                        self.h_phi[heads].tolist())))
                free_l = free.tolist()
        self._apply_routers(now, mat_list, feas, free_l, cnt)

    def _apply_routers(self, now: int, mat_list, feas, free_l, cnt) -> None:
        """Exact scalar arbitration for the screened candidate routers.

        ``mat_list``/``feas``/``free_l``/``cnt`` come from the screen in
        :meth:`_router_phase`; ``feas`` keys are flat slot indices
        (``slot.gidx``).
        """
        net = self.net
        force = self._force
        if force:
            merged = set(force)
            if mat_list:
                merged.update(mat_list)
            mat_list = sorted(merged)
        if not mat_list:
            return
        self.skipped += len(net._r_active) - len(mat_list)

        # Apply: exact scalar arbitration for the materialized routers,
        # ascending id — the order the active-set engine steps them in —
        # visiting only the screened candidate heads.
        routers = net.routers
        defer = self.defer
        S = net.switch_cycles
        progressed = False
        for rid in mat_list:
            router = routers[rid]
            occ = router.occupied
            # Replay the rotations deferred while this router was skipped
            # (its scalar steps would have been arbitration-only).
            k = S - defer[rid] - 1
            defer[rid] = S
            if k > 0 and occ:
                rot, router.rr = skipped_rotation(router.rr, len(occ), k)
                if rot:
                    occ = occ[rot:] + occ[:rot]
            if not occ:
                router.occupied = occ
                net.sleep_router(rid)
                continue
            occ, router.rr = granted_order(occ, router.rr)
            router.occupied = occ
            self.materialized += 1
            if rid in force:
                # Slow path: the manager may have left emptied slots that
                # the scalar engine would prune this cycle.
                if self._apply_full(router, rid, occ, feas, free_l, now):
                    progressed = True
                continue
            left = cnt[rid] if cnt is not None else 0
            if left == 0:
                continue
            taken = 0
            removed = None
            in_busy = router.in_busy
            for slot in occ:
                row = feas.get(slot.gidx)
                if row is None:
                    continue
                left -= 1
                if in_busy[slot.port] > now:
                    # A same-port head won earlier in this pass.
                    if left:
                        continue
                    break
                done = self._apply_head(router, rid, slot, slot.pkt, row,
                                        taken, free_l, now)
                if done >= 0:
                    taken = done
                    progressed = True
                    if removed is None:
                        removed = [slot]
                    else:
                        removed.append(slot)
                if not left:
                    break
            if removed is not None:
                for slot in removed:
                    occ.remove(slot)
                if not occ:
                    net.sleep_router(rid)
        if force:
            self._force = set()
        if progressed:
            net.last_progress = now

    def _apply_head(self, router, rid: int, slot, pkt, row,
                    taken: int, free_l, now: int) -> int:
        """Try to move one candidate head exactly as ``Router.step`` would.

        Returns the updated ``taken`` bitmask when the head moved (or
        ejected: bitmask unchanged), -1 when it must survive in place.
        """
        mo_r, plo_r, phi_r = row
        if mo_r[0] == 0:
            # Ejection head (dst == rid); queue capacity and the ejection
            # port's serialisation are checked on the live objects.
            if router.eject_busy_until > now \
                    or not router._try_eject(slot, pkt, now):
                return -1
            g = slot.gidx
            self.s_has[g] = False
            self.s_pkt[g] = None
            self.s_free[g] = slot.free_at
            self.in_busy[rid, slot.port] = router.in_busy[slot.port]
            return taken
        size = pkt.size
        links_out = router.links_out
        fp_row = self.fp_any[rid]
        dp_row = self.tables.dport_l[rid]
        for ki in range(4):
            out = mo_r[ki]
            if out < 0:
                break
            bit = 1 << out
            if taken & bit:
                continue
            link = links_out[out]
            if link is None:
                continue
            if link.busy_until > now:
                continue
            if fp_row[out]:
                if link.fp_windows:
                    link.prune(now)
                    if link.fp_conflict(now, now + size):
                        continue
                if not link.fp_windows:
                    fp_row[out] = False
            # First free downstream VC (the route row stores the range as
            # flat slot indices).  The phase-start free list is exact for
            # this scan: each downstream input port has exactly one
            # upstream writer (this link), same-router competition is
            # excluded by ``taken``, and slots vacated this phase carry
            # free_at > now.
            claimed = -1
            for idx in range(plo_r[ki], phi_r[ki]):
                if free_l[idx]:
                    claimed = idx
                    break
            if claimed < 0:
                continue
            dvc = claimed - dp_row[out]
            nbr = router.neighbors[out]
            dslot = nbr.slots[link.dst_port][dvc]
            # -- transfer (mirrors Router.step's inline path) -----------
            rdy = now + router._hop_latency
            dslot.pkt = pkt
            dslot.ready_at = rdy
            dslot.free_at = INF
            nrid = nbr.id
            nocc = nbr.occupied
            defer = self.defer
            S = self.net.switch_cycles
            if nocc:
                kk = S - defer[nrid] - (0 if nrid <= rid else 1)
                if kk > 0:
                    rot, nbr.rr = skipped_rotation(nbr.rr, len(nocc), kk)
                    if rot:
                        nbr.occupied = nocc[rot:] + nocc[:rot]
            nbr.occupied.append(dslot)
            defer[nrid] = S if nrid <= rid else S - 1
            act = self.net._r_active
            if nrid not in act:
                act.add(nrid)
            end = now + size
            slot.vacate(end + 1)
            router.in_busy[slot.port] = end
            link.busy_until = end
            link.inflight = [dslot, slot, end]
            link.util_flits += size
            pkt.hops += 1
            free_l[claimed] = False
            # Array write-through for both endpoints.
            gd = dslot.gidx
            self.s_has[gd] = True
            self.s_pkt[gd] = pkt
            self.s_ready[gd] = rdy
            self.s_free[gd] = INF
            self.s_dst[gd] = pkt.dst
            self.s_vn[gd] = pkt.vn
            self.s_esc[gd] = 1 if (self._esc_stride and
                                   dvc == pkt.vn * self._esc_stride) else 0
            self._route_dirty.append(gd)
            g = slot.gidx
            self.s_has[g] = False
            self.s_pkt[g] = None
            self.s_free[g] = end + 1
            self.in_busy[rid, slot.port] = end
            self.link_busy[rid, out] = end
            return taken | bit
        return -1

    def _apply_full(self, router, rid: int, occ, feas, free_l,
                    now: int) -> bool:
        """Full scalar-shaped pass for force-materialized routers: prunes
        emptied slots (FastPass upgrades) exactly like ``Router.step``."""
        net = self.net
        taken = 0
        progressed = False
        survivors = []
        survive = survivors.append
        in_busy = router.in_busy
        for slot in occ:
            pkt = slot.pkt
            if pkt is None:
                continue
            if slot.ready_at > now:
                survive(slot)
                continue
            if in_busy[slot.port] > now:
                survive(slot)
                continue
            row = feas.get(slot.gidx) if feas is not None else None
            if row is None:
                survive(slot)
                continue
            done = self._apply_head(router, rid, slot, pkt, row,
                                    taken, free_l, now)
            if done < 0:
                survive(slot)
            else:
                taken = done
                progressed = True
        router.occupied = survivors
        if not survivors:
            net.sleep_router(rid)
        return progressed
