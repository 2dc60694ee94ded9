"""Runtime invariant checking.

`check_invariants` audits a network's internal consistency; tests (and
paranoid users) can call it between cycles to catch structural corruption
at its source instead of as a downstream miscount.  Violations raise
:class:`InvariantViolation` with a precise description.
"""

from __future__ import annotations

from repro.network.topology import PORT_LOCAL


class InvariantViolation(AssertionError):
    """The network's internal bookkeeping is inconsistent."""


def check_invariants(net) -> None:
    """Audit the complete network state.

    Checked invariants:

    1. every occupied VC slot is listed in its router's ``occupied`` list
       (the MinBD side buffer excepted; a slot holds at most one packet
       — trivially true structurally), and no slot is listed there twice;
    2. no packet object sits in two VC slots at once, nor in a VC slot
       and an NI injection queue;
    3. a buffered packet has not already been ejected;
    4. the in-transit counter is non-negative;
    5. the incremental occupancy counters (``buffered``, ``inj_total``,
       ``pending_total``, ``limbo`` and per-NI ``inj_count``) agree with a
       full rescan of the slots and queues;
    6. active-set coverage: every component that holds work is registered
       in the corresponding active set (a router/NI missing from its set
       would silently never be stepped by the active engine) — for the
       consume phase: an NI with a non-empty ejection queue, or whose
       processor model has a service entry due, is in ``_con_active``;
    7. skipped heads: every head that a retry memo is skipping this
       cycle is re-arbitrated read-only and must have no legal move — a
       violation means a wakeup was lost (a slot emptied without
       :meth:`~repro.network.link.VCSlot.vacate`, a timer lowered behind
       the memo);
    8. credit subscriptions: every occupied candidate VC that a
       memo-skipped head looked at (behind a link that does not itself
       cover the memo) lists that head among its ``waiters``;
    9. router wake bounds: a router that will only rotate on its next
       step (``Router._wake`` past it) lists no empty slot, and each of
       its heads stays skipped by its own ``ready_at``, ``in_busy`` or
       retry-memo test until at least ``_wake``;
    10. NI credit waits: an inject-active NI whose ``retry_at`` lies in
       the future can refill nothing, and unless its injection port is
       what it waits for, no candidate local VC is claimable and every
       occupied one lists it among its ``waiters``.

    Not checked here: that ejection-queue reservations refer to live
    packets (ids alone cannot show it; the conservation property tests
    do).
    """
    now = net.cycle
    seen: dict[int, tuple] = {}
    buffered_scan = 0
    for router in net.routers:
        listed = {id(s) for s in router.occupied}
        if len(listed) != len(router.occupied):
            raise InvariantViolation(
                f"router {router.id}: a slot is listed twice in its "
                f"occupied list")
        for port, slots in enumerate(router.slots):
            for slot in slots:
                pkt = slot.pkt
                if pkt is None:
                    continue
                buffered_scan += 1
                if id(slot) not in listed and not _exempt(router, slot):
                    raise InvariantViolation(
                        f"router {router.id} port {port} vc {slot.vc}: "
                        f"occupied slot missing from occupied list")
                if pkt.pid in seen:
                    other = seen[pkt.pid]
                    raise InvariantViolation(
                        f"packet {pkt.pid} in two slots: "
                        f"router {router.id} port {port} and {other}")
                seen[pkt.pid] = (router.id, port, slot.vc)
                if pkt.eject_cycle >= 0:
                    raise InvariantViolation(
                        f"packet {pkt.pid} is buffered at router "
                        f"{router.id} but already ejected at "
                        f"{pkt.eject_cycle}")
        buffered_scan += router.extra_occupancy()
        if ((router.occupied or router.extra_occupancy())
                and router.id not in net._r_active):
            raise InvariantViolation(
                f"router {router.id} holds work but is not in the "
                f"router active set")
        _check_skipped_heads(net, router, now)
        _check_wake_bound(router, now)
    if buffered_scan != net.buffered:
        raise InvariantViolation(
            f"buffered counter drift: counter={net.buffered} "
            f"rescan={buffered_scan}")
    inj_scan = pending_scan = limbo_scan = 0
    for ni in net.nis:
        # (ejection-queue reservation liveness is covered by the
        # conservation property tests; ids alone cannot be validated here)
        ni_inj = 0
        for cls, q in enumerate(ni.inj):
            ni_inj += len(q)
            for pkt in q:
                if pkt.pid in seen:
                    raise InvariantViolation(
                        f"packet {pkt.pid} both buffered (at "
                        f"{seen[pkt.pid]}) and queued at NI {ni.id}")
        if ni_inj != ni.inj_count:
            raise InvariantViolation(
                f"NI {ni.id} inj_count drift: counter={ni.inj_count} "
                f"rescan={ni_inj}")
        inj_scan += ni_inj
        pending_scan += len(ni.pending)
        limbo_scan += ni.dropped - ni.regenerated
        if (ni.pending or ni.inj_count) and ni.id not in net._inj_active:
            raise InvariantViolation(
                f"NI {ni.id} has injection work but is not in the "
                f"inject active set")
        if ni.retry_at > now and ni.id in net._inj_active:
            _check_credit_wait(ni, now)
        if ni.id not in net._con_active:
            if any(len(q) for q in ni.ej):
                raise InvariantViolation(
                    f"NI {ni.id} has packets to consume but is not in the "
                    f"consume active set")
            # A processor model's own timer (NodeModel.service): due
            # means due at a cycle whose events — the wake — have run.
            service = getattr(ni.consumer, "service", None)
            if service and service[0][0] <= net._events_done:
                raise InvariantViolation(
                    f"NI {ni.id} has a service entry due at "
                    f"{service[0][0]} but is not in the consume active set")
    if inj_scan != net.inj_total:
        raise InvariantViolation(
            f"inj_total counter drift: counter={net.inj_total} "
            f"rescan={inj_scan}")
    if pending_scan != net.pending_total:
        raise InvariantViolation(
            f"pending_total counter drift: counter={net.pending_total} "
            f"rescan={pending_scan}")
    if limbo_scan != net.limbo:
        raise InvariantViolation(
            f"limbo counter drift: counter={net.limbo} "
            f"rescan={limbo_scan} (dropped-regenerated)")
    if net.in_transit < 0:
        raise InvariantViolation(
            f"in_transit underflow: {net.in_transit}")


def _check_skipped_heads(net, router, now: int) -> None:
    """Re-arbitrate, read-only, every head this cycle's step skips (or
    skipped — the audit may run in the cycle's tail or between cycles;
    the argument holds for both, since nothing that runs before a router
    phase makes a head movable in that same cycle: slots vacated at cycle
    ``c`` carry ``free_at > c``)."""
    for slot in router.occupied:
        pkt = slot.pkt
        if pkt is None:
            continue
        memo = slot.retry_at if slot.retry_pid == pkt.pid else 0
        if memo <= now:
            continue
        if slot.ready_at > now or router.in_busy[slot.port] > now:
            continue
        where = (f"router {router.id} port {slot.port} vc {slot.vc} "
                 f"(packet {pkt.pid})")
        mv = router.moves(pkt, slot)
        if mv and mv[0][0] == PORT_LOCAL:    # at its ejection port
            if router.eject_busy_until <= now \
                    and router._ni.ej[pkt.mclass].can_accept(pkt):
                raise InvariantViolation(
                    f"{where}: skipped until {memo} but can eject now")
            continue
        for out, vcs in mv:
            link = router.links_out[out]
            if link is None:
                continue
            link_free = (link.busy_until <= now
                         and not link.fp_conflict(now, now + pkt.size))
            for vc in vcs:
                dslot = router.neighbors[out].slots[link.dst_port][vc]
                if dslot.pkt is None:
                    if link_free and dslot.free_at <= now:
                        raise InvariantViolation(
                            f"{where}: skipped until {memo} but port "
                            f"{out} vc {vc} is claimable now — a wakeup "
                            f"was lost")
                elif (link.busy_until < memo
                        and slot not in (dslot.waiters or ())):
                    raise InvariantViolation(
                        f"{where}: retry memo {memo} depends on occupied "
                        f"port {out} vc {vc}, which does not list it as "
                        f"a waiter")


def _check_wake_bound(router, now: int) -> None:
    """A router whose next step only rotates (the audit may run in the
    cycle's tail, where that step is at ``now + 1``, or between cycles)
    must have every head skipped on every cycle before its ``_wake``."""
    wake = router._wake
    if wake <= now + 1:
        return
    for slot in router.occupied:
        pkt = slot.pkt
        where = f"router {router.id} port {slot.port} vc {slot.vc}"
        if pkt is None:
            raise InvariantViolation(
                f"{where}: empty slot listed while the router only "
                f"rotates until {wake}")
        until = max(slot.ready_at, router.in_busy[slot.port])
        if slot.retry_pid == pkt.pid and slot.retry_at > until:
            until = slot.retry_at
        if until < wake:
            raise InvariantViolation(
                f"{where} (packet {pkt.pid}): skipped only until {until} "
                f"but the router only rotates until {wake} — a wake "
                f"bound was not lowered")


def _check_credit_wait(ni, now: int) -> None:
    """An NI the cycle loop skips until ``retry_at`` can do nothing
    before it."""
    where = f"NI {ni.id}: skipped until {ni.retry_at}"
    pending = ni.pending
    if pending and len(ni.inj[pending[0].mclass]) < ni.cfg.inj_queue_pkts:
        raise InvariantViolation(
            f"{where} but its source queue can refill")
    if ni.inj_busy_until >= ni.retry_at:
        return      # it waits for its injection port
    router = ni.router
    for q in ni.inj:
        if not q:
            continue
        for vc in router._inj_vcs[q[0].vn]:
            slot = router.slots[0][vc]
            if slot.pkt is None:
                if slot.free_at <= now:
                    raise InvariantViolation(
                        f"{where} but local vc {vc} is claimable now — "
                        f"a wakeup was lost")
            elif ni not in (slot.waiters or ()):
                raise InvariantViolation(
                    f"{where}: it waits on occupied local vc {vc}, "
                    f"which does not list it as a waiter")


def _exempt(router, slot) -> bool:
    """Slots legitimately outside the occupied list (MinBD side buffer)."""
    side = getattr(router, "side", None)
    return side is slot
