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
       — trivially true structurally);
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
    7. parking: a parked router still holds packets and its wake cycle
       is in the future — a violation means some code path mutated a
       parked router's slots without calling ``disturb()`` first;
    8. skipped heads: every head that a retry memo or a park is skipping
       this cycle is re-arbitrated read-only and must have no legal move
       — a violation means a wakeup was lost (a slot emptied without
       :meth:`~repro.network.link.VCSlot.vacate`, a timer lowered behind
       the memo);
    9. credit subscriptions: every occupied candidate VC that a
       memo-skipped head looked at (behind a link that does not itself
       cover the memo) lists that head among its ``waiters``.

    Not checked here: that ejection-queue reservations refer to live
    packets (ids alone cannot show it; the conservation property tests
    do).
    """
    now = net.cycle
    seen: dict[int, tuple] = {}
    buffered_scan = 0
    for router in net.routers:
        listed = {id(s) for s in router.occupied}
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
        if router._parked_sw >= 0:
            _check_parked(net, router, now)
        _check_skipped_heads(net, router, now)
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


def _check_parked(net, router, now: int) -> None:
    """A parked router's guard state must be provably safe to sleep on."""
    if not router.occupied:
        raise InvariantViolation(
            f"router {router.id} is parked but holds no packets")
    # ``now`` may be the *next* cycle when the audit runs between steps
    # (the cycle counter advances in the step tail), so a wake equal to
    # ``now`` is legal — that cycle's step will unpark.  Strictly past is
    # not: the router-phase step would already have cleared it.
    wake = router._wake_at
    if not net.suspended and wake < now:
        raise InvariantViolation(
            f"router {router.id} parked past its wake cycle "
            f"({wake} < {now})")
    for slot in router.occupied:
        # A head's own timers cannot be compared against the wake cycle:
        # the parked bound may come from downstream evidence (credits,
        # busy links) that is larger than the head's own timers and has
        # moved on since the parking scan.  The reachable hazard — a
        # vacate that skipped disturb() — still shows up as an empty slot.
        if slot.pkt is None:
            raise InvariantViolation(
                f"router {router.id} parked on an empty slot (port "
                f"{slot.port} vc {slot.vc}): a mutation missed disturb()")


def _check_skipped_heads(net, router, now: int) -> None:
    """Re-arbitrate, read-only, every head this cycle's step skips (or
    skipped — the audit may run in the cycle's tail or between cycles;
    the argument holds for both, since nothing that runs before a router
    phase makes a head movable in that same cycle: slots vacated at cycle
    ``c`` carry ``free_at > c``)."""
    parked = router._parked_sw >= 0 and router._wake_at > now
    for slot in router.occupied:
        pkt = slot.pkt
        if pkt is None:
            continue
        memo = slot.retry_at if slot.retry_pid == pkt.pid else 0
        if not parked and memo <= now:
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
                    f"{where}: skipped until "
                    f"{max(memo, router._wake_at)} but can eject now")
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
                            f"{where}: skipped until "
                            f"{max(memo, router._wake_at)} but port {out} "
                            f"vc {vc} is claimable now — a wakeup was lost")
                elif (memo > now and link.busy_until < memo
                        and slot not in (dslot.waiters or ())):
                    raise InvariantViolation(
                        f"{where}: retry memo {memo} depends on occupied "
                        f"port {out} vc {vc}, which does not list it as "
                        f"a waiter")


def _exempt(router, slot) -> bool:
    """Slots legitimately outside the occupied list (MinBD side buffer)."""
    side = getattr(router, "side", None)
    return side is slot
