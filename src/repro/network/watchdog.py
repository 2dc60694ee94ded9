"""Deadlock watchdog and wait-for-graph analysis.

The watchdog declares a run deadlocked when no packet has made forward
progress for ``watchdog_cycles`` while packets remain in flight.  The
wait-for graph analysis (used by the SPIN baseline's detection/recovery and
by tests) finds a cycle of head packets each blocked on a VC held by the
next.
"""

from __future__ import annotations


def find_blocked_cycle(net, now: int, min_blocked: int = 1):
    """Find a cycle in the wait-for graph of blocked head packets.

    Nodes are occupied VC slots whose head packet has been unable to move
    for at least ``min_blocked`` cycles; an edge goes from a slot to every
    occupied slot in a (port, VC) it is waiting on.  Returns the cycle as a
    list of (router_id, slot) pairs, or None.
    """
    # Build adjacency: slot -> blocking slots.  Only active routers can
    # hold packets, so the scan skips the idle mesh.
    nodes = {}
    for router in net.active_routers():
        for slot in router.occupied:
            pkt = slot.pkt
            if pkt is None or now - slot.ready_at < min_blocked:
                continue
            mv = router.moves(pkt, slot)
            if mv and mv[0][0] == 0:      # waiting on ejection, not a VC
                continue
            blockers = []
            for out, vcs in mv:
                nbr = router.neighbors[out]
                if nbr is None:
                    continue
                link = router.links_out[out]
                dslots = nbr.slots[link.dst_port]
                for vc in vcs:
                    s = dslots[vc]
                    if s.pkt is not None:
                        blockers.append((nbr.id, s))
            if blockers:
                nodes[(router.id, id(slot))] = ((router.id, slot), blockers)

    # Iterative DFS for a cycle.
    WHITE, GREY, BLACK = 0, 1, 2
    color = {k: WHITE for k in nodes}
    for root in nodes:
        if color[root] != WHITE:
            continue
        stack = [(root, iter(nodes[root][1]))]
        color[root] = GREY
        path = [root]
        while stack:
            key, it = stack[-1]
            advanced = False
            for (rid, s) in it:
                nkey = (rid, id(s))
                if nkey not in nodes:
                    continue
                if color[nkey] == GREY:
                    # Found a cycle: slice the current path.
                    idx = path.index(nkey)
                    return [nodes[k][0] for k in path[idx:]]
                if color[nkey] == WHITE:
                    color[nkey] = GREY
                    stack.append((nkey, iter(nodes[nkey][1])))
                    path.append(nkey)
                    advanced = True
                    break
            if not advanced:
                color[key] = BLACK
                stack.pop()
                path.pop()
    return None


class WatchdogReport:
    """Structured outcome of one :meth:`Watchdog.check`.

    Truthy exactly when the watchdog considers the network deadlocked, so
    existing ``if wd.check(now):`` call sites keep working.  ``first`` is
    True only on the firing transition (armed -> deadlocked), which is
    when the post-mortem hook runs.
    """

    __slots__ = ("fired", "now", "stalled_for", "in_flight", "first")

    def __init__(self, fired: bool, now: int = -1, stalled_for: int = 0,
                 in_flight: int = 0, first: bool = False):
        self.fired = fired
        self.now = now
        self.stalled_for = stalled_for
        self.in_flight = in_flight
        self.first = first

    def __bool__(self) -> bool:
        return self.fired

    def to_json(self) -> dict:
        return {"fired": self.fired, "now": self.now,
                "stalled_for": self.stalled_for,
                "in_flight": self.in_flight, "first": self.first}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if not self.fired:
            return "WatchdogReport(ok)"
        return (f"WatchdogReport(fired at {self.now}, stalled "
                f"{self.stalled_for}, {self.in_flight} in flight)")


#: shared falsy report for the (overwhelmingly common) healthy case, so
#: the per-cycle check allocates nothing.
_OK = WatchdogReport(False)


class Watchdog:
    """Global forward-progress monitor.

    ``on_fire(net, now, report)`` runs once per firing transition —
    the network hooks the post-mortem writer here.  After a recovery
    (e.g. a link flap healed and packets move again) :meth:`rearm`
    resets the latch so the watchdog can fire again; ``fire_count``
    survives re-arming.
    """

    def __init__(self, net, threshold: int, on_fire=None):
        self.net = net
        self.threshold = threshold
        self.deadlocked = False
        self.fired_at = -1
        self.on_fire = on_fire
        self.fire_count = 0

    def check(self, now: int) -> WatchdogReport:
        net = self.net
        if now - net.last_progress < self.threshold:
            return _OK
        in_flight = net.packets_in_flight()
        if not in_flight:
            net.last_progress = now
            return _OK
        first = not self.deadlocked
        self.deadlocked = True
        if self.fired_at < 0:
            self.fired_at = now
        report = WatchdogReport(True, now, now - net.last_progress,
                                in_flight, first)
        if first:
            self.fire_count += 1
            if self.on_fire is not None:
                self.on_fire(net, now, report)
        return report

    def rearm(self, now: int | None = None) -> None:
        """Reset the deadlock latch after recovery.

        Passing ``now`` also resets the progress clock, giving the
        network a fresh ``threshold`` cycles before the next firing.
        """
        self.deadlocked = False
        self.fired_at = -1
        if now is not None:
            self.net.last_progress = now
