"""Runtime fault application and fault-aware rerouting.

The :class:`FaultInjector` owns a materialized fault-event list and
applies each event at its activation cycle, reusing the simulator's own
timing machinery wherever possible so the hot path stays untouched:

* a dead link is modelled as ``link.busy_until = FOREVER`` — no regular
  transfer can ever win it (restored on flap recovery);
* an input-port stall extends ``router.in_busy[port]`` (the same field
  SPIN's probe freeze uses);
* an ejection freeze extends ``router.eject_busy_until``;
* a corrupted lookahead posts a phantom busy window on the link;
* a dropped lookahead opens a window in which FastPass primes cannot
  confirm a lane is clear — :meth:`lane_ok` reports such lanes unusable
  and the prime skips the launch (the conservative hardware reaction).

Graceful degradation: when the scheme declares ``reroutes`` (see
:class:`repro.schemes.base.Scheme`), every change to the set of dead
links rebuilds a :class:`RerouteTable` — shortest-path next-hops over the
surviving directed channel graph — and installs it as ``net.reroute``,
which :meth:`repro.network.router.Router.moves` consults in place of the
static routing function; then :meth:`repro.network.network.Network.
topology_changed` drops the state computed under the old links.  Schemes
without the capability keep their static routes; packets whose only
productive port died simply stop progressing, which is exactly the
condition the watchdog post-mortem and the liveness auditor are there to
certify.
"""

from __future__ import annotations

from collections import deque

from repro.fault.plan import (
    EJECT_FREEZE,
    LINK_FAIL,
    LINK_FLAP,
    LOOKAHEAD_CORRUPT,
    LOOKAHEAD_DROP,
    PORT_STALL,
)
from repro.network.topology import PORT_LOCAL

FOREVER = 1 << 60

LOCAL_ONLY = (PORT_LOCAL,)


class RerouteTable:
    """Minimal-hop routing over the surviving directed channel graph.

    Built from scratch on every topology change (fault activations are
    rare events, so an all-destinations BFS is cheap relative to the
    cycle loop).  ``ports(rid, dst)`` returns every live output port on a
    shortest surviving path — preserving path diversity for adaptive
    schemes — or an empty tuple when ``dst`` became unreachable.
    """

    def __init__(self, mesh, dead_links):
        self.mesh = mesh
        self.dead = frozenset(dead_links)
        n = mesh.n_routers
        self._live_out = [
            [(p, mesh.neighbor(rid, p)) for p in mesh.ports_of(rid)
             if (rid, p) not in self.dead]
            for rid in range(n)
        ]
        # BFS from every destination over the reversed live graph.
        rev = [[] for _ in range(n)]
        for rid, outs in enumerate(self._live_out):
            for _p, nbr in outs:
                rev[nbr].append(rid)
        self._dist = []
        for dst in range(n):
            dist = [-1] * n
            dist[dst] = 0
            dq = deque([dst])
            while dq:
                u = dq.popleft()
                du = dist[u] + 1
                for v in rev[u]:
                    if dist[v] < 0:
                        dist[v] = du
                        dq.append(v)
            self._dist.append(dist)
        self._ports: dict[tuple[int, int], tuple] = {}

    def ports(self, rid: int, dst: int) -> tuple:
        """Candidate output ports at ``rid`` toward ``dst`` (LOCAL when
        already there, empty when unreachable)."""
        if rid == dst:
            return LOCAL_ONLY
        key = (rid, dst)
        hit = self._ports.get(key)
        if hit is not None:
            return hit
        dist = self._dist[dst]
        d = dist[rid]
        if d < 0:
            outs: tuple = ()
        else:
            outs = tuple(p for p, nbr in self._live_out[rid]
                         if dist[nbr] == d - 1)
        self._ports[key] = outs
        return outs

    def reachable(self, rid: int, dst: int) -> bool:
        return self._dist[dst][rid] >= 0


class FaultInjector:
    """Applies one run's fault events and tracks the degraded state."""

    def __init__(self, net, plan):
        self.net = net
        self.plan = plan
        self.mesh = net.mesh
        self._queue = deque(plan.materialize(net.cfg.seed, net.mesh))
        self.total_events = len(self._queue)
        #: directed links currently down, as (router, out_port)
        self.dead_links: set[tuple[int, int]] = set()
        #: lookahead-drop windows: (router, out_port) -> first cycle after
        self.la_dropped: dict[tuple[int, int], int] = {}
        #: pending flap recoveries: cycle -> [(router, port), ...]
        self._recoveries: dict[int, list[tuple[int, int]]] = {}
        #: first cycle after which every transient fault has expired
        self._transient_until = 0
        self.applied: dict[str, int] = {}
        #: launches the FastPass manager skipped because a lane crossed a
        #: dead or lookahead-compromised segment (scan-level counter)
        self.lane_skips = 0

    # ------------------------------------------------------------------
    def step(self, now: int) -> None:
        """Apply activations and recoveries due at ``now``; called at the
        top of every cycle, before the scheme hooks."""
        recovered = self._recoveries.pop(now, None)
        if recovered:
            obs = self.net.obs
            for rid, port in recovered:
                self.dead_links.discard((rid, port))
                link = self.net.routers[rid].links_out[port]
                if link is not None and link.busy_until >= FOREVER:
                    link.busy_until = now
                if obs is not None:
                    obs.emit("fault", now, kind="recovered",
                             router=rid, port=port)
            self._topology_changed(now)
        queue = self._queue
        changed = False
        applied_any = False
        while queue and queue[0].at <= now:
            changed |= self._apply(queue.popleft(), now)
            applied_any = True
        if changed:
            self._topology_changed(now)
        if applied_any:
            self._mark_exposed()
        self.net.fault_exposed = bool(self.dead_links) \
            or now < self._transient_until

    def _apply(self, ev, now: int) -> bool:
        """Activate one event; returns True when the live topology
        changed (dead-link set grew)."""
        self.applied[ev.kind] = self.applied.get(ev.kind, 0) + 1
        obs = self.net.obs
        if obs is not None:
            obs.emit("fault", now, kind=ev.kind,
                     router=ev.router, port=ev.port)
        router = self.net.routers[ev.router]
        kind = ev.kind
        if kind in (LINK_FAIL, LINK_FLAP):
            link = router.links_out[ev.port]
            if link is None:
                return False
            self.dead_links.add((ev.router, ev.port))
            link.busy_until = FOREVER
            if kind == LINK_FLAP:
                self._recoveries.setdefault(ev.until, []).append(
                    (ev.router, ev.port))
                self._note_transient(ev.until)
            return True
        if kind == PORT_STALL:
            until = now + ev.duration
            if router.in_busy[ev.port] < until:
                router.in_busy[ev.port] = until
            self._note_transient(until)
            return False
        if kind == EJECT_FREEZE:
            until = now + ev.duration
            if router.eject_busy_until < until:
                router.eject_busy_until = until
            self._note_transient(until)
            return False
        if kind == LOOKAHEAD_DROP:
            key = (ev.router, ev.port)
            until = now + ev.duration
            if self.la_dropped.get(key, 0) < until:
                self.la_dropped[key] = until
            self._note_transient(until)
            return False
        if kind == LOOKAHEAD_CORRUPT:
            link = router.links_out[ev.port]
            until = now + ev.duration
            if link is not None and link.busy_until < until:
                link.busy_until = until
            self._note_transient(until)
            return False
        raise AssertionError(f"unhandled fault kind {kind!r}")

    def _note_transient(self, until: int) -> None:
        if until < FOREVER and until > self._transient_until:
            self._transient_until = until

    # ------------------------------------------------------------------
    def _topology_changed(self, now: int) -> None:
        """Rebuild degraded routing state after the dead-link set moved."""
        net = self.net
        if net.scheme is not None and net.scheme.reroutes:
            net.reroute = RerouteTable(self.mesh, self.dead_links) \
                if self.dead_links else None
        # A healed link or a fresh reroute can unblock a head earlier
        # than its retry memo.
        net.topology_changed()

    def _mark_exposed(self) -> None:
        """Tag every packet currently in the network as fault-exposed, so
        the degraded-latency split covers packets the fault caught mid
        flight, not only those generated during the outage."""
        for router in self.net.routers:
            for slot in router.occupied:
                if slot.pkt is not None:
                    slot.pkt.fault_exposed = True
        for ni in self.net.nis:
            for q in ni.inj:
                for pkt in q:
                    pkt.fault_exposed = True

    # -- queries ----------------------------------------------------------
    def lane_ok(self, prime: int, dst: int, now: int, size: int) -> bool:
        """Can a FastPass lane from ``prime`` to ``dst`` be trusted now?

        False when any link of the forward or returning path is dead, or
        when a forward link's lookahead signal is dropped during the
        window the traversal would need it — the prime cannot confirm the
        lane is clear and must skip the launch (graceful lane-schedule
        degradation).
        """
        if not self.dead_links and not self.la_dropped:
            return True
        fwd = self.mesh.xy_path(prime, dst)
        dead = self.dead_links
        if dead:
            for hop in fwd:
                if hop in dead:
                    self.lane_skips += 1
                    return False
            for hop in self.mesh.yx_path(dst, prime):
                if hop in dead:
                    self.lane_skips += 1
                    return False
        if self.la_dropped:
            for k, hop in enumerate(fwd):
                until = self.la_dropped.get(hop, 0)
                if until > now + k:
                    self.lane_skips += 1
                    return False
        return True

    def active(self, now: int) -> bool:
        return bool(self.dead_links) or now < self._transient_until

    def summary(self) -> dict:
        """Aggregate view for results and post-mortems."""
        return {
            "plan_events": self.total_events,
            "applied": dict(sorted(self.applied.items())),
            "pending": len(self._queue),
            "dead_links": sorted(self.dead_links),
            "lane_skips": self.lane_skips,
        }
