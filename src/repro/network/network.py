"""The Network: routers, links, NIs, the cycle loop, and the event wheel.

The cycle loop is *active-set* driven: routers and NIs register for wakeup
when they gain work (packet arrival, credit-bearing injection, event-wheel
deliveries, scheme lane launches, non-empty ``pending``/``inj``/``ej``
queues, a processor model's service entry coming due) and
:meth:`Network.step` iterates only the active components — in
ascending-id order, so results are bit-identical to the naive
all-components loop (kept available as ``force_naive_step`` and proven
equivalent by the differential property tests).  The contract is the same
everywhere: *a component is visited only on a cycle in which something
could have changed for it*, and whoever makes that change wakes it.

Occupancy introspection (:meth:`packets_in_flight`,
:meth:`total_backlog`) reads incrementally maintained counters instead of
rescanning every VC slot; the ``paranoia`` audit cross-checks the
counters against a full rescan, re-arbitrates every head a memo or a
park is skipping, and checks the active sets' coverage.
"""

from __future__ import annotations

from bisect import insort

from repro.network.link import Link
from repro.network.ni import NetworkInterface
from repro.network.router import Router
from repro.network.routing import route_table
from repro.network.topology import OPPOSITE, PORT_LOCAL
from repro.network.validate import check_invariants
from repro.network.watchdog import Watchdog
from repro.sim.stats import StatsCollector


def _fire_postmortem(net, now: int, report) -> None:
    """Watchdog ``on_fire`` hook: dump the wedged state as JSON."""
    from repro.fault.postmortem import write_postmortem
    net.postmortem_path = write_postmortem(net, now)


class Network:
    """A complete NoC instance.

    The per-cycle order of operations is:

    1. scheme ``pre_cycle`` hook (FastPass management, SPIN probes, ...),
    2. scheduled events (FastFlow arrivals, MSHR regenerations, ...),
    3. NI injection (inject-active NIs, ascending id),
    4. router switch allocation (active routers, ascending id),
    5. NI consumption (consume-active NIs / processor models),
    6. scheme ``post_cycle`` hook and the watchdog.

    Scheme hooks run on the cadence the scheme declares via
    :meth:`repro.schemes.base.Scheme.hook_cadence` (every cycle, every N
    cycles, or never) — the declared cadence must match the hook's own
    internal ``now % N`` guard, which is what keeps the active engine and
    the naive loop (hooks invoked unconditionally) bit-identical.
    """

    def __init__(self, cfg, mesh, routing_fn, router_cls=Router, scheme=None):
        self.cfg = cfg
        self.mesh = mesh
        self.routing_fn = routing_fn
        self.scheme = scheme
        #: candidate moves of every router (read by ``Router.moves``, the
        #: inlined probe in ``Router.step`` and the SoA dense tables)
        self.routes = route_table(router_cls.move_rule, routing_fn,
                                  cfg.n_vns, cfg.n_vcs, mesh.rows, mesh.cols)
        self.cycle = 0
        self.last_progress = 0
        #: number of cycles in which the router (switch-allocation) phase
        #: ran, i.e. non-suspended cycles.  Parked routers replay skipped
        #: steps from this counter, so DRAIN's suspension windows — during
        #: which no router steps and no round-robin state advances — are
        #: excluded automatically.
        self.switch_cycles = 0
        #: set by schemes (DRAIN) to pause normal switching and injection
        self.suspended = False
        #: debugging/differential-test escape hatch: step every component
        #: every cycle like the original loop (active-set bookkeeping is
        #: still maintained, so the two modes can be switched freely)
        self.force_naive_step = False
        #: attached :class:`repro.sim.soa.kernel.SoAKernel` or None.  When
        #: set, :meth:`step` hands the whole cycle to the kernel (the
        #: scalar object graph stays authoritative and in sync — the
        #: kernel writes through).  Unlike ``force_naive_step`` this must
        #: not be toggled mid-run: the kernel's arrays track the network
        #: from the cycle it is attached.
        self.soa = None

        # -- incremental occupancy accounting (audited by `paranoia`) ----
        #: packets in router VC slots or side buffers
        self.buffered = 0
        #: packets travelling outside router buffers (FastFlow traversals,
        #: Pitstop NI bypass) — kept so conservation accounting is exact
        self.in_transit = 0
        #: packets in bounded NI injection queues
        self.inj_total = 0
        #: packets in unbounded NI source queues
        self.pending_total = 0
        #: dropped requests awaiting MSHR regeneration (scheduled on the
        #: event wheel; *not* part of total_backlog — conservation tests
        #: account for them via ``ni.dropped - ni.regenerated``)
        self.limbo = 0

        # -- active sets -------------------------------------------------
        self._r_active: set[int] = set()
        self._inj_active: set[int] = set()
        self._con_active: set[int] = set()
        #: sorted worklist during the router phase (mid-phase wakeups with
        #: a higher id than the router being stepped are inserted so they
        #: still run this cycle, exactly like the naive sweep)
        self._stepping: list[int] | None = None
        self._step_idx = 0
        #: id of the router whose step is currently running, -1 outside
        #: the router phase — lets :meth:`Router.disturb` decide whether a
        #: parked router's own step this cycle is already past (valid in
        #: both the active and the naive loop)
        self._step_pos = -1

        self.stats = StatsCollector()
        self._events: dict[int, list] = {}
        #: the last cycle whose events have run; scheduling at or before
        #: it can no longer happen
        self._events_done = -1

        self.routers = [router_cls(rid, mesh, cfg, self)
                        for rid in range(mesh.n_routers)]
        self.nis = [NetworkInterface(rid, cfg, self)
                    for rid in range(mesh.n_routers)]
        self.links: list[Link] = []
        self._wire()
        for router in self.routers:
            router._ni = self.nis[router.id]
        self.watchdog = Watchdog(
            self, cfg.watchdog_cycles,
            on_fire=_fire_postmortem if cfg.postmortem else None)
        self.traffic = None
        if scheme is not None:
            self._pre_every, self._post_every = scheme.hook_cadence(cfg)
        else:
            self._pre_every = self._post_every = 0

        # Robustness surface (see repro.fault).  All attributes exist even
        # when the features are off, so hot-path checks are plain
        # None/False tests.
        #: FaultInjector when the config carries a fault plan
        self.faults = None
        #: RerouteTable around dead links (installed by the injector when
        #: the scheme declares the capability); consulted by Router.moves
        self.reroute = None
        #: LivenessAuditor when cfg.liveness_audit is set
        self.auditor = None
        #: True while any fault is active — newly sourced packets are
        #: tagged as degraded for the stats split
        self.fault_exposed = False
        #: path of the post-mortem written by the watchdog hook, if any
        self.postmortem_path = None
        #: Observability bundle (repro.obs) or None.  Every datapath emit
        #: point is guarded by one `is not None` test on this attribute,
        #: which is the whole cost of the subsystem when detached.
        self.obs = None
        if cfg.fault_plan:
            from repro.fault.injector import FaultInjector
            self.faults = FaultInjector(self, cfg.fault_plan)
        if cfg.liveness_audit:
            from repro.fault.auditor import LivenessAuditor
            self.auditor = LivenessAuditor(
                self, bound=cfg.liveness_bound_cycles or None)

    def _wire(self) -> None:
        for rid in range(self.mesh.n_routers):
            router = self.routers[rid]
            for port in self.mesh.ports_of(rid):
                nbr = self.mesh.neighbor(rid, port)
                link = Link(rid, port, nbr, OPPOSITE[port])
                router.links_out[port] = link
                router.neighbors[port] = self.routers[nbr]
                self.links.append(link)

    # -- active-set bookkeeping --------------------------------------------
    def wake_router(self, rid: int) -> None:
        """Mark a router as having work.  Safe to call at any point of the
        cycle: during the router phase a wakeup with an id above the router
        currently being stepped joins this cycle's worklist (the naive
        sweep would still reach it); a lower id waits for the next cycle
        (the naive sweep already passed it)."""
        act = self._r_active
        if rid in act:
            return
        act.add(rid)
        todo = self._stepping
        if todo is not None and rid > todo[self._step_idx]:
            insort(todo, rid, self._step_idx + 1)

    def sleep_router(self, rid: int) -> None:
        self._r_active.discard(rid)

    def wake_inject(self, rid: int) -> None:
        self._inj_active.add(rid)
        self.nis[rid]._inj_skip = 0

    def wake_consume(self, rid: int) -> None:
        """Have NI ``rid`` visited in the next consume phase (this
        cycle's, when called before it).  Ejections call it; so must a
        consumer that went to sleep (see :meth:`NetworkInterface
        .consume_step`) for anything else it wants to be called for."""
        self._con_active.add(rid)

    def active_routers(self) -> list:
        """Routers that currently hold packets, ascending id — every
        router with a non-empty ``occupied`` list (or side buffer) is in
        the active set, so scheme scans over this list see exactly what a
        full sweep would."""
        routers = self.routers
        return [routers[rid] for rid in sorted(self._r_active)]

    # -- event wheel -------------------------------------------------------
    def schedule(self, cycle: int, fn, *args) -> None:
        """Run ``fn(cycle, *args)`` at the start of ``cycle`` (after the
        scheme's ``pre_cycle`` hook, before traffic generation).

        Raises :class:`ValueError` for a cycle whose events have already
        run — from the event phase of cycle ``c`` on, the earliest
        schedulable cycle is ``c + 1`` — instead of dropping the event."""
        if cycle <= self._events_done:
            raise ValueError(
                f"cannot schedule {getattr(fn, '__qualname__', fn)} at "
                f"cycle {cycle}: the events of cycle {self._events_done} "
                f"have already run")
        self._events.setdefault(cycle, []).append((fn, args))

    def _run_events(self, now: int) -> None:
        self._events_done = now
        ev = self._events.pop(now, None)
        if ev:
            for fn, args in ev:
                fn(now, *args)

    # -- main loop -----------------------------------------------------------
    def step(self) -> None:
        if self.force_naive_step:
            self._step_naive()
        elif self.soa is not None:
            self.soa.step()
        else:
            self._step_active()

    def _step_active(self) -> None:
        now = self.cycle
        if self.faults is not None:
            self.faults.step(now)
        pre = self._pre_every
        if pre and (pre == 1 or now % pre == 0):
            self.scheme.pre_cycle(self, now)
        self._run_events(now)
        if self.traffic is not None:
            self.traffic.generate(self, now)
        if not self.suspended:
            if self._inj_active:
                nis = self.nis
                for nid in sorted(self._inj_active):
                    ni = nis[nid]
                    if now >= ni._inj_skip:
                        ni.inject_step(now)
            self.switch_cycles += 1
            if self._r_active:
                routers = self.routers
                todo = self._stepping = sorted(self._r_active)
                i = 0
                while i < len(todo):
                    self._step_idx = i
                    router = routers[todo[i]]
                    if now >= router._wake_at:   # parked guard, call-free
                        router.step(now)
                    i += 1
                self._stepping = None
        if self._con_active:
            nis = self.nis
            for nid in sorted(self._con_active):
                nis[nid].consume_step(now)
        post = self._post_every
        if post and (post == 1 or now % post == 0):
            self.scheme.post_cycle(self, now)
        self._step_tail(now)

    def _step_naive(self) -> None:
        """The original all-components loop.  Wake/sleep and counter
        bookkeeping still run inside the components, so the two modes stay
        interchangeable mid-run; hooks are invoked unconditionally as
        before (their internal guards make that equivalent)."""
        now = self.cycle
        if self.faults is not None:
            self.faults.step(now)
        if self.scheme is not None:
            self.scheme.pre_cycle(self, now)
        self._run_events(now)
        if self.traffic is not None:
            self.traffic.generate(self, now)
        if not self.suspended:
            for ni in self.nis:
                ni.inject_step(now)
            self.switch_cycles += 1
            for router in self.routers:
                self._step_pos = router.id
                router.step(now)
            self._step_pos = -1
        for ni in self.nis:
            ni.consume_step(now)
        if self.scheme is not None:
            self.scheme.post_cycle(self, now)
        self._step_tail(now)

    def _step_tail(self, now: int) -> None:
        obs = self.obs
        if obs is not None:
            se = obs.sample_every
            if se and now % se == 0:
                obs.sampler.sample(now)
        auditor = self.auditor
        if auditor is not None and now and now % auditor.interval == 0:
            auditor.check(now)
        paranoia = self.cfg.paranoia
        if paranoia and now and now % paranoia == 0:
            check_invariants(self)
        self.watchdog.check(now)
        self.cycle = now + 1

    def run(self, cycles: int) -> None:
        end = self.cycle + cycles
        step = self.step
        while self.cycle < end:
            step()

    # -- queries ---------------------------------------------------------------
    def packets_in_flight(self) -> int:
        """Packets currently inside routers or NI queues (excl. pending).

        O(1): reads the incrementally maintained counters (cross-checked
        against a full rescan by the ``paranoia`` audit)."""
        return self.buffered + self.in_transit + self.inj_total

    def total_backlog(self) -> int:
        """In-flight packets plus source-queue backlog."""
        return (self.buffered + self.in_transit + self.inj_total
                + self.pending_total)

    def link_for(self, rid: int, port: int) -> Link:
        link = self.routers[rid].links_out[port]
        if link is None:
            raise ValueError(f"router {rid} has no link on port {port}")
        return link
