"""Simulation assembly and execution.

Two run modes:

* :meth:`Simulation.run` — open-loop synthetic runs with warmup /
  measurement / drain windows; returns a :class:`~repro.config.RunResult`.
* :meth:`Simulation.run_to_completion` — closed-loop application runs
  (coherence traffic); executes until every transaction retires or a cycle
  cap / deadlock stops it.
"""

from __future__ import annotations

from repro.config import RunResult, SimConfig
from repro.network.network import Network
from repro.network.routing import ROUTERS
from repro.network.topology import Mesh


def build_network(cfg: SimConfig, scheme) -> Network:
    """Construct a network configured for ``scheme``.

    The immutable structures a network reads — the route table, the
    FastPass TDM geometry, the SoA dense tables — come from memoised pure
    functions (:func:`repro.network.routing.route_table` and friends), so
    every build after the first of its kind in a process shares them.
    """
    cfg = scheme.configure(cfg)
    router_cls = scheme.router_cls
    soa_fallback = None
    use_soa = False
    if cfg.engine == "soa":
        from repro.sim import soa
        soa.require_numpy()
        soa_fallback = soa.fallback_reason(cfg, scheme)
        if soa_fallback is None:
            use_soa = True
            router_cls = soa.hooked_router_cls(router_cls)
    net = Network(cfg, Mesh(cfg.rows, cfg.cols), ROUTERS[scheme.routing],
                  router_cls=router_cls, scheme=scheme)
    #: why an engine="soa" request fell back to scalar (None otherwise)
    net.soa_fallback = soa_fallback
    scheme.build(net)
    if use_soa:
        from repro.sim.soa import attach
        attach(net)
    return net


class Simulation:
    """One (scheme, traffic, config) run."""

    def __init__(self, cfg: SimConfig, scheme, traffic):
        self.scheme = scheme
        self.net = build_network(cfg, scheme)
        self.cfg = self.net.cfg
        net = self.net
        if self.cfg.engine == "naive":
            net.force_naive_step = True
        self.traffic = traffic
        traffic.bind(self.net)
        self.net.traffic = traffic

    @property
    def engine_used(self) -> str:
        """Which cycle engine drives this run: ``naive``, ``active``,
        ``soa`` or ``active (soa fallback: <reason>)``.

        Deliberately a property over live network state, not a RunResult
        field: every engine is bit-identical, so results (and the
        campaign cache keys) must not depend on engine ids.
        """
        net = self.net
        if net.soa is not None:
            return "soa"
        if net.force_naive_step:
            return "naive"
        if net.soa_fallback is not None:
            return f"active (soa fallback: {net.soa_fallback})"
        return "active"

    # ------------------------------------------------------------------
    def run(self) -> RunResult:
        """Open-loop run: warmup, measure, drain; aggregate statistics."""
        return self._run_open_loop()

    def _run_open_loop(self) -> RunResult:
        # The body of :meth:`run`, entered directly by ReplicaBatch so a
        # profiler wrapping the public method sees each replica once.
        cfg = self.cfg
        net = self.net
        stats = net.stats
        t0 = cfg.warmup_cycles
        t1 = t0 + cfg.measure_cycles
        self.traffic.measure_window(t0, t1)
        stats.measure_start, stats.measure_end = t0, t1

        net.run(t1)
        # Drain: give measured packets a chance to arrive.  Stops early
        # once the network holds nothing at all — any still-undelivered
        # measured packet must then be a dropped request waiting in limbo
        # for MSHR regeneration, which total_backlog() excludes.
        deadline = net.cycle + cfg.drain_cycles
        step = net.step
        watchdog = net.watchdog
        measured_generated = self.traffic.measured_generated
        while (net.cycle < deadline
               and stats.ejected_measured < measured_generated
               and not watchdog.deadlocked
               and net.total_backlog() + net.limbo > 0):
            step()
        return self._result()

    def run_to_completion(self, max_cycles: int) -> RunResult:
        """Closed-loop run: execute until the traffic reports completion."""
        net = self.net
        self.traffic.measure_window(0, 1 << 60)
        net.stats.measure_start, net.stats.measure_end = 0, 1 << 60
        while (net.cycle < max_cycles and not self.traffic.done()
               and not net.watchdog.deadlocked):
            net.step()
        return self._result()

    # ------------------------------------------------------------------
    def _result(self) -> RunResult:
        net = self.net
        cfg = self.cfg
        stats = net.stats
        res = RunResult(scheme=self.scheme.label)
        res.injected = stats.injected
        res.ejected = stats.ejected_total
        res.dropped = stats.dropped
        res.fastpass_delivered = stats.fastpass_delivered
        res.regular_delivered = stats.regular_delivered
        res.avg_latency = stats.avg_latency()
        res.p99_latency = stats.p99_latency()
        res.throughput = stats.throughput(cfg.n_routers, cfg.measure_cycles)
        res.deadlocked = net.watchdog.deadlocked
        res.cycles = net.cycle
        res.fp_buffered_time = stats.mean(stats.fp_buffered)
        res.fp_bufferless_time = stats.mean(stats.fp_bufferless)
        res.reg_latency = stats.mean(stats.reg_latencies)
        res.degraded_delivered = stats.degraded_delivered
        res.degraded_latency = stats.mean(stats.degraded_latencies)
        res.extra["measured_generated"] = getattr(
            self.traffic, "measured_generated", 0)
        res.extra["undelivered"] = (res.extra["measured_generated"]
                                    - stats.ejected_measured)
        if net.faults is not None:
            res.extra["faults"] = net.faults.summary()
        if net.auditor is not None:
            # A final scan at exit so short runs cannot dodge the audit by
            # finishing between two periodic checks.
            net.auditor.check(net.cycle)
            res.liveness_violations = net.auditor.violation_count
            res.extra["liveness"] = net.auditor.summary()
        if net.postmortem_path is not None:
            res.extra["postmortem"] = str(net.postmortem_path)
        stats.warn_if_empty(self.scheme.label)
        return res
