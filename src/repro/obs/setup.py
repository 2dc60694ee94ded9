"""The :class:`Observability` bundle: one bus + registry + sampler,
attached to one network.

Attaching wires the standard NoC metric set — event-fed counters
(generation, injection, ejection, upgrades per lane, bounces, drops,
regenerations, lane slots, prime rotations, fault events), the end-to-end
latency histogram, and callback gauges over the network's incremental
occupancy counters (in-flight, backlog, injection-queue depth, per-router
VC occupancy).  Detaching restores the network to the zero-overhead
state (``net.obs is None`` — the only thing the hot path ever tests).

Attach/detach is result-neutral: counters and the tracer only *read*,
gauges read order-insensitive aggregates, and nothing on the bus mutates
simulation state.  ``tests/integration/test_obs_neutrality.py`` proves
runs bit-identical with observability attached vs detached on both the
active-set and the naive engines.
"""

from __future__ import annotations

from repro.obs.bus import EventBus
from repro.obs.exporters import write_metrics
from repro.obs.registry import MetricsRegistry
from repro.obs.sampler import TimeSeriesSampler


class Observability:
    """Bus + metrics + sampling for a single network.

    ``sample_every=0`` (default) disables time-series sampling; any
    positive cadence samples the tracked gauges every N cycles from the
    network's cycle tail.
    """

    def __init__(self, sample_every: int = 0):
        if sample_every < 0:
            raise ValueError("sample_every must be non-negative")
        self.bus = EventBus()
        self.registry = MetricsRegistry()
        self.sampler = TimeSeriesSampler(self.registry)
        self.sample_every = sample_every
        self.net = None
        #: bound for the hot emit path: ``obs.emit(...)`` with no extra
        #: attribute hop
        self.emit = self.bus.emit

    # ------------------------------------------------------------------
    def attach(self, net) -> "Observability":
        """Install on ``net`` and wire the standard NoC metric set."""
        if net.obs is not None:
            raise RuntimeError("network already has observability attached")
        if self.net is not None and self.net is not net:
            raise RuntimeError("Observability instances are per-network")
        self.net = net
        net.obs = self
        self._wire(net)
        return self

    def detach(self) -> None:
        """Remove from the network; the instance keeps its recorded data
        and can still be exported, but receives no further events."""
        if self.net is not None:
            self.net.obs = None
            self.net = None

    def archive_run(self, res, name: str) -> None:
        """The finish half of :func:`attach_for_run`: write the run's
        artifact under ``results/metrics/`` and record its path and
        headline counters in ``res.extra["metrics"]``."""
        path = write_metrics(self, name)
        res.extra["metrics"] = {
            "path": str(path),
            "events": self.bus.emitted,
            "counters": self.registry.to_json()["counters"],
        }

    # ------------------------------------------------------------------
    def _wire(self, net) -> None:
        reg = self.registry
        bus = self.bus

        def count(kind: str, counter) -> None:
            bus.subscribe(kind,
                          lambda cycle, pid, fields, c=counter: c.inc())

        count("generated", reg.counter(
            "noc_generated_total", "packets handed to a source NI"))
        count("injected", reg.counter(
            "noc_injected_total", "packets that entered a router VC "
            "(including upgrades straight from injection queues)"))
        count("dropped", reg.counter(
            "noc_dropped_total", "dynamic-bubble drops awaiting MSHR "
            "regeneration"))
        count("regenerated", reg.counter(
            "noc_regenerated_total", "dropped requests re-issued from "
            "the MSHR"))
        count("bounced", reg.counter(
            "noc_bounced_total", "FastPass-Packets bounced at a full "
            "ejection queue"))
        count("bounce_returned", reg.counter(
            "noc_bounce_returned_total", "bounced packets received back "
            "at their prime's request injection queue"))
        count("lane_slot", reg.counter(
            "noc_lane_slots_total", "TDM lane slots observed by the "
            "FastPass manager"))
        count("prime_rotation", reg.counter(
            "noc_prime_rotations_total", "prime-role rotations (phase "
            "advances) observed"))

        ejected = reg.counter("noc_ejected_total",
                              "packets delivered into ejection queues")
        latency = reg.histogram(
            "noc_packet_latency_cycles",
            "end-to-end latency of measured packets (cycles)")

        def on_ejected(cycle, pid, fields):
            ejected.inc()
            if fields["measured"]:
                latency.observe(fields["latency"])

        bus.subscribe("ejected", on_ejected)

        upgrades = reg.counter_family(
            "noc_upgrades_total",
            "FastPass upgrades (lane launches) per TDM lane",
            labels=("lane",))

        def on_upgraded(cycle, pid, fields):
            upgrades.labels(fields["lane"]).inc()

        bus.subscribe("upgraded", on_upgraded)

        faults = reg.counter_family(
            "noc_fault_events_total",
            "fault activations and recoveries by kind",
            labels=("kind",))

        def on_fault(cycle, pid, fields):
            faults.labels(fields["kind"]).inc()

        bus.subscribe("fault", on_fault)

        # Callback gauges over the incremental counters: pure reads, no
        # disturb, safe at any point of the cycle.
        g_inflight = reg.gauge(
            "noc_packets_in_flight",
            "packets inside routers or NI queues (excl. pending)",
            net.packets_in_flight)
        g_backlog = reg.gauge(
            "noc_total_backlog",
            "in-flight packets plus source-queue backlog",
            net.total_backlog)
        g_buffered = reg.gauge(
            "noc_buffered", "packets in router VC slots or side buffers",
            lambda: net.buffered)
        g_injq = reg.gauge(
            "noc_inj_queue_depth",
            "total packets across the bounded NI injection queues",
            lambda: net.inj_total)
        g_limbo = reg.gauge(
            "noc_limbo", "dropped requests awaiting MSHR regeneration",
            lambda: net.limbo)
        reg.multi_gauge(
            "noc_vc_occupancy", "occupied VC slots per router", "router",
            lambda: [(r.id, sum(1 for s in r.occupied if s.pkt is not None))
                     for r in net.routers])

        for g in (g_inflight, g_backlog, g_buffered, g_injq, g_limbo):
            self.sampler.track(g)


def attach_observability(net, sample_every: int = 0) -> Observability:
    """Convenience: build an :class:`Observability` and attach it."""
    return Observability(sample_every=sample_every).attach(net)


def attach_for_run(net, metrics: bool | int) -> Observability:
    """What a runner's truthy ``metrics`` argument asks for: ``True``
    attaches the standard metric set, a positive integer additionally
    samples the gauge time series every that many cycles.  The runner
    calls :meth:`Observability.archive_run` once the run is over."""
    return attach_observability(
        net, sample_every=0 if metrics is True else int(metrics))
