"""Recording the event bus: :class:`EventLog` is the one subscriber that
keeps events.  Trace recording (:func:`repro.sim.runner.record_scenario`,
a log of ``generated``) and :class:`PacketTracer` (per-packet timelines
over a log of the packet kinds) are its users.  Like every subscriber it
installs no monkey-patches, sees the active-set engine's inlined paths,
and is result-neutral (DESIGN §11)."""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from itertools import islice

from repro.obs.setup import attach_observability


class EventLog:
    """Every event of ``kinds`` that ``net`` emits, as
    ``(cycle, pid, kind, fields)`` records in emission order.

    Attaches observability if the network has none.  ``fields`` is the
    emission's own payload dict, kept as is and read-only like every
    subscriber's.
    """

    def __init__(self, net, kinds):
        obs = net.obs
        if obs is None:
            obs = attach_observability(net)
        self.obs = obs
        self.records: list[tuple[int, int, str, dict]] = []
        append = self.records.append
        self._subs: list[tuple[str, object]] = []
        for kind in kinds:
            def fn(cycle, pid, fields, _k=kind):
                append((cycle, pid, _k, fields))
            obs.bus.subscribe(kind, fn)
            self._subs.append((kind, fn))

    def detach(self) -> None:
        """Stop recording (the bus subscriptions are removed; any
        observability bundle the log attached stays attached)."""
        for kind, fn in self._subs:
            self.obs.bus.unsubscribe(kind, fn)
        self._subs.clear()


# ----------------------------------------------------------------------
@dataclass(frozen=True)
class TraceEvent:
    cycle: int
    kind: str        # generated | injected | ejected | upgraded | bounced
    #                | dropped | regenerated
    detail: str = ""


#: bus kind -> (timeline kind, detail string).  The bus distinguishes the
#: bounce *decision* at the destination ('bounced') from the bounced
#: packet's *arrival* back at its prime ('bounce_returned'); a timeline
#: records the latter as ``bounced`` — the cycle the packet re-entered a
#: request injection queue.
PACKET_KINDS = {
    "generated": ("generated",
                  lambda f: f"{f['src']}->{f['dst']} cls={f['mclass']}"),
    "injected": ("injected", lambda f: f"src={f['src']} dst={f['dst']}"),
    "ejected": ("ejected",
                lambda f: f"dst={f['dst']} fastpass={f['fastpass']}"),
    "upgraded": ("upgraded", lambda f: f"prime={f['prime']} dst={f['dst']}"),
    "bounce_returned": ("bounced", lambda f: f"prime={f['prime']}"),
    "dropped": ("dropped", lambda f: f"src={f['src']}"),
    "regenerated": ("regenerated", lambda f: ""),
}

#: timelines kept; events of later packets are not folded in
MAX_PACKETS = 100000


class PacketTracer:
    """Per-packet timelines of one network — generation, injection,
    FastFlow upgrades, bounces, drops, regenerations, ejection — as a
    view over an :class:`EventLog` of :data:`PACKET_KINDS`.  Intended
    for debugging and for the examples."""

    def __init__(self, net):
        self.net = net
        self.log = EventLog(net, PACKET_KINDS)
        self.obs = self.log.obs
        self._events: dict[int, list[TraceEvent]] = defaultdict(list)
        self._folded = 0

    @property
    def events(self) -> dict[int, list[TraceEvent]]:
        """Timelines by pid (the first :data:`MAX_PACKETS` packets')."""
        events = self._events
        records = self.log.records
        for cycle, pid, kind, fields in islice(records, self._folded, None):
            if len(events) >= MAX_PACKETS and pid not in events:
                continue
            trace_kind, detail = PACKET_KINDS[kind]
            events[pid].append(TraceEvent(cycle, trace_kind, detail(fields)))
        self._folded = len(records)
        return events

    def timeline(self, pid: int) -> list[TraceEvent]:
        return list(self.events.get(pid, ()))

    def format_timeline(self, pid: int) -> str:
        lines = [f"packet {pid}:"]
        for ev in self.timeline(pid):
            lines.append(f"  @{ev.cycle:>7} {ev.kind:<12} {ev.detail}")
        return "\n".join(lines)

    def counts(self) -> dict[str, int]:
        out: dict[str, int] = defaultdict(int)
        for evs in self.events.values():
            for ev in evs:
                out[ev.kind] += 1
        return dict(out)

    def detach(self) -> None:
        """Stop recording; timelines so far stay readable."""
        self.log.detach()
