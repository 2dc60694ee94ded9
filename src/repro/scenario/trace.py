"""Deterministic traffic trace record / replay.

A *trace* is the exact generation stream of one run — every ``generated``
event the obs bus saw, in emission order — written once to a versioned
JSONL artifact and replayed later as a first-class traffic source.

Format (one JSON value per line)::

    {"format": "repro-trace", "schema": 1, "mesh": [8, 8],
     "label": "bursty", "seed": 7, "events": 1234, ...}
    [cycle, src, dst, mclass]
    [cycle, src, dst, mclass]
    ...

The replay contract (DESIGN §16): replaying a trace injects the same
packets, at the same cycles, at the same sources, in the same per-cycle
order the recorded run generated them.  Packet ids are allocated in
generation order, so the replayed simulation allocates identical pids,
evolves through identical states, and finishes with results
bit-identical to the recorded run — on every engine, because the engines
are themselves bit-identical given the same generation stream.

Schema versioning fails loudly: a trace whose header carries an
unsupported ``schema`` raises :class:`TraceSchemaError` naming both
versions, never a silent misread.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.network.packet import N_CLASSES
from repro.obs import attach_observability
from repro.traffic.synthetic import SyntheticTraffic

#: current trace schema; bump on any incompatible layout change.
TRACE_SCHEMA = 1
TRACE_FORMAT = "repro-trace"


class TraceSchemaError(ValueError):
    """The trace file is not readable by this build."""


# ----------------------------------------------------------------------
class TraceRecorder:
    """Record every ``generated`` event of one network to a trace.

    A plain bus subscriber (same pattern as :class:`PacketTracer`):
    attaches observability if the network has none, installs no
    monkey-patches, and is result-neutral — recording a run does not
    change it.
    """

    def __init__(self, net, label: str = "trace", seed: int | None = None):
        self.net = net
        self.label = label
        self.seed = seed
        self.mesh = (net.mesh.rows, net.mesh.cols)
        self.events: list[tuple[int, int, int, int]] = []
        obs = net.obs
        if obs is None:
            obs = attach_observability(net)
        self.obs = obs
        self._fn = self._on_generated
        obs.bus.subscribe("generated", self._fn)

    def _on_generated(self, cycle, pid, fields):
        self.events.append(
            (cycle, fields["src"], fields["dst"], fields["mclass"]))

    def detach(self) -> None:
        self.obs.bus.unsubscribe("generated", self._fn)

    def header(self, **extra) -> dict:
        out = {"format": TRACE_FORMAT, "schema": TRACE_SCHEMA,
               "mesh": list(self.mesh), "label": self.label,
               "events": len(self.events)}
        if self.seed is not None:
            out["seed"] = self.seed
        out.update(extra)
        return out

    def write(self, path: str | Path, **extra) -> Path:
        """Write the JSONL artifact (header line + one line per event)."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            fh.write(json.dumps(self.header(**extra), sort_keys=True))
            fh.write("\n")
            for ev in self.events:
                fh.write(json.dumps(list(ev), separators=(",", ":")))
                fh.write("\n")
        return path


# ----------------------------------------------------------------------
def _is_event(event) -> bool:
    """Four ints, a cycle that is reachable, a valid message class."""
    return (isinstance(event, list) and len(event) == 4
            and all(type(v) is int for v in event)
            and event[0] >= 0 and 0 <= event[3] < N_CLASSES)


def load_trace(path: str | Path) -> tuple[dict, list]:
    """Read a trace artifact; raises :class:`TraceSchemaError` for
    anything this build cannot faithfully replay."""
    path = Path(path)
    with open(path) as fh:
        first = fh.readline()
        if not first.strip():
            raise TraceSchemaError(f"{path}: empty file, no trace header")
        try:
            header = json.loads(first)
        except json.JSONDecodeError as e:
            raise TraceSchemaError(f"{path}: unreadable header: {e}") from e
        if not isinstance(header, dict) or \
                header.get("format") != TRACE_FORMAT:
            raise TraceSchemaError(
                f"{path}: not a {TRACE_FORMAT} file (header lacks the "
                f"format marker)")
        schema = header.get("schema")
        if schema != TRACE_SCHEMA:
            raise TraceSchemaError(
                f"{path}: trace schema {schema} is not supported by this "
                f"build (reads schema {TRACE_SCHEMA}); re-record the "
                f"trace or use a matching build")
        events = []
        for lineno, line in enumerate(fh, start=2):
            if not line.strip():
                continue
            try:
                event = json.loads(line)
            except json.JSONDecodeError as e:
                raise TraceSchemaError(
                    f"{path}:{lineno}: bad event line: {e}") from e
            if not _is_event(event):
                raise TraceSchemaError(
                    f"{path}:{lineno}: bad event line: {line.strip()!r} is "
                    f"not [cycle >= 0, src, dst, mclass 0-{N_CLASSES - 1}] "
                    f"of ints")
            events.append(tuple(event))
    declared = header.get("events")
    if declared is not None and declared != len(events):
        raise TraceSchemaError(
            f"{path}: truncated trace: header declares {declared} events, "
            f"file holds {len(events)}")
    return header, events


# ----------------------------------------------------------------------
class TraceReplay(SyntheticTraffic):
    """Replay a recorded trace as a traffic source.

    The whole event stream is staged into ``_by_cycle`` up front and
    ``_chunk_end`` is pushed past any reachable cycle, so the inherited
    ``generate`` fast path never refills — it only pops the staged
    events, preserving the recorded per-cycle order exactly (which is
    what makes pid allocation, and therefore the whole run, bit-identical
    to the recording).
    """

    def __init__(self, header: dict, events: list):
        label = header.get("label", "anon")
        super().__init__("uniform", 0.0, seed=0)
        self.header = header
        self.pattern = f"trace:{label}"
        self.rate = header.get("rate", 0.0)
        for cycle, src, dst, mclass in events:
            self._by_cycle.setdefault(cycle, []).append((src, dst, mclass))
        self._chunk_end = 1 << 62   # inherited generate never refills

    @classmethod
    def from_file(cls, path: str | Path) -> "TraceReplay":
        header, events = load_trace(path)
        return cls(header, events)

    def bind(self, net) -> None:
        self._net = net
        mesh = self.header.get("mesh")
        if mesh is not None and tuple(mesh) != (net.mesh.rows,
                                                net.mesh.cols):
            raise ValueError(
                f"trace was recorded on a {mesh[0]}x{mesh[1]} mesh; "
                f"replaying on {net.mesh.rows}x{net.mesh.cols} would not "
                f"be the same run")
        n = net.mesh.n_routers
        for events in self._by_cycle.values():
            for src, dst, _cls in events:
                if not (0 <= src < n and 0 <= dst < n):
                    raise ValueError(
                        f"trace event {src}->{dst} out of range for "
                        f"{n} routers")
