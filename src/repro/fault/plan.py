"""Fault plans: deterministic, seed-reproducible fault schedules.

A :class:`FaultPlan` describes *what goes wrong and when*: a tuple of
explicitly scheduled :class:`FaultEvent` entries plus an optional
stochastic component (a Poisson process of transient faults over a cycle
window).  Plans are frozen dataclasses so they can live inside the frozen
:class:`~repro.config.SimConfig` and flow through the campaign cache key
(`dataclasses.asdict` of the config covers the whole plan).

Determinism: :meth:`FaultPlan.materialize` derives its RNG from the *run*
seed combined with the plan's own seed, so the same (config, plan) pair
always produces the same concrete event list — faulty runs are cacheable
and replayable like any other point.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property

#: permanent directed-link failure (``duration`` ignored, always forever)
LINK_FAIL = "link_fail"
#: transient directed-link outage of ``duration`` cycles
LINK_FLAP = "link_flap"
#: router input port refuses to issue flits for ``duration`` cycles
PORT_STALL = "port_stall"
#: router ejection port frozen for ``duration`` cycles
EJECT_FREEZE = "eject_freeze"
#: lookahead signal of a lane link is lost for ``duration`` cycles —
#: primes cannot confirm the lane is clear and suppress their launches
LOOKAHEAD_DROP = "lookahead_drop"
#: corrupted lookahead: a phantom reservation blocks regular traffic on
#: the link for ``duration`` cycles
LOOKAHEAD_CORRUPT = "lookahead_corrupt"

FAULT_KINDS = (LINK_FAIL, LINK_FLAP, PORT_STALL, EJECT_FREEZE,
               LOOKAHEAD_DROP, LOOKAHEAD_CORRUPT)

#: kinds a stochastic plan samples by default (never permanent failures —
#: those are scheduled explicitly so a scenario stays interpretable)
TRANSIENT_KINDS = (LINK_FLAP, PORT_STALL, EJECT_FREEZE,
                   LOOKAHEAD_DROP, LOOKAHEAD_CORRUPT)

#: kinds that target a directed link (router, output port)
LINK_KINDS = frozenset({LINK_FAIL, LINK_FLAP, LOOKAHEAD_DROP,
                        LOOKAHEAD_CORRUPT})


@dataclass(frozen=True)
class FaultEvent:
    """One concrete fault activation.

    ``router``/``port`` identify the target: for link kinds the directed
    link ``router --port-->``; for :data:`PORT_STALL` the input port of
    ``router``; :data:`EJECT_FREEZE` ignores ``port``.  ``duration == 0``
    means permanent (only meaningful for :data:`LINK_FAIL`).
    """

    kind: str
    at: int
    router: int
    port: int = -1
    duration: int = 0

    def __post_init__(self):
        if self.kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}; "
                             f"choose from {FAULT_KINDS}")
        if self.at < 0:
            raise ValueError("fault activation cycle must be >= 0")
        if self.router < 0:
            raise ValueError("fault needs a target router")
        if self.kind != LINK_FAIL and self.duration < 1:
            raise ValueError(f"{self.kind} needs a positive duration")
        if self.kind == LINK_FAIL and self.duration != 0:
            raise ValueError("link_fail is permanent; use link_flap for "
                             "transient outages")

    @property
    def until(self) -> int:
        """First cycle after the fault window (a huge sentinel when
        permanent)."""
        if self.duration == 0:
            return 1 << 60
        return self.at + self.duration

    def to_json(self) -> list:
        return [self.kind, self.at, self.router, self.port, self.duration]

    @classmethod
    def from_json(cls, row) -> "FaultEvent":
        kind, at, router, port, duration = row
        return cls(kind, at, router, port, duration)


@dataclass(frozen=True)
class FaultPlan:
    """Scheduled plus stochastic fault events for one run.

    * ``events`` — explicitly scheduled faults (reproducible scenarios:
      "cut this link at cycle 2000");
    * ``rate`` — expected stochastic events per cycle, network-wide,
      drawn over ``[start, stop)`` from ``kinds`` with exponentially
      distributed durations of mean ``mean_duration``;
    * ``seed`` — plan-local entropy, combined with the run seed in
      :meth:`materialize` so sweeps over run seeds get fresh-but-
      reproducible fault sequences.
    """

    events: tuple[FaultEvent, ...] = ()
    rate: float = 0.0
    kinds: tuple[str, ...] = TRANSIENT_KINDS
    start: int = 0
    stop: int = 0
    mean_duration: int = 50
    seed: int = 0

    def __post_init__(self):
        # Tolerate lists (e.g. a plan rebuilt from JSON by hand).
        if not isinstance(self.events, tuple):
            object.__setattr__(self, "events", tuple(self.events))
        if not isinstance(self.kinds, tuple):
            object.__setattr__(self, "kinds", tuple(self.kinds))
        for kind in self.kinds:
            if kind not in FAULT_KINDS:
                raise ValueError(f"unknown stochastic fault kind {kind!r}")
        if self.rate < 0:
            raise ValueError("fault rate must be non-negative")
        if self.rate > 0:
            if self.stop <= self.start:
                raise ValueError("a stochastic plan needs stop > start")
            if not self.kinds:
                raise ValueError("a stochastic plan needs at least one "
                                 "fault kind")
        if self.mean_duration < 1:
            raise ValueError("mean_duration must be positive")

    def __bool__(self) -> bool:
        return bool(self.events) or self.rate > 0

    # ------------------------------------------------------------------
    def materialize(self, run_seed: int, mesh) -> list[FaultEvent]:
        """Concrete, sorted event list for one run on ``mesh``.

        Scheduled events are validated against the topology (a link fault
        must name a physical link); stochastic events are drawn from an
        RNG seeded by ``(run_seed, plan.seed)`` so every run of the same
        point replays the identical fault sequence.
        """
        events = list(self.events)
        for ev in events:
            if ev.router >= mesh.n_routers:
                raise ValueError(f"fault targets router {ev.router} but the "
                                 f"mesh has {mesh.n_routers}")
            if ev.kind in LINK_KINDS and \
                    mesh.neighbor(ev.router, ev.port) is None:
                raise ValueError(f"fault targets missing link: router "
                                 f"{ev.router} port {ev.port}")
        events.extend(self._draw(run_seed, mesh))
        events.sort(key=lambda e: (e.at, e.kind, e.router, e.port))
        return events

    def _draw(self, run_seed: int, mesh) -> list[FaultEvent]:
        if self.rate <= 0:
            return []
        import numpy as np
        rng = np.random.default_rng(
            [run_seed & 0x7FFFFFFF, self.seed & 0x7FFFFFFF, 0xFA017])
        span = self.stop - self.start
        n = int(rng.poisson(self.rate * span))
        out = []
        for _ in range(n):
            at = self.start + int(rng.integers(span))
            kind = self.kinds[int(rng.integers(len(self.kinds)))]
            router = int(rng.integers(mesh.n_routers))
            duration = max(1, int(rng.exponential(self.mean_duration)))
            if kind in LINK_KINDS:
                ports = mesh.ports_of(router)
                port = ports[int(rng.integers(len(ports)))]
            elif kind == PORT_STALL:
                ports = [0] + mesh.ports_of(router)
                port = ports[int(rng.integers(len(ports)))]
            else:
                port = -1
            if kind == LINK_FAIL:
                duration = 0
            out.append(FaultEvent(kind, at, router, port, duration))
        return out

    # -- serialization ----------------------------------------------------
    def to_json(self) -> dict:
        return {
            "events": [e.to_json() for e in self.events],
            "rate": self.rate,
            "kinds": list(self.kinds),
            "start": self.start,
            "stop": self.stop,
            "mean_duration": self.mean_duration,
            "seed": self.seed,
        }

    @classmethod
    def from_json(cls, d: dict) -> "FaultPlan":
        return cls(events=tuple(FaultEvent.from_json(r)
                                for r in d.get("events", ())),
                   rate=d.get("rate", 0.0),
                   kinds=tuple(d.get("kinds", TRANSIENT_KINDS)),
                   start=d.get("start", 0),
                   stop=d.get("stop", 0),
                   mean_duration=d.get("mean_duration", 50),
                   seed=d.get("seed", 0))

    def token(self) -> str:
        """Canonical string form — stable across processes, used as the
        campaign cache-key component for fault points."""
        return self._token

    # cached: every cache lookup re-renders a fault point's wire form
    @cached_property
    def _token(self) -> str:
        return json.dumps(self.to_json(), sort_keys=True,
                          separators=(",", ":"))

    @classmethod
    def from_token(cls, token: str) -> "FaultPlan":
        return cls.from_json(json.loads(token))


def link_cut(router: int, port: int, at: int) -> FaultPlan:
    """Convenience: a single permanent directed-link failure."""
    return FaultPlan(events=(FaultEvent(LINK_FAIL, at, router, port),))


def fault_storm(rate: float, start: int, stop: int,
                kinds: tuple[str, ...] = TRANSIENT_KINDS,
                mean_duration: int = 50, seed: int = 0) -> FaultPlan:
    """Convenience: a purely stochastic transient-fault plan."""
    return FaultPlan(rate=rate, kinds=kinds, start=start, stop=stop,
                     mean_duration=mean_duration, seed=seed)
