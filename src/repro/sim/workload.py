"""What a campaign point runs: one small frozen family of workloads.

Each kind's ``run(point, cfg)`` is the whole body of a
:class:`~repro.sim.parallel.Point` and each writes its own wire
``pattern`` / ``rate`` / ``meta``; :func:`decode` is the one place a
pattern prefix is read back.  The two open-loop kinds are one
:class:`OpenLoop`: a synthetic pattern is the one-phase schedule, a
scenario its spec, and both run through the same body.  This module
is under ``sim/``, so the cache salt hashes it: a change to what a
point computes misses the cache (DESIGN §8).
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, ClassVar

from repro.config import RunResult, SimConfig

if TYPE_CHECKING:
    from repro.traffic.spec import ScenarioSpec
    from repro.traffic.synthetic import SyntheticTraffic


def metrics_setting() -> int:
    """``REPRO_METRICS``: N > 0 attaches observability to every point and
    samples its gauge time series every N cycles."""
    raw = os.environ.get("REPRO_METRICS") or "0"
    try:
        return int(raw)
    except ValueError:
        raise ValueError("REPRO_METRICS must be an integer number of "
                         f"cycles, got {raw!r}") from None


def _setup(point, cfg: SimConfig):
    """The point's scheme instance, ``cfg`` under its fault plan, and its
    seed: ``point.seed``, else ``cfg.seed``."""
    from repro.schemes import get_scheme
    scheme = get_scheme(point.scheme, **dict(point.scheme_kwargs))
    seed = cfg.seed if point.seed is None else point.seed
    if point.faults:
        cfg = cfg.with_(fault_plan=point.faults)
    return scheme, cfg, seed


class OpenLoop:
    """What :class:`Synthetic` and :class:`Scenario` share: open-loop
    traffic from a phase schedule (``spec``; None is the one-phase
    schedule of ``pattern`` at ``rate``) and one run body."""

    def traffic(self, seed: int, stop: int | None = None
                ) -> SyntheticTraffic:
        from repro.traffic.synthetic import SyntheticTraffic
        return SyntheticTraffic(self.pattern, self.rate, seed=seed,
                                stop=stop, spec=self.spec)

    def run(self, point, cfg: SimConfig) -> RunResult:
        from repro.sim.engine import Simulation
        from repro.sim.runner import run_open_loop
        scheme, cfg, seed = _setup(point, cfg)
        sim = Simulation(cfg, scheme, self.traffic(seed, point.traffic_stop))
        return run_open_loop(sim, metrics=metrics_setting())


@dataclass(frozen=True)
class Synthetic(OpenLoop):
    """Open-loop synthetic traffic; the wire pattern is ``pattern``."""

    spec: ClassVar[None] = None

    pattern: str
    rate: float

    def wire_meta(self) -> tuple:
        return ()


@dataclass(frozen=True)
class App:
    """``txns`` transactions per core of a benchmark's coherence preset,
    run to completion (or ``max_cycles``): ``app:<benchmark>``."""

    kind: ClassVar[str] = "app"
    rate: ClassVar[float] = 0.0

    benchmark: str
    txns: int
    max_cycles: int

    @property
    def pattern(self) -> str:
        return f"app:{self.benchmark}"

    def wire_meta(self) -> tuple:
        return (("max_cycles", self.max_cycles), ("txns", self.txns))

    @classmethod
    def decode(cls, name: str, rate: float, meta: dict) -> "App":
        return cls(name, meta.pop("txns"), meta.pop("max_cycles"))

    def run(self, point, cfg: SimConfig) -> RunResult:
        from repro.sim.engine import Simulation
        from repro.traffic.workloads import workload_traffic
        scheme, cfg, seed = _setup(point, cfg)
        traffic = workload_traffic(self.benchmark, txns_per_core=self.txns,
                                   seed=seed)
        sim = Simulation(cfg, scheme, traffic)
        res = sim.run_to_completion(max_cycles=self.max_cycles)
        res.extra["benchmark"] = self.benchmark
        res.extra["completed"] = traffic.completed
        res.extra["total"] = traffic.total_txns
        res.engine_used = sim.engine_used
        return res


@dataclass(frozen=True)
class Stress:
    """The adversarial protocol-pressure probe, ``stress:protocol``;
    ``extra["traffic_done"]`` says whether every transaction retired."""

    kind: ClassVar[str] = "stress"
    rate: ClassVar[float] = 0.0
    pattern: ClassVar[str] = "stress:protocol"

    max_cycles: int

    def wire_meta(self) -> tuple:
        return (("max_cycles", self.max_cycles),)

    @classmethod
    def decode(cls, name: str, rate: float, meta: dict) -> "Stress":
        if name != "protocol":
            raise ValueError(f"unknown stress workload {name!r}")
        return cls(meta.pop("max_cycles"))

    def run(self, point, cfg: SimConfig) -> RunResult:
        from repro.sim.engine import Simulation
        from repro.traffic.workloads import deadlock_traffic
        scheme, cfg, seed = _setup(point, cfg)
        sim = Simulation(cfg, scheme, deadlock_traffic(seed=seed))
        res = sim.run_to_completion(max_cycles=self.max_cycles)
        res.extra["traffic_done"] = sim.traffic.done()
        res.extra["completed"] = sim.traffic.completed
        res.engine_used = sim.engine_used
        return res


@dataclass(frozen=True)
class Scenario(OpenLoop):
    """A declarative scenario, ``scenario:<name>`` at its mean rate.  The
    spec's full token rides in the meta, so the cache keys on its
    content, not its name."""

    kind: ClassVar[str] = "scenario"

    spec: ScenarioSpec

    @property
    def pattern(self) -> str:
        return f"scenario:{self.spec.name}"

    # cached: every cache lookup re-renders the point's wire form
    @cached_property
    def rate(self) -> float:
        return self.spec.mean_rate()

    @cached_property
    def _token(self) -> str:
        return self.spec.token()

    def wire_meta(self) -> tuple:
        return (("scenario", self._token),)

    @classmethod
    def decode(cls, name: str, rate: float, meta: dict) -> "Scenario":
        from repro.traffic.spec import ScenarioSpec
        return cls(ScenarioSpec.from_token(meta.pop("scenario")))


@dataclass(frozen=True)
class Irregular:
    """Derive, verify and characterise FastPass partitions of a named
    graph, ``irregular:<topology>``.  §III-F's claims live at the
    schedule level, so a point runs the derivation chain of
    :mod:`repro.core.irregular` with ``verify_segments`` as a hard gate
    and reports the schedule analytics.  The schedule is
    topology-intrinsic: ``cfg`` keys the point but does not shape it."""

    kind: ClassVar[str] = "irregular"
    rate: ClassVar[float] = 0.0

    topology: str
    partitions: int
    slot_cycles: int = 32

    @property
    def pattern(self) -> str:
        return f"irregular:{self.topology}"

    def wire_meta(self) -> tuple:
        return (("partitions", self.partitions),
                ("slot_cycles", self.slot_cycles))

    @classmethod
    def decode(cls, name: str, rate: float, meta: dict) -> "Irregular":
        return cls(name, meta.pop("partitions"), meta.pop("slot_cycles"))

    def run(self, point, cfg: SimConfig) -> RunResult:
        """Raises if the §III-F guarantees do not hold."""
        from repro.core.irregular import (IrregularSchedule, build_graph,
                                          verify_segments)
        graph = build_graph(self.topology)
        sched = IrregularSchedule(graph, self.partitions, self.slot_cycles)
        verify_segments(graph, sched.segments)
        if not sched.covers_all():
            raise AssertionError(
                f"{self.topology}: schedule does not cover every router")
        seg_lens = [len(s) for s in sched.segments]
        res = RunResult(scheme="fastpass")
        res.cycles = sched.rotation_len
        res.extra.update({
            "topology": self.topology,
            "routers": graph.number_of_nodes(),
            "channels": graph.number_of_edges(),
            "circuit_len": sum(seg_lens),
            "partitions": sched.P,
            "slot_cycles": sched.K,
            "segment_min": min(seg_lens),
            "segment_max": max(seg_lens),
            "phase_len": sched.phase_len,
            "rotation_len": sched.rotation_len,
            # Sec. III-C delivery bound, as certified by the liveness
            # auditor on meshes: any packet is delivered within two full
            # rotations plus one phase.
            "delivery_bound": 2 * sched.rotation_len + sched.phase_len,
            "covers_all": True,
            "rate": self.rate,
            "pattern": self.pattern,
        })
        return res


Workload = Synthetic | App | Stress | Scenario | Irregular

#: pattern prefix -> kind; an unprefixed pattern is :class:`Synthetic`
KINDS: dict[str, type] = {k.kind: k for k in
                          (App, Stress, Scenario, Irregular)}


def decode(pattern: str, rate: float, meta: dict):
    """The workload a wire ``pattern`` / ``rate`` / ``meta`` names; pops
    the kind's own keys from ``meta``."""
    prefix, sep, name = pattern.partition(":")
    if not sep:
        return Synthetic(pattern, rate)
    if prefix not in KINDS:
        raise ValueError(f"unknown workload kind {prefix!r} in pattern "
                         f"{pattern!r}")
    return KINDS[prefix].decode(name, rate, meta)
