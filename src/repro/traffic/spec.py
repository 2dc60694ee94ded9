"""The declarative scenario DSL: the phase schedule every open-loop
source runs.

A *scenario* describes a time-varying traffic requirement as data — the
idiom real NoC evaluation flows use (traffic requirements expressed as
declarative specs, application-shaped loads rather than one open-loop
Bernoulli rate).  A :class:`ScenarioSpec` is an ordered list of
:class:`PhaseSpec` entries; each phase pins, for a fixed number of
cycles, the Table-II pattern, the offered rate, an optional hotspot
destination skew, and an optional two-state MMPP (on/off burst)
modulation of the rate.  After the last phase the schedule wraps around,
so one spec drives open-loop runs of any length.  The paper's case —
one Table II pattern at one Bernoulli rate — is the one-phase schedule
:class:`~repro.traffic.synthetic.SyntheticTraffic` builds by default.

Specs are plain frozen dataclasses with a lossless canonical JSON form:
``to_json``/``from_json`` round-trip exactly, and :meth:`ScenarioSpec
.token` — the compact sorted-key JSON string — is the identity the
campaign layer hashes into cache keys (change any field of any phase and
every cached point keyed on the spec misses; re-issue the same spec and
it hits).

The compiler invariants the property tests enforce (DESIGN §16):

* phase durations partition the schedule exactly — every cycle belongs
  to exactly one phase window, with no gaps and no overlaps;
* the per-phase offered rate matches the spec within statistical
  tolerance;
* the same seed always reproduces the identical generation stream;
* ``from_json(to_json(spec)) == spec`` for every valid spec.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, replace
from pathlib import Path

#: Table II's patterns plus Bit Rotation / Bit Complement (Fig. 7) and
#: Bit Reverse; :mod:`repro.traffic.synthetic` holds their destinations.
PATTERNS = ("uniform", "transpose", "shuffle", "bit_rotation",
            "bit_complement", "bit_reverse")


@dataclass(frozen=True)
class BurstSpec:
    """Two-state MMPP (on/off) rate modulation for one phase.

    Dwell times are geometric: each cycle the chain leaves the *on*
    state with probability ``1/on_cycles`` and the *off* state with
    probability ``1/off_cycles`` (so the mean dwell times are
    ``on_cycles`` and ``off_cycles``).  While *on* the phase injects at
    its full rate; while *off* at ``rate * off_scale``.  Every phase
    occurrence starts *on*.
    """

    on_cycles: int
    off_cycles: int
    off_scale: float = 0.0

    def __post_init__(self):
        if self.on_cycles < 1 or self.off_cycles < 1:
            raise ValueError("burst dwell times must be >= 1 cycle")
        if not 0.0 <= self.off_scale <= 1.0:
            raise ValueError("burst off_scale must be in [0, 1]")

    @property
    def duty(self) -> float:
        """Long-run mean rate multiplier of the modulation."""
        on, off = self.on_cycles, self.off_cycles
        return (on + off * self.off_scale) / (on + off)

    def to_json(self) -> dict:
        return {"on_cycles": self.on_cycles, "off_cycles": self.off_cycles,
                "off_scale": self.off_scale}

    @classmethod
    def from_json(cls, d: dict) -> "BurstSpec":
        return cls(on_cycles=d["on_cycles"], off_cycles=d["off_cycles"],
                   off_scale=d.get("off_scale", 0.0))


@dataclass(frozen=True)
class PhaseSpec:
    """One phase: ``duration`` cycles of a fixed traffic requirement.

    ``hotspots`` is a weighted destination set ``((node, weight), ...)``;
    a ``hotspot_frac`` fraction of generated packets redirect their
    destination to a hotspot drawn by weight (the rest follow
    ``pattern``).  Hotspot node ids are validated against the mesh at
    ``bind`` time, not here — the spec is topology-agnostic data.
    """

    duration: int
    pattern: str = "uniform"
    rate: float = 0.05
    hotspot_frac: float = 0.0
    hotspots: tuple = ()
    burst: BurstSpec | None = None

    def __post_init__(self):
        object.__setattr__(self, "hotspots",
                           tuple((int(n), float(w)) for n, w in
                                 self.hotspots))
        if isinstance(self.burst, dict):
            object.__setattr__(self, "burst",
                               BurstSpec.from_json(self.burst))
        if self.duration < 1:
            raise ValueError("phase duration must be >= 1 cycle")
        if self.pattern not in PATTERNS:
            raise ValueError(f"unknown pattern {self.pattern!r}; "
                             f"choose from {PATTERNS}")
        if not 0.0 <= self.rate <= 1.0:
            raise ValueError("phase rate must be in [0, 1]")
        if not 0.0 <= self.hotspot_frac <= 1.0:
            raise ValueError("hotspot_frac must be in [0, 1]")
        if self.hotspot_frac > 0 and not self.hotspots:
            raise ValueError("hotspot_frac > 0 needs a hotspots set")
        for node, weight in self.hotspots:
            if node < 0:
                raise ValueError(f"hotspot node {node} is negative")
            if weight <= 0:
                raise ValueError(f"hotspot weight {weight} must be > 0")

    @property
    def mean_rate(self) -> float:
        """Long-run offered rate of this phase (burst duty applied)."""
        return self.rate * (self.burst.duty if self.burst else 1.0)

    def to_json(self) -> dict:
        out = {"duration": self.duration, "pattern": self.pattern,
               "rate": self.rate}
        if self.hotspot_frac:
            out["hotspot_frac"] = self.hotspot_frac
        if self.hotspots:
            out["hotspots"] = [[n, w] for n, w in self.hotspots]
        if self.burst is not None:
            out["burst"] = self.burst.to_json()
        return out

    @classmethod
    def from_json(cls, d: dict) -> "PhaseSpec":
        burst = d.get("burst")
        return cls(duration=d["duration"],
                   pattern=d.get("pattern", "uniform"),
                   rate=d.get("rate", 0.05),
                   hotspot_frac=d.get("hotspot_frac", 0.0),
                   hotspots=tuple(tuple(h) for h in d.get("hotspots", ())),
                   burst=BurstSpec.from_json(burst) if burst else None)


@dataclass(frozen=True)
class ScenarioSpec:
    """A named, periodic sequence of phases."""

    name: str
    phases: tuple = ()
    #: bumped when the JSON layout changes incompatibly; ``from_json``
    #: refuses other versions loudly instead of misreading them.
    schema: int = field(default=1, compare=False)

    SCHEMA = 1

    def __post_init__(self):
        object.__setattr__(
            self, "phases",
            tuple(PhaseSpec.from_json(p) if isinstance(p, dict) else p
                  for p in self.phases))
        if not self.name or not all(
                c.isalnum() or c in "_-." for c in self.name):
            raise ValueError(
                f"scenario name {self.name!r} must be non-empty "
                "[A-Za-z0-9_.-] (it becomes part of the point pattern)")
        if not self.phases:
            raise ValueError("a scenario needs at least one phase")
        if self.schema != self.SCHEMA:
            raise ValueError(
                f"scenario schema {self.schema} unsupported; this build "
                f"reads schema {self.SCHEMA}")

    # -- the phase clock ------------------------------------------------
    @property
    def total_cycles(self) -> int:
        """Length of one period of the phase schedule."""
        return sum(p.duration for p in self.phases)

    def boundaries(self) -> list[int]:
        """Cumulative phase boundaries within one period, ending at
        ``total_cycles`` (``len(phases) + 1`` entries, starting at 0)."""
        out = [0]
        for p in self.phases:
            out.append(out[-1] + p.duration)
        return out

    def window_at(self, cycle: int) -> tuple[int, int, int]:
        """The phase occurrence containing ``cycle``: returns
        ``(phase_index, occ_start, occ_end)`` in absolute cycles, with
        ``occ_start <= cycle < occ_end``.  Phases repeat with period
        :attr:`total_cycles`."""
        if cycle < 0:
            raise ValueError("cycle must be non-negative")
        total = self.total_cycles
        base = cycle - cycle % total
        offset = cycle - base
        lo = 0
        for i, p in enumerate(self.phases):
            hi = lo + p.duration
            if offset < hi:
                return i, base + lo, base + hi
            lo = hi
        raise AssertionError("phase walk fell off the period")  # pragma: no cover

    def mean_rate(self) -> float:
        """Duration-weighted long-run offered rate of the scenario."""
        total = self.total_cycles
        return sum(p.duration * p.mean_rate for p in self.phases) / total

    def scaled(self, factor: float) -> "ScenarioSpec":
        """A copy with every phase rate multiplied by ``factor`` (capped
        at 1.0) — the sweep knob for load scaling a scenario."""
        if factor <= 0:
            raise ValueError("scale factor must be positive")
        return replace(self, phases=tuple(
            replace(p, rate=min(1.0, p.rate * factor))
            for p in self.phases))

    # -- canonical JSON (the cache-key basis) ---------------------------
    def to_json(self) -> dict:
        return {"name": self.name, "schema": self.SCHEMA,
                "phases": [p.to_json() for p in self.phases]}

    @classmethod
    def from_json(cls, d: dict) -> "ScenarioSpec":
        return cls(name=d["name"],
                   phases=tuple(PhaseSpec.from_json(p)
                                for p in d["phases"]),
                   schema=d.get("schema", cls.SCHEMA))

    def token(self) -> str:
        """Compact canonical JSON string — the spec's identity.  Rides
        in a point's wire meta so the content-addressed run cache keys on
        the full spec, not just its name."""
        return json.dumps(self.to_json(), sort_keys=True,
                          separators=(",", ":"))

    @classmethod
    def from_token(cls, token: str) -> "ScenarioSpec":
        return cls.from_json(json.loads(token))

    def sha(self) -> str:
        """Short content hash, for artifact names and trace headers."""
        return hashlib.sha256(self.token().encode()).hexdigest()[:16]


# ----------------------------------------------------------------------
# Built-in scenario library.  Hotspot ids stay below 16 so every spec
# binds on a 4x4 mesh and larger.

SCENARIOS: dict[str, ScenarioSpec] = {
    "bursty": ScenarioSpec("bursty", (
        PhaseSpec(duration=512, pattern="uniform", rate=0.12,
                  burst=BurstSpec(on_cycles=64, off_cycles=192,
                                  off_scale=0.1)),
        PhaseSpec(duration=256, pattern="uniform", rate=0.02),
    )),
    "hotspot_shift": ScenarioSpec("hotspot_shift", (
        PhaseSpec(duration=256, pattern="uniform", rate=0.06,
                  hotspot_frac=0.5, hotspots=((0, 3.0), (5, 1.0))),
        PhaseSpec(duration=256, pattern="uniform", rate=0.06,
                  hotspot_frac=0.5, hotspots=((10, 1.0), (15, 3.0))),
    )),
    "mixed_lanes": ScenarioSpec("mixed_lanes", (
        PhaseSpec(duration=256, pattern="uniform", rate=0.05),
        PhaseSpec(duration=256, pattern="transpose", rate=0.08),
        PhaseSpec(duration=256, pattern="shuffle", rate=0.05),
    )),
    "ramp": ScenarioSpec("ramp", (
        PhaseSpec(duration=256, pattern="uniform", rate=0.02),
        PhaseSpec(duration=256, pattern="uniform", rate=0.08),
        PhaseSpec(duration=256, pattern="uniform", rate=0.16),
        PhaseSpec(duration=256, pattern="uniform", rate=0.04),
    )),
}


def get_scenario(name_or_path: str | Path) -> ScenarioSpec:
    """Resolve a scenario: a library name, or a path to a JSON file."""
    name = str(name_or_path)
    if name in SCENARIOS:
        return SCENARIOS[name]
    path = Path(name)
    if path.suffix == ".json" or path.exists():
        with open(path) as fh:
            return ScenarioSpec.from_json(json.load(fh))
    raise ValueError(
        f"unknown scenario {name!r}: not in the library "
        f"({', '.join(sorted(SCENARIOS))}) and no such JSON file")
