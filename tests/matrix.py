"""The declared conformance matrix: every (scheme, workload, fault plan,
topology) cell, with its axes read from the code.

A cell is one ``Point`` run through ``worker.execute_point``, as a
campaign runs it.  A *native* cell must pass :func:`check`: the same
``RunResult`` under ``engine="naive"`` with observability and a tracer
attached (and bus counters that agree with the engine's books),
``ejected <= injected``, its traffic delivered, no FastPass deadlock,
zero liveness violations (for FastPass the Sec. III-C bound, 2 x
rotation + phase) and Lemmas 1 and 2 on the slots a FastPass run used
(``tests/lemmas.py``), with paranoia audits throughout.

``DECLARED`` lists every other cell as ``fallback(reason, ...)`` (the run
ends but does not honour the cell) or ``unsupported(error)`` (it
raises).  A declared cell must fall back or fail exactly as declared, so
a fixed hole fails its cell until its row is deleted.

``pytest tests/matrix.py`` runs the full product (a nightly CI job does);
tier-1 runs :data:`SAMPLE` from ``tests/integration/test_matrix.py``.  A
new row (OQ/VOQ, say) is a registered scheme; a new column (a graph
topology) is a :data:`TOPOLOGIES` entry with its geometry in
:func:`workload`, :func:`fault_plan`, :attr:`Cell.cfg` and :data:`COST`.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
import re
import typing
from dataclasses import dataclass
from functools import cached_property

import pytest

from repro.campaign import worker
from repro.config import RunResult, SimConfig
from repro.fault.plan import fault_storm, link_cut
from repro.network.topology import PORT_E
from repro.schemes import get_scheme, scheme_names
from repro.sim.parallel import Point
from repro.sim.workload import (App, Irregular, Scenario, Stress, Synthetic,
                                Workload)
from repro.traffic.spec import SCENARIOS
from tests import lemmas

#: scheme axis: (id, registry name, kwargs)
SCHEMES = tuple((name, name, ()) for name in scheme_names()) + (
    ("fastpass-vc1", "fastpass", (("n_vcs", 1),)),)
WORKLOADS = tuple(kind.__name__.lower()
                  for kind in typing.get_args(Workload))
FAULTS = ("none", "transient", "permanent")
TOPOLOGIES = ("4x4", "8x8", "16x16", "4x6")
AXES = ("scheme", "workload", "faults", "topology")

#: median seconds x 100 of a native cell per topology column (the full
#: product on one 2-core x86 host): what the tier-1 pairwise cover spends
COST = {            # 4x4  8x8 16x16  4x6
    "synthetic":      (5,   8,  26,   3),
    "app":            (6,   6,  40,   8),
    "stress":        (10,  26,  77,  11),
    "scenario":       (3,  26,  24,   3),
    "irregular":      (1,   1,   3,   1),
}


def workload(kind: str, rows: int, cols: int):
    """One kind's workload on a rows x cols mesh: a fraction of a second
    per cell, loaded enough that heads block (retry memos and credit
    wakeups get exercised), below saturation.  The open-loop kinds offer
    every mesh the share of bisection bandwidth that uniform 0.08 and
    the scenario library offer 4x4."""
    share = 4 / max(rows, cols)
    if kind == "synthetic":
        return Synthetic("uniform", 0.08 * share)
    if kind == "app":
        return App("Radix", max(1, 96 // (rows * cols)), 3000)
    if kind == "stress":
        return Stress(800 // max(rows, cols))
    if kind == "scenario":
        # one library scenario per mesh; mixed_lanes' transpose phase
        # needs a square mesh
        spec = SCENARIOS[{"4x4": "mixed_lanes", "8x8": "hotspot_shift"}
                         .get(f"{rows}x{cols}", "bursty")]
        return Scenario(dataclasses.replace(spec, phases=tuple(
            dataclasses.replace(p, rate=p.rate * share)
            for p in spec.phases)))
    if kind == "irregular":
        return Irregular(f"mesh:{rows}x{cols}", cols)
    raise ValueError(f"workload kind {kind!r} has no matrix workload yet")


def fault_plan(faults: str, rows: int, cols: int):
    """A transient storm, or a central eastbound link cut early enough
    for the shortest closed-loop cells (about a hundred cycles)."""
    if faults == "transient":
        return fault_storm(0.03, start=10, stop=310, mean_duration=40,
                           seed=5)
    if faults == "permanent":
        return link_cut((rows // 2) * cols + cols // 2, PORT_E, at=20)
    return None


@dataclass(frozen=True)
class Cell:
    scheme: str
    workload: str
    faults: str
    topology: str

    def __str__(self) -> str:
        return "-".join(self.coords)

    @property
    def coords(self) -> tuple[str, str, str, str]:
        return (self.scheme, self.workload, self.faults, self.topology)

    @property
    def cost(self) -> int:
        return COST[self.workload][TOPOLOGIES.index(self.topology)]

    @cached_property
    def shape(self) -> tuple[int, int]:
        rows, cols = self.topology.split("x")
        return int(rows), int(cols)

    @cached_property
    def point(self) -> Point:
        _, name, kwargs = next(s for s in SCHEMES if s[0] == self.scheme)
        return Point(name, workload(self.workload, *self.shape), kwargs,
                     faults=fault_plan(self.faults, *self.shape))

    @cached_property
    def cfg(self) -> SimConfig:
        # Windows shrink as the mesh grows, so every open-loop cell
        # measures about as many packets; DRAIN drains, SWAP swaps and
        # the FastPass schedule rotates inside the run.
        k = max(self.shape)
        return SimConfig(*self.shape, seed=7, warmup_cycles=200 // k,
                         measure_cycles=800 // k, drain_cycles=1200,
                         watchdog_cycles=800, fastpass_slot_cycles=64,
                         drain_period_cycles=75, swap_duty_cycles=400 // k,
                         paranoia=5 * k // 2, liveness_audit=True)


PRODUCT = tuple(Cell(s[0], w, f, t) for s in SCHEMES for w in WORKLOADS
                for f in FAULTS for t in TOPOLOGIES)


# -- Declarations ---------------------------------------------------------

@dataclass(frozen=True)
class Outcome:
    kind: str                              # native | fallback | unsupported
    detail: frozenset | str = frozenset()  # reasons | error pattern

    def __str__(self) -> str:
        detail = ", ".join(sorted(self.detail)) \
            if self.kind == "fallback" else self.detail
        return f"{self.kind}({detail})"


NATIVE = Outcome("native")


def fallback(*reasons: str) -> Outcome:
    return Outcome("fallback", frozenset(reasons))


def unsupported(error: str) -> Outcome:
    return Outcome("unsupported", error)


#: the reasons :func:`observe` reports
IGNORES_SCHEME = "ignores its scheme"
IGNORES_FAULTS = "ignores its fault plan"
NEVER_FAULTS = "ends before its fault plan fires"
WEDGES = "wedges"
UNDELIVERED = "leaves traffic undelivered"

SIMULATED = ("synthetic", "app", "stress", "scenario")
NOT_FASTPASS = tuple(s[0] for s in SCHEMES if s[1] != "fastpass")
NO_REROUTE = tuple(s[0] for s in SCHEMES if not get_scheme(s[1]).reroutes)
PERMANENT = {"faults": ("permanent",)}

#: every cell that is not native: (axis -> values it covers, outcome);
#: an axis left out covers all its values
DECLARED = (
    # The mesh TDM schedule needs concurrent primes on distinct rows;
    # Sec. III-F's segmentation (the irregular workload) is the route.
    ({"scheme": ("fastpass", "fastpass-vc1"), "workload": SIMULATED,
      "topology": ("4x6",)}, unsupported("requires a square mesh")),
    # An irregular point derives the FastPass schedule of its graph,
    # whatever scheme and fault plan it names.
    ({"scheme": NOT_FASTPASS, "workload": ("irregular",)},
     fallback(IGNORES_SCHEME)),
    ({"workload": ("irregular",), "faults": ("transient", "permanent")},
     fallback(IGNORES_FAULTS)),
    # A cut link strands what crosses it under a scheme that does not
    # reroute (``Scheme.reroutes`` is False): open-loop traffic stays
    # undelivered, a closed loop waiting on it wedges.  Whether a cell
    # meets the cut depends on its routes and traffic.
    ({"scheme": ("baseline", "tfc"), "workload": ("synthetic",),
      "topology": ("4x4", "4x6"), **PERMANENT}, fallback(UNDELIVERED)),
    ({"scheme": ("baseline", "pitstop", "tfc"), "workload": ("scenario",),
      "topology": ("8x8", "4x6"), **PERMANENT}, fallback(UNDELIVERED)),
    ({"scheme": ("baseline", "minbd", "tfc"), "workload": ("app",),
      "topology": ("4x4", "4x6"), **PERMANENT}, fallback(WEDGES)),
    ({"scheme": ("pitstop",), "workload": ("app",), "topology": ("16x16",),
      **PERMANENT}, fallback(WEDGES)),
    # hotspot_shift sends half of all traffic to two hot nodes, at the
    # edge of their ejection ports; with one VC FastPass drains that
    # backlog more slowly than it arrives (the watchdog stays quiet and
    # nothing breaks the delivery bound).
    ({"scheme": ("fastpass-vc1",), "workload": ("scenario",),
      "topology": ("8x8",)}, fallback(UNDELIVERED)),
)


def covers(axes: dict, cell: Cell) -> bool:
    return all(getattr(cell, axis) in values
               for axis, values in axes.items())


def declared(cell: Cell) -> Outcome:
    """An ``unsupported`` row wins; ``fallback`` rows pool reasons."""
    reasons: set[str] = set()
    for axes, outcome in DECLARED:
        if covers(axes, cell):
            if outcome.kind == "unsupported":
                return outcome
            reasons |= outcome.detail
    return fallback(*reasons) if reasons else NATIVE


def observe(cell: Cell, res: RunResult) -> Outcome:
    """What a run that ended did, in the table's terms."""
    scheme = get_scheme(cell.point.scheme, **dict(cell.point.scheme_kwargs))
    reasons = set()
    if res.scheme not in (scheme.name, scheme.label):
        reasons.add(IGNORES_SCHEME)
    if cell.faults != "none":
        if "faults" not in res.extra:
            reasons.add(IGNORES_FAULTS)
        elif not res.extra["faults"]["applied"]:
            reasons.add(NEVER_FAULTS)
    if res.deadlocked:
        reasons.add(WEDGES)
    elif cell.workload in ("synthetic", "scenario") \
            and res.extra["undelivered"] \
            or res.extra.get("completed", 0) < res.extra.get("total", 0):
        reasons.add(UNDELIVERED)
    return fallback(*reasons) if reasons else NATIVE


# -- The check ------------------------------------------------------------

@pytest.fixture
def instruments(monkeypatch):
    """Every network built under ``engine="naive"`` gets observability
    (sampling every 7 cycles) and a packet tracer; yields the
    ``(net, obs, tracer)`` triples."""
    from repro.obs import Observability
    from repro.obs.events import PacketTracer
    from repro.sim import engine

    attached = []
    build = engine.build_network

    def build_instrumented(cfg, scheme):
        net = build(cfg, scheme)
        if cfg.engine == "naive":
            attached.append((net, Observability(sample_every=7).attach(net),
                             PacketTracer(net)))
        return net

    monkeypatch.setattr(engine, "build_network", build_instrumented)
    return attached


def same(a, b) -> bool:
    return a == b or (isinstance(a, float) and isinstance(b, float)
                      and math.isnan(a) and math.isnan(b))


def assert_results_equal(got: RunResult, want: RunResult, label: str) -> None:
    for f in dataclasses.fields(want):
        va, vb = getattr(got, f.name), getattr(want, f.name)
        assert same(va, vb), \
            f"{label}: field {f.name!r} differs: {va!r} != {vb!r}"


def check(cell: Cell, instruments: list) -> None:
    """Run ``cell``, hold it to its declaration, and hold a native cell
    to every conformance check."""
    want = declared(cell)
    try:
        res = worker.execute_point(cell.point, cell.cfg)
    except Exception as exc:  # noqa: BLE001 - the outcome under test
        assert want.kind == "unsupported" \
            and re.search(want.detail, str(exc)), \
            f"{cell}: declared {want}, raised {exc!r}"
        return
    if cell.point.scheme == "fastpass":
        assert not res.deadlocked, f"{cell}: FastPass deadlocked"
    got = observe(cell, res)
    assert got == want, f"{cell}: declared {want}, observed {got}"
    if want.kind != "native":
        return
    naive = worker.execute_point(cell.point, cell.cfg.with_(engine="naive"))
    assert_results_equal(naive, res, f"{cell} naive+observed vs active")
    assert res.liveness_violations == 0, res.extra.get("liveness")
    if cell.workload in SIMULATED:
        assert instruments and res.ejected > 0, cell
    for net, obs, tracer in instruments:
        reg = obs.registry
        counters = reg.to_json()["counters"]
        assert counters["noc_injected_total"] == res.injected
        assert counters["noc_ejected_total"] == res.ejected
        assert counters["noc_dropped_total"] == res.dropped
        hist = reg.get("noc_packet_latency_cycles")
        assert hist.count == net.stats.ejected_measured
        assert hist.sum == sum(net.stats.latencies)
        assert obs.sampler.series["noc_packets_in_flight"]
        assert tracer.counts().get("ejected", 0) == res.ejected
        if cell.faults != "none":
            assert reg.get("noc_fault_events_total").total() > 0
        # a packet for its own node is ejected without entering the net
        local = sum([e.kind for e in evs] == ["generated", "ejected"]
                    for evs in tracer.events.values())
        assert res.ejected - local <= res.injected, cell
        manager = getattr(net, "fastpass", None)
        if manager is not None:
            assert reg.get("noc_upgrades_total").total() \
                >= res.fastpass_delivered
            assert counters["noc_lane_slots_total"] > 0
            lemmas.check_lanes(manager.schedule, net.cycle)


# -- The tier-1 sample ----------------------------------------------------

def pairs(cell: Cell) -> set:
    return set(itertools.combinations(enumerate(cell.coords), 2))


def pairwise_sample(product=PRODUCT) -> tuple:
    """A greedy, deterministic pairwise cover of the four axes: each
    pick covers the most pairs still uncovered per unit of
    :attr:`Cell.cost`.  A pair counts as covered only by a native cell,
    unless no native cell has it."""
    native = [c for c in product if declared(c) == NATIVE]
    todo = set().union(*map(pairs, product))
    chosen = []
    for pool in (native, product):
        while True:
            best = max(pool, key=lambda c: len(pairs(c) & todo) / c.cost)
            if not pairs(best) & todo:
                break
            chosen.append(best)
            todo -= pairs(best)
    return tuple(chosen)


SAMPLE = pairwise_sample()


@pytest.mark.parametrize("cell", PRODUCT, ids=str)
def test_cell(cell, instruments):
    check(cell, instruments)
