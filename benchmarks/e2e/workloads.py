"""The six workloads of the end-to-end benchmark.

Every workload makes its inputs from the seed alone (``points``), prepares
outside the timed region (``setup``), runs one closed-loop pass of calls
into the program (``run`` — the timed region), and then checks what came
back (``finish``).  The program only ever sees the generated points.

Sizing.  The driver allows about 25 s per invocation including set-up, and
an invocation reports medians over several fresh-process passes, so one
pass is sized to 2-3 s on the 2-core reference box — the ISSUE's 10-18 s
point lists cut along the axis that leaves each regime intact:

* ``kernel_sparse`` keeps all three schemes on two of the four patterns
  (one permutation, one random) and the two outer rates: 12 points.
* ``kernel_dense`` keeps its four points and trims every window (the
  saturated regime costs the same per cycle however long it runs).
* ``apps_closed`` keeps the 3x3 scheme x application grid at 24
  transactions per core instead of 100.
* ``fig7_*`` keep both schemes and all four seeds (so the seed fold still
  makes batches of four) on the first two quick rates: 16 points.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import random
import time
from contextlib import nullcontext
from pathlib import Path

from repro import campaign
# The traced pass wraps entry points where they are defined: reach the
# traced functions through their modules, never through a copied name.
from repro.campaign import worker
from repro.config import RunResult, SimConfig
from repro.experiments import common, fig7
from repro.experiments.common import (FIG7_SCHEMES, app_config,
                                      synthetic_config)
from repro.schemes import get_scheme
from repro.sim.engine import Simulation
from repro.sim.parallel import Point
from repro.traffic.synthetic import SyntheticTraffic

FASTPASS4 = ("fastpass", {"n_vcs": 4})
ESCAPEVC = ("escapevc", {})
SPIN = ("spin", {})

#: fig7 slice shared by the three campaign workloads
FIG7_PATTERN = "transpose"
FIG7_RATES = fig7.QUICK_RATES[:2]
FIG7_SCHEMES_USED = [s for s in FIG7_SCHEMES
                     if s[0] in ("FastPass", "EscapeVC")]
N_SEEDS = 4
#: replays of the all-hits sweep in one ``fig7_warm`` pass (~1.3 ms each)
WARM_REPLAYS = 1600


def window_fields(cfg: SimConfig) -> dict:
    return {"rows": cfg.rows, "cols": cfg.cols,
            "warmup_cycles": cfg.warmup_cycles,
            "measure_cycles": cfg.measure_cycles,
            "drain_cycles": cfg.drain_cycles}


def canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def digest_of(results: list[RunResult], extra=None) -> str:
    """sha256 over the fields a simulator-only change must leave
    identical — ``RESULT_FIELDS`` + ``throughput`` of every result in
    order — and whatever else the workload returned (``extra``)."""
    from repro.experiments.perf import RESULT_FIELDS
    fields = (*RESULT_FIELDS, "throughput")
    payload = {"rows": [[getattr(r, f) for f in fields] for r in results],
               "extra": extra}
    return hashlib.sha256(canonical(payload).encode()).hexdigest()


def same_result(a: RunResult, b: RunResult) -> bool:
    """Field-by-field equality (NaN equals NaN)."""
    return canonical(dataclasses.asdict(a)) == \
        canonical(dataclasses.asdict(b))


def broken(res: RunResult, rate: float, is_fastpass: bool) -> str | None:
    """Why a result counts as failed, or None."""
    if res.extra.get("failed"):
        return f"failed_result: {res.extra.get('error')}"
    if is_fastpass and res.deadlocked:
        return "FastPass point deadlocked"
    if rate > 0:
        # open-loop points only: a closed-loop run also ejects the
        # packets its nodes deliver to themselves, which never inject
        if res.ejected > res.injected:
            return f"ejected {res.ejected} > injected {res.injected}"
        if res.ejected == 0:
            return f"nothing ejected at rate {rate}"
    return None


@dataclasses.dataclass
class Env:
    """What a pass is given: its seed, scratch directory, worker count."""

    seed: int
    work_dir: Path
    nproc: int


@dataclasses.dataclass
class Outcome:
    cycles: int            # simulated cycles returned by the timed region
    attempted: int
    failed: int
    digest: str
    notes: list[str]


def _span(tracer, name: str, request: bool = False):
    if tracer is None:
        return nullcontext()
    return tracer.span(name, "bench", request=request)


def _configure(env: Env, sub: str, jobs: int | None,
               campaign_name: str | None):
    """Point the ambient campaign context at a fresh directory under the
    pass's scratch space (never the repo's ``results/``)."""
    root = env.work_dir / sub
    campaign.reset()
    return campaign.configure(cache_dir=root / "cache",
                              campaign_dir=root / "campaigns",
                              jobs=jobs, campaign=campaign_name,
                              enabled=True)


# -- direct kernel workloads ------------------------------------------------

class DirectKernel:
    """``Simulation(...).run()`` per point on the default engine: the
    cycle kernel and network construction do all the work, the campaign
    layers none."""

    def __init__(self, name: str, specs, crosscheck: int = 0):
        self.name = name
        #: called when points are made, so importing this module stays
        #: cheap for the workloads that need none of it
        self.specs = specs
        #: how many of the cheapest points the traced pass re-runs under
        #: the naive engine and with observability attached
        self.crosscheck = crosscheck

    def points(self, seed: int) -> list[dict]:
        rng = random.Random(seed)
        return [{"scheme": scheme, "kwargs": kwargs, "pattern": pattern,
                 "rate": rate, "cfg": window_fields(cfg),
                 "traffic_seed": rng.randrange(1, 2 ** 31)}
                for (scheme, kwargs), pattern, rate, cfg in self.specs()]

    def setup(self, env: Env) -> dict:
        return {"points": self.points(env.seed)}

    @staticmethod
    def _run_point(p: dict, engine: str | None = None) -> RunResult:
        cfg = SimConfig(**p["cfg"])
        if engine is not None:
            cfg = cfg.with_(engine=engine)
        sim = Simulation(cfg, get_scheme(p["scheme"], **p["kwargs"]),
                         SyntheticTraffic(p["pattern"], p["rate"],
                                          seed=p["traffic_seed"]))
        return sim.run()

    def run(self, state: dict, tracer=None) -> list[RunResult]:
        out = []
        for p in state["points"]:
            with _span(tracer, "bench.point", request=True):
                out.append(self._run_point(p))
        return out

    def finish(self, state: dict, raw: list[RunResult]) -> Outcome:
        notes = []
        for p, res in zip(state["points"], raw):
            why = broken(res, p["rate"], p["scheme"] == "fastpass")
            if why:
                notes.append(f"{p['scheme']}/{p['pattern']}@{p['rate']}: "
                             f"{why}")
        return Outcome(cycles=sum(r.cycles for r in raw),
                       attempted=len(raw), failed=len(notes),
                       digest=digest_of(raw), notes=notes)

    def cheapest(self, state: dict) -> list[dict]:
        """The lowest-rate point of each scheme, first pattern."""
        low = min(p["rate"] for p in state["points"])
        seen, out = set(), []
        for p in state["points"]:
            if p["rate"] == low and p["scheme"] not in seen:
                seen.add(p["scheme"])
                out.append(p)
        return out[:self.crosscheck]

    def untraced_extras(self, state: dict, raw: list[RunResult],
                        env: Env) -> dict:
        """Naive-engine cross-check and the attached-observability tax on
        the cheapest points (runs with the tracer uninstalled)."""
        from repro.sim.runner import run_point
        notes = []
        bare_s = attached_s = 0.0
        events = 0
        picks = self.cheapest(state)
        for p in picks:
            ref = raw[state["points"].index(p)]
            if not same_result(self._run_point(p, engine="naive"), ref):
                notes.append(f"{p['scheme']}/{p['pattern']}@{p['rate']}: "
                             "naive engine disagrees")
            cfg = SimConfig(**p["cfg"])
            for metrics in (False, True):
                scheme = get_scheme(p["scheme"], **p["kwargs"])
                t0 = time.perf_counter()
                res = run_point(scheme, p["pattern"], p["rate"], cfg,
                                seed=p["traffic_seed"], metrics=metrics)
                dt = time.perf_counter() - t0
                if metrics:
                    attached_s += dt
                    events += res.extra["metrics"]["events"]
                else:
                    bare_s += dt
        return {"crosscheck_attempted": len(picks),
                "crosscheck_notes": notes,
                "obs.attached_tax": attached_s / bare_s - 1 if bare_s
                else 0.0,
                "obs.events": events}


def _sparse_specs() -> list[tuple]:
    cfg = synthetic_config(quick=True)
    return [(scheme, pattern, rate, cfg)
            for scheme in (FASTPASS4, ESCAPEVC, SPIN)
            for pattern in ("transpose", "uniform")
            for rate in (0.02, 0.10)]


def _dense_specs() -> list[tuple]:
    from repro.experiments.perf import soa_config
    small = synthetic_config(quick=True).with_(
        warmup_cycles=100, measure_cycles=300, drain_cycles=400)
    big = soa_config(16, 16, "active").with_(
        warmup_cycles=50, measure_cycles=150, drain_cycles=200)
    return [(FASTPASS4, "uniform", 0.3, small),
            (FASTPASS4, "transpose", 0.3, small),
            (ESCAPEVC, "uniform", 0.3, small),
            (("fastpass", {}), "uniform", 0.10, big)]


# -- closed-loop applications -------------------------------------------------

class AppsClosed:
    """``execute_point`` on closed-loop coherence traffic: the same kernel
    driven through the NI consume path and ``run_to_completion``."""

    name = "apps_closed"
    TXNS = 24
    APPS = ("Radix", "Canneal", "FFT")

    def points(self, seed: int) -> list[dict]:
        rng = random.Random(seed)
        return [Point.make_app(scheme, app, txns=self.TXNS,
                               seed=rng.randrange(1, 2 ** 31),
                               **kwargs).to_json()
                for scheme, kwargs in (FASTPASS4, ESCAPEVC, SPIN)
                for app in self.APPS]

    def setup(self, env: Env) -> dict:
        return {"points": [Point.from_json(p)
                           for p in self.points(env.seed)],
                "cfg": app_config(quick=False)}

    def run(self, state: dict, tracer=None) -> list[RunResult]:
        out = []
        for point in state["points"]:
            with _span(tracer, "bench.point", request=True):
                out.append(worker.execute_point(point, state["cfg"]))
        return out

    def finish(self, state: dict, raw: list[RunResult]) -> Outcome:
        notes = []
        for point, res in zip(state["points"], raw):
            why = broken(res, point.rate, point.scheme == "fastpass")
            if not why and res.extra.get("completed") != \
                    res.extra.get("total"):
                why = (f"retired {res.extra.get('completed')} of "
                       f"{res.extra.get('total')} transactions")
            if why:
                notes.append(f"{point.scheme}/{point.pattern}: {why}")
        return Outcome(cycles=sum(r.cycles for r in raw),
                       attempted=len(raw), failed=len(notes),
                       digest=digest_of(raw), notes=notes)

    def untraced_extras(self, state: dict, raw: list[RunResult],
                        env: Env) -> dict:
        point = state["points"][0]
        res = worker.execute_point(
            point, state["cfg"].with_(engine="naive"))
        notes = [] if same_result(res, raw[0]) else \
            [f"{point.scheme}/{point.pattern}: naive engine disagrees"]
        return {"crosscheck_attempted": 1, "crosscheck_notes": notes}


# -- fig7 campaign workloads --------------------------------------------------

def fig7_points(seed: int) -> list[Point]:
    """The points ``fig7.run`` submits for the slice, in sweep order."""
    return [Point.make_seeded(name, FIG7_PATTERN, rate, seed=s, **kwargs)
            for _label, name, kwargs in FIG7_SCHEMES_USED
            for rate in FIG7_RATES
            for s in range(seed, seed + N_SEEDS)]


class Fig7Campaign:
    """The ROADMAP reference workload — ``fig7.run`` on an empty cache
    with a campaign store — through the local pool or the loopback
    fabric."""

    def __init__(self, name: str, fabric: bool):
        self.name = name
        self.fabric = fabric

    def points(self, seed: int) -> list[dict]:
        return [p.to_json() for p in fig7_points(seed)]

    def setup(self, env: Env) -> dict:
        return {"points": fig7_points(env.seed),
                "cfg": synthetic_config(quick=True),
                "seeds": list(range(env.seed, env.seed + N_SEEDS)),
                "ctx": _configure(env, "timed", env.nproc, "bench"),
                "nproc": env.nproc}

    @staticmethod
    def _figure(state: dict) -> dict:
        return fig7.run(quick=True, patterns=(FIG7_PATTERN,),
                        schemes=FIG7_SCHEMES_USED, rates=FIG7_RATES,
                        seeds=state["seeds"])

    def run(self, state: dict, tracer=None) -> dict:
        if not self.fabric:
            return self._figure(state)
        from repro.fabric.executor import FabricSession
        ctx = state["ctx"]
        session = FabricSession(cache=ctx.cache(), workers=state["nproc"],
                                campaign="bench")
        ctx.fabric_session = session
        try:
            return self._figure(state)
        finally:
            ctx.fabric_session = None
            session.close()

    def finish(self, state: dict, raw: dict) -> Outcome:
        """The figure returns curves, not results: read every point back
        from the cache the campaign just wrote (a missing entry is a
        failed point) and digest both."""
        cache = state["ctx"].cache()
        notes, results = [], []
        for point in state["points"]:
            res = cache.get_point(point, state["cfg"])
            label = f"{point.scheme}/{point.pattern}@{point.rate}"
            if res is None:
                notes.append(f"{label}: not in the cache after the run")
                continue
            results.append(res)
            why = broken(res, point.rate, point.scheme == "fastpass")
            if why:
                notes.append(f"{label}: {why}")
        return Outcome(cycles=sum(r.cycles for r in results),
                       attempted=len(state["points"]), failed=len(notes),
                       digest=digest_of(results, extra=raw["series"]),
                       notes=notes)

    def replay(self, state: dict, env: Env, sub: str,
               jobs: int) -> tuple[float, Outcome]:
        """The same figure once more through the local executor on
        another empty cache: the traced pass uses it to see the pool's
        work in-process (``jobs=1``) and the fabric's local counterpart
        (``jobs=nproc``)."""
        again = dict(state, ctx=_configure(env, sub, jobs, "bench"))
        t0 = time.perf_counter()
        raw = self._figure(again)
        wall = time.perf_counter() - t0
        return wall, self.finish(again, raw)

    def traced_extras(self, state: dict, raw: dict, outcome: Outcome,
                      tracer, env: Env) -> dict:
        extras: dict = {"phase_walls": {}, "crosscheck_notes": [],
                        "crosscheck_attempted": 0}
        reference = outcome.digest
        phases = [("inproc", 1)]
        if self.fabric:
            phases.insert(0, ("local", env.nproc))
        for phase, jobs in phases:
            tracer.phase = phase
            wall, again = self.replay(state, env, phase, jobs)
            extras["phase_walls"][phase] = wall
            extras["crosscheck_attempted"] += 1
            if again.digest != reference:
                extras["crosscheck_notes"].append(
                    f"{phase} replay digest differs from the timed run")
        tracer.phase = "extras"
        fig7.format_result(raw)
        extras.update(self._fold_gain(state))
        extras.update(_wire_costs(state["points"], state["cfg"]))
        extras["cache.bytes_written"] = _tree_bytes(
            env.work_dir / "timed" / "cache")
        return extras

    @staticmethod
    def _fold_gain(state: dict) -> dict:
        """Scalar ``execute_point`` time over ``execute_group`` time on
        the lowest-rate tasks, process cache as the campaign left it."""
        low = min(FIG7_RATES)
        scalar_s = group_s = 0.0
        for _label, name, _kw in FIG7_SCHEMES_USED:
            task = [p for p in state["points"]
                    if p.scheme == name and p.rate == low]
            t0 = time.perf_counter()
            worker.execute_group(task, state["cfg"])
            t1 = time.perf_counter()
            for p in task:
                worker.execute_point(p, state["cfg"])
            scalar_s += time.perf_counter() - t1
            group_s += t1 - t0
        return {"batch.fold_gain": scalar_s / group_s}


class Fig7Warm:
    """The all-hits re-render: fig7's inner sweep call replayed against a
    cache that set-up filled.  The kernel does nothing here."""

    name = "fig7_warm"

    def points(self, seed: int) -> list[dict]:
        return [p.to_json() for p in fig7_points(seed)]

    def _sweep(self, state: dict) -> list[RunResult]:
        out = []
        for _label, name, kwargs in FIG7_SCHEMES_USED:
            out += common.cached_sweep_latency(
                name, kwargs, FIG7_PATTERN, FIG7_RATES, state["cfg"],
                seeds=state["seeds"])
        return out

    def setup(self, env: Env) -> dict:
        state = {"points": fig7_points(env.seed),
                 # no drain window: every point then simulates exactly
                 # 250 cycles whatever the seed, so kcycles_per_s moves
                 # with the host time of the lookups and nothing else
                 "cfg": synthetic_config(quick=True).with_(
                     warmup_cycles=50, measure_cycles=200,
                     drain_cycles=0),
                 "seeds": list(range(env.seed, env.seed + N_SEEDS)),
                 "ctx": _configure(env, "timed", 1, None)}
        state["fill"] = self._sweep(state)      # counted in setup_s
        return state

    def run(self, state: dict, tracer=None) -> list[list[RunResult]]:
        return [self._sweep(state) for _ in range(WARM_REPLAYS)]

    def finish(self, state: dict, raw: list[list[RunResult]]) -> Outcome:
        fill = state["fill"]
        reference = digest_of(fill)
        notes = []
        sweep = [(name, rate) for _l, name, _k in FIG7_SCHEMES_USED
                 for rate in FIG7_RATES]
        for res, (name, rate) in zip(fill, sweep):
            why = broken(res, rate, name == "fastpass")
            if why:
                notes.append(f"fill {name}@{rate}: {why}")
        failed = len(notes)
        stale = sum(1 for replay in raw if digest_of(replay) != reference)
        if stale:
            notes.append(f"{stale} replays differ from the fill pass")
        return Outcome(cycles=sum(r.cycles for r in fill) * len(raw),
                       attempted=len(state["points"]) * len(raw),
                       failed=failed + stale, digest=reference,
                       notes=notes)

    def traced_extras(self, state: dict, raw, outcome: Outcome, tracer,
                      env: Env) -> dict:
        extras = _wire_costs(state["points"], state["cfg"])
        extras["cache.bytes_written"] = _tree_bytes(
            env.work_dir / "timed" / "cache")
        return extras


# -- helpers for the traced pass ---------------------------------------------

def _tree_bytes(root: Path) -> int:
    return sum(p.stat().st_size for p in root.rglob("*") if p.is_file())


def _wire_costs(points: list[Point], cfg: SimConfig) -> dict:
    """What crossing a process boundary costs per point and per task:
    the JSON round trip (fabric bodies, cache keys) and the pickle the
    pool pipes to a forked child."""
    import pickle
    from repro.campaign.executor import group_items
    rounds = 200
    t0 = time.perf_counter()
    for _ in range(rounds):
        for p in points:
            Point.from_json(p.to_json())
    per_point = (time.perf_counter() - t0) / (rounds * len(points))
    tasks = group_items([(str(i), p) for i, p in enumerate(points)], True)
    sizes = [len(pickle.dumps(([p for _, p in items], cfg)))
             for items in tasks]
    return {"parallel.point_json_us": per_point * 1e6,
            "parallel.pickle_bytes_per_task": sum(sizes) / len(sizes)}


WORKLOADS = {w.name: w for w in (
    DirectKernel("kernel_sparse", _sparse_specs, crosscheck=3),
    DirectKernel("kernel_dense", _dense_specs),
    AppsClosed(),
    Fig7Campaign("fig7_cold", fabric=False),
    Fig7Warm(),
    Fig7Campaign("fig7_fabric", fabric=True),
)}
