"""Point execution: the one place that knows how to run every point kind.

``execute_point`` dispatches on the point's pattern:

* plain pattern (``uniform``, ``transpose``, …) — open-loop synthetic run
  via :func:`repro.sim.runner.run_point`;
* ``app:<benchmark>`` — closed-loop application run (Fig. 10/12/13b) with
  ``txns``/``seed``/``max_cycles`` taken from ``point.meta``;
* ``stress:protocol`` — the adversarial protocol-pressure probe used by
  Table I's behavioural verification and Fig. 13c; the result carries
  ``extra["traffic_done"]``;
* ``selftest:*`` — tiny deterministic stand-ins (instant results, crashes,
  hangs) for exercising the executor's fault handling.  Guarded by
  ``REPRO_CAMPAIGN_SELFTEST=1`` so they can never leak into real sweeps.

It runs inside worker processes, so everything here must stay picklable
and import its dependencies lazily.
"""

from __future__ import annotations

import os
import time

from repro.config import RunResult, SimConfig
from repro.sim.parallel import Point


def execute_point(point: Point, cfg: SimConfig) -> RunResult:
    pattern = point.pattern
    if pattern.startswith("selftest:"):
        return _selftest(point)
    kwargs = dict(point.scheme_kwargs)
    meta = dict(point.meta)
    from repro.schemes import get_scheme
    scheme = get_scheme(point.scheme, **kwargs)
    if pattern.startswith("app:"):
        from repro.sim.engine import Simulation
        from repro.traffic.workloads import workload_traffic
        bench = pattern[len("app:"):]
        traffic = workload_traffic(bench, txns_per_core=meta["txns"],
                                   seed=meta.get("seed", 1))
        sim = Simulation(cfg, scheme, traffic)
        res = sim.run_to_completion(
            max_cycles=meta.get("max_cycles", 400000))
        res.extra["benchmark"] = bench
        res.extra["completed"] = traffic.completed
        res.extra["total"] = traffic.total_txns
        res.engine_used = sim.engine_used
        return res
    if pattern == "stress:protocol":
        from repro.experiments.table1 import deadlock_traffic
        from repro.sim.engine import Simulation
        sim = Simulation(cfg, scheme,
                         deadlock_traffic(seed=meta.get("seed", 7)))
        res = sim.run_to_completion(
            max_cycles=meta.get("max_cycles", 80000))
        res.extra["traffic_done"] = sim.traffic.done()
        res.extra["completed"] = sim.traffic.completed
        res.engine_used = sim.engine_used
        return res
    if pattern.startswith("scenario:"):
        from repro.scenario.runner import run_scenario
        from repro.scenario.spec import ScenarioSpec
        spec = ScenarioSpec.from_token(meta["scenario"])
        token = meta.get("faults")
        if token:
            from repro.fault.plan import FaultPlan
            cfg = cfg.with_(fault_plan=FaultPlan.from_token(token))
        return run_scenario(scheme, spec, cfg, seed=meta.get("seed"),
                            traffic_stop=meta.get("traffic_stop"),
                            metrics=_metrics_setting(meta))
    if pattern.startswith("trace:"):
        from repro.scenario.runner import replay_trace
        return replay_trace(scheme, pattern[len("trace:"):], cfg)
    if pattern.startswith("irregular:"):
        from repro.scenario.irregular import run_irregular_point
        return run_irregular_point(point, cfg)
    from repro.sim.runner import run_point
    token = meta.get("faults")
    if token:
        from repro.fault.plan import FaultPlan
        cfg = cfg.with_(fault_plan=FaultPlan.from_token(token))
    return run_point(scheme, pattern, point.rate, cfg,
                     seed=meta.get("seed"),
                     traffic_stop=meta.get("traffic_stop"),
                     metrics=_metrics_setting(meta))


def _metrics_setting(meta: dict) -> bool | int:
    """Observability is opt-in per point (``meta["metrics"]``) or
    fleet-wide via the ``REPRO_METRICS`` env var (N > 0 attaches metrics
    and samples the gauge time series every N cycles)."""
    metrics = meta.get("metrics")
    if metrics is not None:
        return metrics
    raw = os.environ.get("REPRO_METRICS") or "0"
    try:
        return int(raw)
    except ValueError:
        raise ValueError("REPRO_METRICS must be an integer number of "
                         f"cycles, got {raw!r}") from None


def replica_signature(point: Point):
    """The grouping key for replica batching, or None when the point
    must run scalar.

    Points that agree on everything except their ``meta`` seed are
    replicas of one simulation and fold into one
    :class:`~repro.sim.batch.engine.ReplicaBatch`.  Plain synthetic
    patterns and ``scenario:`` points qualify.  Closed-loop
    (``app:``/``stress:``), ``trace:``/``irregular:`` and selftest
    points have bespoke execution, and per-point metrics (or a
    fleet-wide ``REPRO_METRICS``) attach observability and archive one
    artifact per point, which only the scalar path does.
    """
    meta = dict(point.meta)
    if ":" in point.pattern and not point.pattern.startswith("scenario:"):
        return None
    if _metrics_setting(meta):
        return None
    meta.pop("seed", None)
    return (point.scheme, point.scheme_kwargs, point.pattern, point.rate,
            tuple(sorted(meta.items())))


def execute_group(points: list[Point], cfg: SimConfig) -> list[RunResult]:
    """Run seed-replica ``points`` as one fold.

    Every point must share a :func:`replica_signature`; results come
    back in input order and are bit-identical to what
    :func:`execute_point` would have produced for each point alone.
    """
    first = points[0]
    meta = dict(first.meta)
    token = meta.get("faults")
    if token:
        from repro.fault.plan import FaultPlan
        cfg = cfg.with_(fault_plan=FaultPlan.from_token(token))
    spec = None
    if first.pattern.startswith("scenario:"):
        from repro.scenario.spec import ScenarioSpec
        spec = ScenarioSpec.from_token(meta["scenario"])
    seeds = [dict(p.meta).get("seed") for p in points]
    from repro.sim.runner import run_replicas
    return run_replicas(first.scheme, first.pattern, first.rate, cfg,
                        seeds, scheme_kwargs=dict(first.scheme_kwargs),
                        traffic_stop=meta.get("traffic_stop"), spec=spec)


def execute_task(points: list[Point], cfg: SimConfig) -> list[RunResult]:
    """Run one task — a single point, or a seed fold — the same way on
    every transport (in-process, forked child, fabric worker)."""
    if len(points) == 1:
        return [execute_point(points[0], cfg)]
    return execute_group(points, cfg)


def failed_result(point: Point, error: str) -> RunResult:
    """Placeholder for a point that exhausted its retries.

    Carries the ``extra`` keys the figure formatters read, so a failed
    point renders as '-' instead of raising, and is never cached — the
    next campaign run retries it.
    """
    res = RunResult(scheme=point.scheme)
    res.extra.update({
        "failed": True,
        "error": error,
        "rate": point.rate,
        "pattern": point.pattern,
        "measured_generated": 0,
        "undelivered": 0,
    })
    return res


# ----------------------------------------------------------------------
def _selftest(point: Point) -> RunResult:
    if os.environ.get("REPRO_CAMPAIGN_SELFTEST") != "1":
        raise ValueError(f"unknown traffic pattern {point.pattern!r}")
    mode = point.pattern[len("selftest:"):]
    meta = dict(point.meta)
    if mode == "ok":
        res = RunResult(scheme=point.scheme, ejected=1, avg_latency=1.0)
        res.extra["rate"] = point.rate
        return res
    if mode == "fail":
        raise RuntimeError("selftest: deliberate failure")
    if mode == "crash":
        os._exit(3)
    if mode == "sleep":
        time.sleep(point.rate)
        res = RunResult(scheme=point.scheme, ejected=1, avg_latency=1.0)
        res.extra["rate"] = point.rate
        return res
    if mode == "flaky":
        # Succeed only once a sentinel from the first (failed) attempt
        # exists: exercises the retry path across process boundaries.
        sentinel = os.path.join(meta["dir"], f"flaky-{point.rate}")
        if os.path.exists(sentinel):
            res = RunResult(scheme=point.scheme, ejected=1,
                            avg_latency=2.0)
            res.extra["rate"] = point.rate
            return res
        with open(sentinel, "w") as fh:
            fh.write("attempted")
        raise RuntimeError("selftest: flaky first attempt")
    raise ValueError(f"unknown selftest mode {mode!r}")
