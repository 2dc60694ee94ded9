"""Point execution, the same on every transport: a point says what it
runs (:mod:`repro.sim.workload`, inside the cache salt), so running one
is one call.  It runs inside worker processes, so everything here must
stay picklable and import its dependencies lazily.
"""

from __future__ import annotations

from repro.config import RunResult, SimConfig
from repro.sim.parallel import Point
from repro.sim.workload import OpenLoop, metrics_setting


def execute_point(point: Point, cfg: SimConfig) -> RunResult:
    return point.workload.run(point, cfg)


def replica_signature(point: Point):
    """The grouping key for replica batching — the point minus its seed —
    or None when it must run scalar: a kind that does not fold (only
    :class:`OpenLoop` kinds do), or ``REPRO_METRICS`` set (one artifact
    per point, scalar path only)."""
    if not isinstance(point.workload, OpenLoop) or metrics_setting():
        return None
    return (point.scheme, point.scheme_kwargs, point.workload, point.faults,
            point.traffic_stop)


def execute_group(points: list[Point], cfg: SimConfig) -> list[RunResult]:
    """Run seed replicas sharing a :func:`replica_signature` as one
    fold; results, in input order, are bit-identical to
    :func:`execute_point` on each point alone."""
    first = points[0]
    return first.workload.run_replicas(first, [p.seed for p in points], cfg)


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

