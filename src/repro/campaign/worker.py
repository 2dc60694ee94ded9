"""Point execution, the same on every transport: a point says what it
runs (:mod:`repro.sim.workload`, inside the cache salt), so running one
is one call.  It runs inside worker processes, so everything here must
stay picklable and import its dependencies lazily.
"""

from __future__ import annotations

from repro.config import RunResult, SimConfig
from repro.sim.parallel import Point
from repro.sim.workload import OpenLoop


def execute_point(point: Point, cfg: SimConfig) -> RunResult:
    return point.workload.run(point, cfg)


def replica_signature(point: Point):
    """The seed-group key (the point minus its seed) that
    :func:`~repro.campaign.executor.group_items` cuts tasks along, or
    None for a kind whose points run one per task (only
    :class:`OpenLoop` kinds group)."""
    if not isinstance(point.workload, OpenLoop):
        return None
    return (point.scheme, point.scheme_kwargs, point.workload, point.faults,
            point.traffic_stop)


def execute_task(points: list[Point], cfg: SimConfig) -> list[RunResult]:
    """Run one task — a list of points, each alone — the same way on
    every transport (in-process, forked child, fabric worker)."""
    return [execute_point(p, cfg) for p in points]


def execute_group(points: list[Point], cfg: SimConfig) -> list[RunResult]:
    """:func:`execute_task` under the name ``benchmarks/e2e`` wraps and
    calls; the next change to the benchmark drops it."""
    return execute_task(points, cfg)


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

