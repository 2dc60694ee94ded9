"""Wire format of the campaign fabric.

Everything that crosses the coordinator/worker HTTP boundary is plain
JSON built from the same canonical forms the run cache already uses:
:meth:`~repro.sim.parallel.Point.to_json` for points,
:func:`~repro.campaign.cache.result_to_json` for results, and
``dataclasses.asdict`` for the :class:`~repro.config.SimConfig` (with the
one non-JSON field, ``fault_plan``, replaced by its canonical token).
Because the run cache round-trips results through exactly the same JSON
encoding, a result that travelled over the fabric is byte-for-byte the
result a local cache hit would have returned — the bit-identity invariant
costs nothing extra.

A lease is ``(lease id, task, deadline)``: the unit of work plus the time
by which the worker must have completed it.  A task is
:class:`repro.campaign.queue.Task`, the unit every transport executes —
a single point, or a group of seed replicas that the worker runs as one
fold — so the fabric changes *who* executes, never *what* is executed.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib.metadata
import platform
import sys

from repro.campaign.cache import code_version
from repro.config import SimConfig
from repro.sim.parallel import Point

#: Bumped whenever a payload changes shape.  It is one field of
#: :func:`environment`, so a mixed fleet fails loudly at lease time
#: instead of corrupting results.
PROTOCOL_VERSION = 2

#: Lease states a worker can see in a ``POST /lease`` response.
STATE_OK = "ok"              # leases granted
STATE_IDLE = "idle"          # nothing eligible right now, poll again
STATE_SHUTDOWN = "shutdown"  # coordinator is done; workers should exit


@functools.cache
def environment() -> dict:
    """What a worker's results depend on besides the task itself: the
    wire protocol, the simulator source (the run cache's salt), the
    interpreter, numpy (RNG streams, float summation) and the platform.
    A worker sends it with every ``POST /lease``; the coordinator grants
    nothing unless it equals its own.  Reading numpy's version from the
    installed metadata keeps the check from importing numpy.  Computed
    once per process; callers share the returned dict."""
    return {
        "protocol": PROTOCOL_VERSION,
        "code": code_version(),
        "python": "%d.%d" % sys.version_info[:2],
        "numpy": importlib.metadata.version("numpy"),
        "platform": f"{sys.platform}-{platform.machine()}",
    }


def cfg_to_json(cfg: SimConfig) -> dict:
    """Canonical JSON form of a config (the cache-key encoding)."""
    d = dataclasses.asdict(cfg)
    d["fault_plan"] = cfg.fault_plan.token() if cfg.fault_plan else None
    return d


def cfg_from_json(d: dict) -> SimConfig:
    d = dict(d)
    token = d.pop("fault_plan", None)
    if token:
        from repro.fault.plan import FaultPlan
        d["fault_plan"] = FaultPlan.from_token(token)
    return SimConfig(**d)


def items_to_json(items: list[tuple[str, Point]]) -> list[list]:
    """``[(key, Point), ...]`` -> ``[[key, point_json], ...]``."""
    return [[key, point.to_json()] for key, point in items]


def items_from_json(blob: list[list]) -> list[tuple[str, Point]]:
    return [(key, Point.from_json(pj)) for key, pj in blob]


def lease_to_json(lease) -> dict:
    """One granted lease, as the worker sees it."""
    task = lease.task
    return {
        "lease_id": lease.lease_id,
        "ttl_s": lease.deadline - lease.granted,
        "attempt": task.attempt,
        "cfg": cfg_to_json(task.cfg),
        "items": items_to_json(task.items),
    }
