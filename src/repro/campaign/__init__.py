"""Campaign subsystem: incremental, resumable, fault-tolerant sweeps.

Every figure in the paper is a sweep of independent (scheme, pattern,
rate) points, and pure-Python cycle simulation makes each point expensive.
This package owns sweep execution end-to-end:

* :mod:`~repro.campaign.cache` — content-addressed run cache keyed by a
  hash of the point, the full :class:`~repro.config.SimConfig`, and a
  code-version salt;
* :mod:`~repro.campaign.store` — persistent per-campaign point status
  (pending/running/done/failed) in sqlite, so interrupted campaigns
  resume where they stopped;
* :mod:`~repro.campaign.queue` and :mod:`~repro.campaign.lifecycle` —
  the one task lifecycle (lease -> settle): bounded retries with
  backoff, deadlines, crash handling, settlement into cache and store;
* :mod:`~repro.campaign.executor` — the ``run`` body every executor
  shares, the in-process and fork-per-lease transports that drive the
  lifecycle locally, and live progress/ETA;
* :mod:`~repro.campaign.plan` — figures whose next points depend on
  earlier results: series generators streamed through one open run;
* :mod:`~repro.campaign.context` — process-wide defaults (cache
  location, job count) shared by the CLI, the experiment scripts and the
  benchmarks.

:func:`run_points` is the high-level entry the experiment layer uses.
"""

from __future__ import annotations

from repro.config import RunResult, SimConfig
from repro.sim.parallel import Point

from repro.campaign.cache import RunCache, code_version, point_key
from repro.campaign.context import configure, get_context, reset
from repro.campaign.executor import CampaignExecutor, Progress, RetryPolicy
from repro.campaign.store import CampaignStore

__all__ = [
    "CampaignExecutor", "CampaignStore", "Progress", "RetryPolicy",
    "RunCache", "code_version", "configure", "executor_for", "get_context",
    "point_key", "reset", "run_points",
]


def executor_for(cfg: SimConfig, *, processes: int | None = None,
                 cache=None, store=None,
                 retry: RetryPolicy | None = None, progress=None):
    """The executor the ambient context calls for.

    ``cache``/``store``/``processes`` default from
    :func:`~repro.campaign.context.get_context`: the shared run cache,
    the store of the active campaign (if one is set), and the configured
    job count.  Pass ``cache=False`` to force recomputation.  Inside a
    fabric session the session's fleet and retry policy apply;
    ``processes`` and ``retry`` describe the local pool only.
    """
    ctx = get_context()
    if cache is None:
        cache = ctx.cache()
    elif cache is False:
        cache = None
    if store is None:
        store = ctx.store()
    elif store is False:
        store = None
    if processes is None:
        processes = ctx.jobs
    if progress is None:
        progress = ctx.progress
    if ctx.fabric_session is not None:
        from repro.fabric.executor import FabricExecutor
        return FabricExecutor(cfg, ctx.fabric_session, cache=cache,
                              store=store, progress=progress)
    return CampaignExecutor(cfg, cache=cache, store=store,
                            processes=processes, retry=retry,
                            progress=progress)


def run_points(points: list[Point], cfg: SimConfig,
               **kwargs) -> list[RunResult]:
    """Run ``points`` through the campaign layer; results in input
    order.  Keywords as for :func:`executor_for`."""
    return executor_for(cfg, **kwargs).run(points)
