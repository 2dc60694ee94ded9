"""Distributed campaign fabric: the HTTP transport of the campaign task
lifecycle — coordinator, pull workers, and a results service.

The campaign subsystem owns what happens to a task from pending to
done|failed (:mod:`repro.campaign.queue`, :mod:`repro.campaign
.lifecycle`) and runs it in-process or over pipes.  This package adds
the network layer that lets the same leases run *anywhere*:

* :mod:`~repro.fabric.coordinator` — the lifecycle behind one asyncio
  HTTP server: the work-queue API pulling workers use, the lease
  journal that survives a coordinator crash, and a read-side results
  service (status/ETA, cached results, Prometheus metrics) for many
  concurrent readers;
* :mod:`~repro.fabric.worker` — the pull loop, executing leases
  through the same ``execute_task`` as the local transports;
* :mod:`~repro.fabric.executor` — :class:`FabricSession` (a live
  coordinator plus supervised loopback workers) and
  :class:`FabricExecutor`, the shared ``run`` body over that session.

Loopback fabric runs are bit-identical to local ones (same datapath,
same JSON round-trip the cache already imposes) — proven differentially
over all three transports and gated in CI.
"""

from __future__ import annotations

from repro.fabric.executor import FabricExecutor, FabricSession
from repro.fabric.worker import FabricWorker

__all__ = ["FabricExecutor", "FabricSession", "FabricWorker"]
