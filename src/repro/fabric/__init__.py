"""Distributed campaign fabric: coordinator, leased work queue, pull
workers, and an HTTP results service.

The campaign subsystem made every sweep point content-addressed,
cached, and resumable; replica batching made the unit of execution a
deterministic task (one point or one seed fold).  This
package adds the network layer that lets those tasks run *anywhere*:

* :mod:`~repro.fabric.queue` — the leased work queue (at-least-once
  execution, idempotent completion, retry/backoff on expiry);
* :mod:`~repro.fabric.coordinator` — one asyncio HTTP server exposing
  the work-queue API to pulling workers and a read-side results
  service (status/ETA, cached results, Prometheus metrics, the perf
  trend history) to many concurrent readers;
* :mod:`~repro.fabric.worker` — the pull loop, executing leases
  through the unchanged ``execute_point``/``execute_group`` datapath;
* :mod:`~repro.fabric.executor` — :class:`FabricExecutor`, the
  drop-in coordinator/worker counterpart of the local
  :class:`~repro.campaign.executor.CampaignExecutor`, and
  :class:`FabricSession` for long-lived ``serve`` sessions.

Loopback fabric runs are bit-identical to the local executor (same
datapath, same JSON round-trip the cache already imposes) — proven
differentially in ``tests/integration/test_fabric_loopback.py`` and
gated in CI.
"""

from __future__ import annotations

from repro.fabric.executor import FabricExecutor, FabricSession
from repro.fabric.queue import LeaseQueue, Task
from repro.fabric.worker import FabricWorker

__all__ = ["FabricExecutor", "FabricSession", "FabricWorker",
           "LeaseQueue", "Task"]
