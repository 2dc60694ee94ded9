"""The fabric coordinator: the HTTP transport's face on the task
lifecycle, plus a read-side results service.

:class:`Coordinator` *is* a :class:`~repro.campaign.lifecycle.Lifecycle`
— the same lease -> settle state machine the local executor drives over
pipes — and adds what only leases that leave the process need: the
environment check at the door, request validation, the shutdown
handshake, and the lease journal that lets a restarted coordinator adopt
what a dead one granted.  One asyncio HTTP server (one background
thread) exposes two faces:

* the **work-queue API** workers pull from —

  - ``POST /lease``     ``{env, worker, max_tasks}`` → granted leases
    (each a task: one point or one replica batch, plus its config), or
    ``idle``/``shutdown``; a worker whose ``env``
    (:func:`~repro.fabric.protocol.environment`) differs from the
    coordinator's own gets a 409 naming every differing field;
  - ``POST /complete``  ``{lease_id, worker, ok, results|error,
    artifacts}`` → a disposition (``ok``/``late``/``duplicate``/
    ``requeued``/``failed``/``unknown``); completions are idempotent —
    see :mod:`repro.campaign.queue` for the invariants;

* the **results service** many concurrent readers can hit while a
  campaign runs —

  - ``GET /status``       counts, ETA, per-worker throughput;
  - ``GET /result/<key>`` one cached/collected result by content address;
  - ``GET /metrics``      the fabric's own metrics in the Prometheus text
    format (rendered by the existing obs exporter);
  - ``GET /healthz``      liveness probe.

Settlement is the lifecycle's: every accepted completion goes into the
content-addressed :class:`~repro.campaign.cache.RunCache` and the
campaign :class:`~repro.campaign.store.CampaignStore` by the same code a
local run uses, so ``campaign status``, resume, and cache hits all keep
working unchanged.  Worker-side metrics artifacts ride back in the
completion payload and land under the coordinator's
``results/metrics/``.
"""

from __future__ import annotations

import re
import time

from repro.campaign import cache as cache_mod, queue as queue_mod
from repro.campaign.lifecycle import Lifecycle, window_rate
from repro.campaign.queue import RetryPolicy
from repro.fabric import protocol
from repro.fabric.httpd import HttpError, JsonHttpServer

#: a worker heard from within this many seconds counts as present
PRESENT_S = 10.0


class Coordinator(Lifecycle):
    """Serves leases to pulling workers and takes their completions.

    Thread model: HTTP handlers run on the server thread, ``submit``/
    ``collect``/``tick`` on the caller's, all under the lifecycle's
    lock.  Handlers only do queue bookkeeping and small sqlite/cache
    writes, so holding the lock across a handler is microseconds.
    """

    def __init__(self, cache=None, retry: RetryPolicy | None = None,
                 lease_ttl_s: float = 60.0, campaign: str | None = None):
        super().__init__(cache, retry, lease_ttl_s)
        self.campaign = campaign
        # Results settle into this process's cache under its own salt,
        # so this process's environment is the one a worker must match.
        # Computed before any loopback worker forks, which inherits it.
        self.environment = protocol.environment()
        self.state = protocol.STATE_OK       # flips to shutdown at close
        self.started = time.monotonic()
        self._dismissed: set[str] = set()    # saw the shutdown state
        self._chaos: dict[str, dict] = {}    # worker -> injections by kind
        self._journaled: dict[int, object] = {}  # stores with journal rows
        self._server: JsonHttpServer | None = None
        self._registry = None

    # -- server ---------------------------------------------------------
    def start(self, host: str = "127.0.0.1", port: int = 0) -> str:
        self._server = JsonHttpServer(self.handle, host, port)
        return self._server.start()

    def shutdown(self) -> None:
        """Tell pulling workers to exit; keep serving until stopped."""
        self.state = protocol.STATE_SHUTDOWN

    def stop(self) -> None:
        self.shutdown()
        if self._server is not None:
            self._server.stop()

    # -- the fleet ------------------------------------------------------
    def present_workers(self) -> int:
        """Workers heard from within the last :data:`PRESENT_S`."""
        now = time.monotonic()
        with self._lock:
            return sum(1 for s in self._workers.values()
                       if now - s.last_seen <= PRESENT_S)

    def workers_pending_dismissal(self, exclude=()) -> list[str]:
        """Workers heard from recently that have not yet seen the
        shutdown state — a closing ``serve`` session lingers until this
        empties so remote pullers exit promptly instead of burning their
        connection-retry budget against a vanished server."""
        now = time.monotonic()
        with self._lock:
            return [w for w, s in self._workers.items()
                    if w not in exclude and w not in self._dismissed
                    and now - s.last_seen <= PRESENT_S]

    # -- crash safety (lease journal) ----------------------------------
    def tick(self) -> None:
        with self._lock:
            super().tick()
            self._journal()

    def release_leases(self) -> None:
        """The lease journal is emptied too — resumption must not
        re-adopt claims the shutdown just released.  (A crash skips this
        method, which is exactly why the journal survives for
        ``--resume`` to adopt.)"""
        with self._lock:
            super().release_leases()
            self._journal()

    def _journal(self) -> None:
        """Mirror the live leases into their campaign stores (lock
        held).  Called after every transition that changes the lease
        set, so the on-disk journal is never more than one HTTP round
        behind the queue — the coordinator can die at any instant and
        ``--resume`` reconstructs exactly the outstanding claims."""
        now = time.monotonic()
        by_store: dict[int, tuple[object, list]] = {}
        for lease in self.queue.live_leases():
            store = lease.task.store
            if store is None:
                continue
            _, rows = by_store.setdefault(id(store), (store, []))
            rows.append({
                "lease_id": lease.lease_id,
                "worker": lease.worker,
                "keys": lease.task.keys,
                "attempt": lease.task.attempt,
                "ttl_s": max(lease.deadline - now, 0.0),
            })
        for sid, (store, rows) in by_store.items():
            store.sync_leases(rows)
            self._journaled[sid] = store
        # stores whose last lease just closed get one empty sync
        for sid in [s for s in self._journaled if s not in by_store]:
            self._journaled.pop(sid).sync_leases([])

    def adopt_leases(self, store, cfg) -> set[str]:
        """Reconstruct outstanding leases from ``store``'s journal after
        a coordinator restart; returns the point keys adopted.

        Rows that no longer make sense — points missing from the store,
        already done/failed, a task id that is already queued here (a
        second row for one task included), or a lease id already known —
        are silently dropped: the points they covered simply re-enter the
        queue as fresh work, which is always safe (idempotent completion
        absorbs the worst case of the old worker still finishing).
        """
        now = time.monotonic()
        adopted: set[str] = set()
        rows = store.outstanding_leases()
        with self._lock:
            for row in rows:
                keys = list(row["keys"])
                if not keys:
                    continue
                tid = keys[0]
                if self.queue.task_of(row["lease_id"]) is not None \
                        or tid in self.queue:
                    continue
                known = store.points_by_key(keys)
                if len(known) != len(keys) or any(
                        status in ("done", "failed")
                        for _, status in known.values()):
                    continue
                task = queue_mod.Task(
                    tid=tid, items=[(k, known[k][0]) for k in keys],
                    cfg=cfg, store=store, attempt=int(row["attempt"]))
                self.queue.adopt(task, row["lease_id"], row["worker"],
                                 now)
                store.mark_many(keys, "running")
                adopted.update(keys)
            self._journal()
        return adopted

    # -- HTTP dispatch (server thread) ----------------------------------
    def handle(self, method: str, path: str, body):
        if path == "/healthz":
            return {"ok": True, "state": self.state,
                    "version": protocol.PROTOCOL_VERSION}
        if path == "/lease" and method == "POST":
            return self._h_lease(body or {})
        if path == "/complete" and method == "POST":
            return self._h_complete(body or {})
        if path == "/status":
            return self.status()
        if path.startswith("/result/"):
            return self._h_result(path[len("/result/"):])
        if path == "/metrics":
            return self._h_metrics()
        if path in ("/lease", "/complete"):
            raise HttpError(405, f"{path} takes POST, not {method}")
        raise HttpError(404, f"no such endpoint: {method} {path}")

    # -- work-queue API -------------------------------------------------
    def _h_lease(self, body: dict) -> dict:
        env = body.get("env")
        env = env if isinstance(env, dict) else {}
        differ = [f"{k}: coordinator {v}, worker {env.get(k)}"
                  for k, v in self.environment.items() if env.get(k) != v]
        if differ:
            raise HttpError(409, "worker environment differs from the "
                            "coordinator's:\n  " + "\n  ".join(differ))
        worker = str(body.get("worker") or "anonymous")
        max_tasks = max(1, int(body.get("max_tasks", 1)))
        with self._lock:
            chaos = body.get("chaos")
            if isinstance(chaos, dict):   # worker ships injection totals
                self._chaos[worker] = {str(k): int(v)
                                       for k, v in chaos.items()}
            if self.state == protocol.STATE_SHUTDOWN:
                self._dismissed.add(worker)
                return {"state": protocol.STATE_SHUTDOWN}
            leases = self.lease(worker, max_tasks)
            self._journal()
            if not leases:
                return {"state": protocol.STATE_IDLE,
                        "drained": self.queue.drained}
            return {"state": protocol.STATE_OK,
                    "leases": [protocol.lease_to_json(l) for l in leases]}

    def _h_complete(self, body: dict) -> dict:
        lease_id = body.get("lease_id")
        worker = str(body.get("worker") or "anonymous")
        if not lease_id:
            raise HttpError(400, "completion without a lease_id")
        with self._lock:
            if body.get("ok"):
                disposition = self.complete(
                    lease_id, worker, body.get("results") or [],
                    body.get("artifacts") or [])
            else:
                disposition = self.fail(
                    lease_id, worker,
                    str(body.get("error") or "worker reported failure"))
            self._journal()
            return {"disposition": disposition}

    # -- read side ------------------------------------------------------
    def status(self) -> dict:
        now = time.monotonic()
        with self._lock:
            counts = self.queue.point_counts()
            counts["collected"] = len(self.results)
            rate = window_rate(self._window, now)
            remaining = counts["pending"] + counts["leased"]
            eta = remaining / rate if remaining and rate > 0 else \
                (0.0 if not remaining else None)
            return {
                "campaign": self.campaign,
                "state": self.state,
                "drained": self.queue.drained,
                "elapsed_s": round(now - self.started, 3),
                "counts": counts,
                "points_per_s": round(rate, 4),
                "eta_s": None if eta is None else round(eta, 1),
                "queue": self.queue.counters.to_json(),
                "workers": {w: s.to_json(now)
                            for w, s in self._workers.items()},
                "chaos": self._chaos_totals(),
            }

    def _chaos_totals(self) -> dict[str, int]:
        """Fault injections aggregated across workers, by kind (lock
        held) — non-empty only when workers run under a chaos plan."""
        totals: dict[str, int] = {}
        for counts in self._chaos.values():
            for kind, n in counts.items():
                totals[kind] = totals.get(kind, 0) + n
        return {k: totals[k] for k in sorted(totals)}

    def _h_result(self, key: str) -> dict:
        if not re.fullmatch(r"[0-9a-f]{8,64}", key):
            raise HttpError(400, f"malformed result key {key!r}")
        with self._lock:
            res = self.results.get(key)
        if res is None and self.cache is not None:
            res = self.cache.get(key)
        if res is None:
            raise HttpError(404, f"no result for key {key}")
        return {"key": key, "result": cache_mod.result_to_json(res)}

    def _h_metrics(self):
        from repro.obs.exporters import to_prometheus
        return to_prometheus(self._metrics_registry()), \
            "text/plain; version=0.0.4"

    def _metrics_registry(self):
        if self._registry is None:
            from repro.obs.registry import MetricsRegistry
            reg = MetricsRegistry()
            counters = self.queue.counters
            for name, help_ in [
                    ("granted", "leases granted to workers"),
                    ("completed", "first-completion settlements"),
                    ("late", "late completions accepted"),
                    ("duplicates", "duplicate completions discarded"),
                    ("expiries", "leases expired past their deadline"),
                    ("requeues", "tasks re-queued for retry"),
                    ("failures", "tasks failed permanently")]:
                reg.gauge(f"fabric_{name}_total", help_,
                          lambda n=name: getattr(counters, n))
            reg.multi_gauge("fabric_points", "points by lifecycle state",
                            "state",
                            lambda: sorted(
                                self.queue.point_counts().items()))
            reg.gauge("fabric_workers", "workers ever seen",
                      lambda: len(self._workers))
            reg.multi_gauge("fabric_chaos_injected_total",
                            "transport faults injected by the chaos "
                            "layer, as reported by workers", "kind",
                            lambda: list(self._chaos_totals().items()))
            reg.gauge("fabric_points_per_s",
                      "aggregate completion rate over the rate window",
                      lambda: self.status()["points_per_s"])
            self._registry = reg
        return self._registry
