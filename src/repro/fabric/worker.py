"""Pull-based fabric worker.

A worker is a loop: lease, execute, report.  Execution is
:func:`~repro.campaign.worker.execute_task`, the same call the local
transports make, so a point computed by a remote worker is bit-identical
to the same point computed in-process or in a forked child; the fabric
moves work, never semantics.

Failure behaviour:

* an exception inside a task is caught and reported as a failed
  completion — the coordinator charges the attempt and re-queues or
  fails the task per its retry policy;
* a worker crash (segfault, OOM-kill, ``os._exit``) simply lets the
  lease expire — same outcome, just on the lease-timeout clock;
* a coordinator that stops answering is ridden out: the worker retries
  with capped, jittered exponential backoff (jitter keeps a restarted
  coordinator from being stampeded by its whole fleet at once) for up
  to ``patience_s`` of continuous outage, then exits — a fleet never
  spins forever against a coordinator that is truly gone, but survives
  one that is merely restarting;
* a ``/complete`` that fails in flight is retried a few times (the
  coordinator's completions are idempotent, so retrying a delivered-
  but-unacknowledged report is safe); past that budget the lease is
  abandoned to expiry — the at-least-once contract converges either
  way.

Workers keep polling through idle periods (a ``serve`` session feeds the
queue experiment by experiment) and exit only on the coordinator's
explicit ``shutdown`` state.
"""

from __future__ import annotations

import os
import random
import socket
import time
import urllib.error

from repro.campaign import cache as cache_mod
from repro.campaign.worker import execute_task
from repro.fabric import protocol
from repro.fabric.httpd import HttpError, http_json

#: continuous-outage budget (seconds) before a worker gives up on its
#: coordinator; override per-worker or via REPRO_FABRIC_PATIENCE_S
DEFAULT_PATIENCE_S = 300.0

#: errors that mean "the request did not get through cleanly" — always
#: worth retrying against a coordinator that may just be restarting
_TRANSIENT = (urllib.error.URLError, ConnectionError, OSError)


def default_worker_id() -> str:
    return f"{socket.gethostname()}-{os.getpid()}"


def _patience_from_env() -> float:
    try:
        return float(os.environ.get("REPRO_FABRIC_PATIENCE_S",
                                    DEFAULT_PATIENCE_S))
    except ValueError:
        return DEFAULT_PATIENCE_S


class FabricWorker:
    def __init__(self, url: str, worker_id: str | None = None,
                 poll_s: float = 0.25, max_tasks: int = 1,
                 patience_s: float | None = None,
                 connect_backoff_s: float = 0.25,
                 complete_retries: int = 4):
        self.url = url.rstrip("/")
        self.worker_id = worker_id or default_worker_id()
        self.poll_s = poll_s
        self.max_tasks = max_tasks
        self.patience_s = patience_s if patience_s is not None \
            else _patience_from_env()
        self.connect_backoff_s = connect_backoff_s
        self.complete_retries = complete_retries
        self._rng = random.Random(self.worker_id)   # backoff jitter
        self.stats = {"leases": 0, "points": 0, "failures": 0,
                      "connect_failures": 0}

    # -- transport ------------------------------------------------------
    def _post(self, path: str, payload: dict):
        return http_json("POST", self.url + path, payload)

    def _backoff(self, misses: int) -> float:
        base = min(self.connect_backoff_s * 2 ** min(misses - 1, 6), 5.0)
        return base * (0.5 + self._rng.random())

    # -- the loop -------------------------------------------------------
    def run(self) -> dict:
        misses = 0
        outage_started: float | None = None
        while True:
            body = {"env": protocol.environment(),
                    "worker": self.worker_id,
                    "max_tasks": self.max_tasks}
            try:
                resp = self._post("/lease", body)
            except HttpError as exc:
                if exc.status != 400:
                    raise    # 404, or 409 (environment mismatch)
                # 400 on a lease poll means the request arrived mangled
                # (truncated or corrupted in flight); the poll is
                # stateless, so just poll again.
                resp = None
            except _TRANSIENT:
                resp = None
            if resp is None:
                misses += 1
                self.stats["connect_failures"] += 1
                now = time.monotonic()
                if outage_started is None:
                    outage_started = now
                if now - outage_started > self.patience_s:
                    raise ConnectionError(
                        f"coordinator at {self.url} unreachable for "
                        f"{now - outage_started:.0f}s "
                        f"(patience {self.patience_s:.0f}s)")
                time.sleep(self._backoff(misses))
                continue
            misses = 0
            outage_started = None
            state = resp.get("state")
            if state == protocol.STATE_SHUTDOWN:
                return self.stats
            if state == protocol.STATE_IDLE or not resp.get("leases"):
                time.sleep(self.poll_s)
                continue
            for lease in resp["leases"]:
                self._run_lease(lease)

    # -- one lease ------------------------------------------------------
    def _run_lease(self, lease: dict) -> None:
        self.stats["leases"] += 1
        try:
            payload = self._execute(lease)
        except Exception as exc:  # noqa: BLE001 - reported, never fatal
            self.stats["failures"] += 1
            payload = {"ok": False,
                       "error": f"{type(exc).__name__}: {exc}"}
        payload.update({"lease_id": lease["lease_id"],
                        "worker": self.worker_id})
        for attempt in range(1, self.complete_retries + 1):
            try:
                self._post("/complete", payload)
                return
            except HttpError as exc:
                if exc.status != 400:
                    return        # protocol-level refusal; expiry wins
                # 400: the report arrived mangled (truncated/corrupted
                # in flight) — the server settled nothing, retry intact.
                self.stats["connect_failures"] += 1
            except _TRANSIENT:
                # Includes the reset-after-delivery case: the server
                # may have settled the completion already, and the
                # retry lands as a harmless idempotent duplicate.
                self.stats["connect_failures"] += 1
            if attempt < self.complete_retries:
                time.sleep(self._backoff(attempt))
        # Budget spent with the report undelivered: the lease expires
        # and the task re-runs — exactly the at-least-once contract.

    def _execute(self, lease: dict) -> dict:
        cfg = protocol.cfg_from_json(lease["cfg"])
        items = protocol.items_from_json(lease["items"])
        results = execute_task([p for _, p in items], cfg)
        self.stats["points"] += len(results)
        return {"ok": True,
                "results": [cache_mod.result_to_json(r) for r in results],
                "artifacts": self._gather_artifacts(results)}

    @staticmethod
    def _gather_artifacts(results) -> list:
        """Metrics snapshots written by instrumented runs live on the
        worker's disk; ship their contents home so the coordinator owns
        the artifacts."""
        out = []
        for res in results:
            metrics = res.extra.get("metrics")
            if not isinstance(metrics, dict):
                continue
            path = metrics.get("path")
            if path and os.path.exists(path):
                out.append({"name": path,
                            "text": open(path).read()})
        return out


def worker_process_main(url: str, worker_id: str | None = None,
                        poll_s: float = 0.25, max_tasks: int = 1) -> None:
    """Entry point for loopback worker subprocesses."""
    FabricWorker(url, worker_id=worker_id, poll_s=poll_s,
                 max_tasks=max_tasks).run()
