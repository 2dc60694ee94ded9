"""The one task lifecycle: lease -> settle, for every transport.

:class:`Lifecycle` owns a task from ``submit`` until its result shows up
in ``collect``: the leased queue (:mod:`repro.campaign.queue`) and the
settlement around it — results into the run cache and the campaign
store, failures into placeholder results.  It does not know who executes
a lease: the local executor drives it in-process or over pipes
(:mod:`repro.campaign.executor`), the fabric coordinator puts an HTTP
face on it (:mod:`repro.fabric.coordinator`).  Every execution of a
point is deterministic, so the first completion of a task settles it.

Thread model: the HTTP face calls in from its server thread, the waiting
executor from its own, so one re-entrant lock guards everything;
``settled`` is a condition on that lock, notified when a result lands.
"""

from __future__ import annotations

import os
import re
import threading
import time
from collections import deque
from dataclasses import dataclass, field

from repro.campaign import cache as cache_mod, queue as queue_mod
from repro.campaign.queue import RetryPolicy
from repro.campaign.worker import failed_result

#: sliding window (seconds) over which throughput/ETA are measured
RATE_WINDOW_S = 60.0


def window_rate(window: deque, now: float) -> float:
    """Points per second over the last ``RATE_WINDOW_S`` of a
    ``(t, n_points)`` completion window (trimmed in place)."""
    while window and window[0][0] < now - RATE_WINDOW_S:
        window.popleft()
    if not window:
        return 0.0
    return sum(n for _, n in window) / max(now - window[0][0], 1e-9)


@dataclass
class WorkerStats:
    granted: int = 0
    points: int = 0
    failures: int = 0
    last_seen: float = 0.0
    window: deque = field(default_factory=deque)  # (t, n_points)

    def to_json(self, now: float) -> dict:
        return {
            "leases": self.granted,
            "points": self.points,
            "failures": self.failures,
            "points_per_s": round(window_rate(self.window, now), 4),
            "last_seen_s_ago": round(now - self.last_seen, 3),
        }


class Lifecycle:
    def __init__(self, cache=None, retry: RetryPolicy | None = None,
                 lease_ttl_s: float = 60.0):
        self.cache = cache
        self.retry = retry or RetryPolicy()
        self.queue = queue_mod.LeaseQueue(self.retry, lease_ttl_s)
        self.results: dict[str, object] = {}  # key -> RunResult
        self._lock = threading.RLock()
        self.settled = threading.Condition(self._lock)
        self._workers: dict[str, WorkerStats] = {}
        self._window: deque = deque()        # (t, n_points) completions

    # -- feeding ---------------------------------------------------------
    def submit(self, grouped_items: list[list], cfg, store=None) -> None:
        """Queue tasks: ``grouped_items`` is a list of item lists, each
        ``[(key, Point), ...]`` — singletons or replica groups, exactly
        as :func:`repro.campaign.executor.group_items` produces them."""
        with self._lock:
            for items in grouped_items:
                self.queue.add(queue_mod.Task(
                    tid=items[0][0], items=list(items), cfg=cfg,
                    store=store))

    def seed_results(self, results: dict) -> None:
        """Pre-fill results resolved before serving (cache hits), so the
        read-side can answer for them too."""
        with self._lock:
            self.results.update(results)

    # -- the three calls a transport makes --------------------------------
    def lease(self, worker: str, max_tasks: int = 1) -> list:
        """Grant ``worker`` up to ``max_tasks`` leases (overdue ones are
        swept first) and mark their points ``running``."""
        now = time.monotonic()
        with self._lock:
            self._expired(self.queue.expire(now))
            stats = self._worker(worker, now)
            leases = self.queue.lease(worker, now, max_tasks)
            stats.granted += len(leases)
            for lease in leases:
                self._mark(lease.task, "running")
            return leases

    def complete(self, lease_id: str, worker: str, results: list,
                 artifacts=()) -> str:
        """``worker`` reports success: ``results`` is one result-JSON
        dict per point of the leased task (the form that crosses every
        transport boundary).  Returns the queue's disposition."""
        now = time.monotonic()
        with self._lock:
            self._worker(worker, now)
            expected = self.queue.task_of(lease_id)
            if expected is not None and \
                    len(results) != len(expected.items):
                # Malformed payload: charge a failed attempt (checked
                # *before* settling, so the task retries, not wedges
                # as done-with-no-results).
                return self.fail(
                    lease_id, worker, f"completion carried {len(results)} "
                    f"results for {len(expected.items)} points")
            disposition, task = self.queue.complete(lease_id, now)
            if disposition in (queue_mod.OK, queue_mod.LATE):
                self._settle_ok(task, results, artifacts, worker, now)
            return disposition

    def fail(self, lease_id: str, worker: str, error: str) -> str:
        """``worker`` (or whoever supervises it) reports that the lease
        did not produce results: a caught exception, a crashed child, a
        passed deadline.  Charges the attempt; requeues or fails."""
        now = time.monotonic()
        with self._lock:
            self._worker(worker, now).failures += 1
            disposition, task = self.queue.fail(lease_id, error, now)
            if task is not None:
                self._settle_failure(task, disposition)
            return disposition

    # -- the driver's side ------------------------------------------------
    def tick(self) -> None:
        """Expire overdue leases (also done lazily on every lease)."""
        with self._lock:
            self._expired(self.queue.expire(time.monotonic()))

    def expire_dead_worker(self, worker: str, reason: str) -> None:
        """A supervisor saw ``worker``'s process die: charge and requeue
        its live leases immediately instead of waiting out the TTL."""
        with self._lock:
            self._expired(self.queue.expire_worker(
                worker, time.monotonic(), reason))

    def _expired(self, settled: list) -> None:
        for disposition, task in settled:
            self._settle_failure(task, disposition)

    def next_wake(self) -> float | None:
        """Seconds until the queue next changes by itself — a backoff
        ends or a lease deadline passes — or None if only a transport
        can move it.  The bound on every driver's wait.  A backoff that
        has already ended does not count: the task is waiting for
        capacity, which the transport signals (a zero here would spin
        the driver while every worker is busy)."""
        now = time.monotonic()
        with self._lock:
            eligible = self.queue.next_eligible()
            deadline = self.queue.next_deadline()
        waits = []
        if eligible is not None and eligible > now:
            waits.append(eligible - now)
        if deadline is not None and deadline != float("inf"):
            waits.append(max(deadline - now, 0.0))
        return min(waits, default=None)

    def wait_settled(self, keys, timeout: float | None) -> None:
        """Block until a result for one of ``keys`` is in, at most
        ``timeout`` seconds (None: until notified)."""
        with self.settled:
            self.settled.wait_for(
                lambda: any(k in self.results for k in keys), timeout)

    def resolved(self, keys: list[str]) -> bool:
        with self._lock:
            return all(k in self.results for k in keys)

    def collect(self, keys) -> dict:
        with self._lock:
            return {k: self.results[k] for k in keys if k in self.results}

    def leased_points(self) -> int:
        """Points currently out on a lease — ``Progress.running``."""
        with self._lock:
            return self.queue.point_counts()["leased"]

    def live_lease_keys(self) -> set[str]:
        with self._lock:
            return self.queue.live_keys()

    def release_leases(self) -> None:
        """On *graceful* shutdown or an interrupt: anything still out on
        a lease goes back to ``pending``, un-charged, in the queue and in
        its store, so the next run resumes it instead of treating it as
        running forever."""
        with self._lock:
            for task in self.queue.release_all():
                self._mark(task, "pending")

    # -- settlement (lock held) -------------------------------------------
    def _settle_ok(self, task, results_json: list, artifacts,
                   worker: str, now: float) -> None:
        artifacts = self._store_artifacts(artifacts)
        for (key, point), res_json in zip(task.items, results_json):
            res = cache_mod.result_from_json(res_json)
            metrics = res.extra.get("metrics")
            if isinstance(metrics, dict) and \
                    metrics.get("path") in artifacts:
                metrics["path"] = artifacts[metrics["path"]]
            if self.cache is not None:
                self.cache.put(key, point, task.cfg, res)
            if task.store is not None:
                task.store.mark(key, "done")
            self.results[key] = res
        stats = self._worker(worker, now)
        stats.points += len(task.items)
        stats.window.append((now, len(task.items)))
        self._window.append((now, len(task.items)))
        self.settled.notify_all()

    def _settle_failure(self, task, disposition: str) -> None:
        if disposition == queue_mod.REQUEUED:
            self._mark(task, "pending")
        elif disposition == queue_mod.FAILED:
            error = self.queue.error_of(task.tid)
            for key, point in task.items:
                if task.store is not None:
                    task.store.mark(key, "failed", error=error,
                                    attempts=task.attempt)
                self.results[key] = failed_result(point, error)
            self.settled.notify_all()

    def _mark(self, task, status: str) -> None:
        if task.store is not None:
            task.store.mark_many(task.keys, status)

    def _worker(self, worker: str, now: float) -> WorkerStats:
        stats = self._workers.get(worker)
        if stats is None:
            stats = self._workers[worker] = WorkerStats()
        stats.last_seen = now
        return stats

    def _store_artifacts(self, artifacts) -> dict:
        """Write worker-shipped metrics artifacts under this process's
        ``results/metrics/``; returns worker path -> local path."""
        mapping: dict[str, str] = {}
        if not artifacts:
            return mapping
        from repro.obs.exporters import metrics_dir
        out = metrics_dir()
        out.mkdir(parents=True, exist_ok=True)
        for art in artifacts:
            name = re.sub(r"[^A-Za-z0-9._-]+", "-",
                          os.path.basename(str(art.get("name", "artifact"))))
            path = out / name
            n = 1
            while path.exists():
                path = out / f"{n}_{name}"
                n += 1
            path.write_text(art.get("text", ""))
            mapping[str(art.get("name"))] = str(path)
        return mapping
