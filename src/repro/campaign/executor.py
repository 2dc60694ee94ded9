"""Fault-tolerant campaign executor.

Wraps the plain process-pool sweep with the properties a long campaign
needs:

* **cache-first** — points whose content address is already in the run
  cache are returned instantly and never recomputed;
* **replica batching** — points that differ only in their meta seed are
  folded into one :class:`~repro.sim.batch.engine.ReplicaBatch` per
  worker (scalar-bit-identical results, cached under their unchanged
  per-point keys); ``REPRO_NO_BATCH=1`` disables the folding;
* **crash isolation** — every task (point or batch) runs in its own
  worker process; a worker that dies (segfault, OOM-kill, ``os._exit``)
  fails only its task, never the campaign;
* **bounded retries with backoff** — a failed point is retried up to
  ``RetryPolicy.max_attempts`` times, waiting ``backoff_s * 2**(n-1)``
  between attempts; exhausted points yield a placeholder result and are
  recorded as ``failed`` in the store (and deliberately *not* cached, so
  the next run retries them);
* **wall-clock timeouts** — a point exceeding ``timeout_s`` is terminated
  and treated as a failed attempt;
* **live progress/ETA** — an optional callback receives a
  :class:`Progress` snapshot after every completion.

With ``processes=1`` (or a single uncached point and no timeout) points
run in-process: no crash isolation, but identical results and no fork
dependency — the mode the unit tests and quick single-point experiments
use.
"""

from __future__ import annotations

import os
import time
from collections import deque
from dataclasses import dataclass, field
from multiprocessing import connection

from repro.config import RunResult, SimConfig
from repro.sim.parallel import Point, pool_context

from repro.campaign import cache as cache_mod
from repro.campaign.worker import (execute_group, execute_point,
                                   failed_result, replica_signature)

#: replicas per batch.  Bounds the memory footprint of one
#: worker (R full networks) and keeps a crash/timeout from voiding too
#: many points at once; larger seed sets split into several batches.
BATCH_CAP = 16


@dataclass(frozen=True)
class RetryPolicy:
    max_attempts: int = 3
    backoff_s: float = 0.25
    timeout_s: float | None = None

    def delay(self, attempt: int) -> float:
        return self.backoff_s * (2 ** (attempt - 1))


@dataclass
class Progress:
    """Snapshot passed to the progress callback."""

    total: int
    cached: int
    done: int          # computed successfully this run
    failed: int
    running: int
    elapsed_s: float
    eta_s: float | None

    @property
    def finished(self) -> int:
        return self.cached + self.done + self.failed


@dataclass
class _Task:
    """One unit of worker execution: a single point, or a group of
    seed replicas folded into one batch."""

    items: list                # [(key, Point), ...]
    attempt: int = 0
    eligible: float = 0.0      # monotonic time before which we must wait


@dataclass
class _Running:
    task: _Task
    proc: object
    conn: object
    started: float = field(default_factory=time.monotonic)


def group_items(pending: list, auto_batch: bool) -> list[list]:
    """Partition ``[(key, Point), ...]`` into units of worker execution:
    seed replicas sharing a :func:`~repro.campaign.worker
    .replica_signature` fold into groups of up to :data:`BATCH_CAP`,
    everything else stays a singleton.  Per-point cache keys are
    untouched — only the unit of execution changes.  Shared by the local
    executor and the fabric coordinator, so a distributed campaign
    batches exactly like a local one."""
    singles: list[list] = []
    groups: dict = {}
    for key, point in pending:
        sig = replica_signature(point) if auto_batch else None
        if sig is None:
            singles.append([(key, point)])
        else:
            groups.setdefault(sig, []).append((key, point))
    out = singles
    for items in groups.values():
        for i in range(0, len(items), BATCH_CAP):
            out.append(items[i:i + BATCH_CAP])
    return out


def default_workers() -> int:
    """Worker-count ceiling that respects CPU affinity.

    ``os.cpu_count()`` reports the machine, not the cgroup/affinity mask
    a containerized CI run is pinned to; oversubscribing the mask makes
    every worker slower.  Falls back to ``cpu_count`` where affinity is
    unavailable (macOS, Windows).
    """
    try:
        return len(os.sched_getaffinity(0)) or 1
    except (AttributeError, OSError):
        return os.cpu_count() or 1


def _pool_size(requested: int | None, n_tasks: int) -> int:
    """Worker processes to launch: the request (default one per task),
    never more than there are tasks, capped by
    :func:`default_workers`."""
    return max(1, min(requested or n_tasks, n_tasks, default_workers()))


def _execute_task(points: list[Point], cfg: SimConfig) -> list[RunResult]:
    if len(points) == 1:
        return [execute_point(points[0], cfg)]
    return execute_group(points, cfg)


def _child(points: list[Point], cfg: SimConfig, conn) -> None:
    try:
        out = _execute_task(points, cfg)
        conn.send(("ok", [cache_mod.result_to_json(r) for r in out]))
    except BaseException as exc:  # noqa: BLE001 - forwarded to the parent
        try:
            conn.send(("error", f"{type(exc).__name__}: {exc}"))
        except (OSError, ValueError):
            pass
    finally:
        conn.close()


class CampaignExecutor:
    def __init__(self, cfg: SimConfig, cache=None, store=None,
                 processes: int | None = None,
                 retry: RetryPolicy | None = None,
                 progress=None, auto_batch: bool = True):
        self.cfg = cfg
        self.cache = cache
        self.store = store
        self.processes = processes
        self.retry = retry or RetryPolicy()
        self.progress = progress
        #: group points differing only in their meta seed into replica
        #: batches (results stay bit-identical and individually cached;
        #: REPRO_NO_BATCH=1 is the environment escape hatch).  SoA-engined
        #: points fold too: their kernels share one dense-table build.
        self.auto_batch = auto_batch and \
            os.environ.get("REPRO_NO_BATCH") != "1"
        self.summary: dict = {}

    # ------------------------------------------------------------------
    def run(self, points: list[Point]) -> list[RunResult]:
        """Execute ``points``; results come back in input order."""
        t0 = time.monotonic()
        salt = self.cache.salt if self.cache is not None \
            else cache_mod.code_version()
        keys = [cache_mod.point_key(p, self.cfg, salt) for p in points]
        unique: dict[str, Point] = {}
        for key, point in zip(keys, points):
            unique.setdefault(key, point)

        if self.store is not None:
            self.store.register(list(unique.items()))
            self.store.reset_running()

        results: dict[str, RunResult] = {}
        cached = 0
        if self.cache is not None:
            for key, point in unique.items():
                hit = self.cache.get(key)
                if hit is not None:
                    results[key] = hit
                    cached += 1
                    if self.store is not None:
                        self.store.mark(key, "done")
        pending = [(k, p) for k, p in unique.items() if k not in results]
        tasks = self._group(pending)

        state = {"total": len(unique), "cached": cached, "done": 0,
                 "failed": 0, "running": 0, "t0": t0}
        self._report(state)
        if tasks:
            if self._serial_ok(len(tasks)):
                self._run_serial(tasks, results, state)
            else:
                self._run_parallel(tasks, results, state)

        self.summary = {
            "total": len(unique), "cached": cached,
            "computed": state["done"], "failed": state["failed"],
            "batched": sum(len(t.items) for t in tasks
                           if len(t.items) > 1),
            "elapsed_s": time.monotonic() - t0,
        }
        return [results[key] for key in keys]

    def _group(self, pending) -> list[_Task]:
        """Fold seed replicas into batch tasks via :func:`group_items`."""
        return [_Task(items)
                for items in group_items(pending, self.auto_batch)]

    def _serial_ok(self, n_tasks: int) -> bool:
        if self.processes == 1:
            return True
        return (self.processes is None and n_tasks <= 1
                and self.retry.timeout_s is None)

    # -- shared bookkeeping ---------------------------------------------
    def _finish_ok(self, key: str, point: Point, res: RunResult,
                   results: dict, state: dict) -> None:
        if self.cache is not None:
            self.cache.put(key, point, self.cfg, res)
        if self.store is not None:
            self.store.mark(key, "done")
        results[key] = res
        state["done"] += 1
        self._report(state)

    def _finish_failed(self, key: str, point: Point, error: str,
                       attempts: int, results: dict, state: dict) -> None:
        if self.store is not None:
            self.store.mark(key, "failed", error=error, attempts=attempts)
        results[key] = failed_result(point, error)
        state["failed"] += 1
        self._report(state)

    def _report(self, state: dict) -> None:
        if self.progress is None:
            return
        elapsed = time.monotonic() - state["t0"]
        done = state["done"] + state["failed"]
        remaining = state["total"] - state["cached"] - done
        eta = elapsed / done * remaining if done and remaining else \
            (0.0 if not remaining else None)
        self.progress(Progress(total=state["total"],
                               cached=state["cached"], done=state["done"],
                               failed=state["failed"],
                               running=state["running"],
                               elapsed_s=elapsed, eta_s=eta))

    # -- serial path ----------------------------------------------------
    def _run_serial(self, tasks, results, state) -> None:
        for task in tasks:
            if self.store is not None:
                for key, _ in task.items:
                    self.store.mark(key, "running")
            attempt = 0
            points = [p for _, p in task.items]
            while True:
                attempt += 1
                try:
                    out = _execute_task(points, self.cfg)
                except KeyboardInterrupt:
                    if self.store is not None:
                        for key, _ in task.items:
                            self.store.mark(key, "pending")
                    raise
                except Exception as exc:  # noqa: BLE001 - per-point isolation
                    error = f"{type(exc).__name__}: {exc}"
                    if attempt >= self.retry.max_attempts:
                        for key, point in task.items:
                            self._finish_failed(key, point, error, attempt,
                                                results, state)
                        break
                    time.sleep(min(self.retry.delay(attempt), 5.0))
                else:
                    # Outside the except scope: an interrupt raised by the
                    # progress callback must not un-mark a finished point.
                    for (key, point), res in zip(task.items, out):
                        self._finish_ok(key, point, res, results, state)
                    break

    # -- parallel path --------------------------------------------------
    def _run_parallel(self, tasks, results, state) -> None:
        ctx = pool_context()
        procs = _pool_size(self.processes, len(tasks))
        queue: deque[_Task] = deque(tasks)
        active: dict[object, _Running] = {}

        def launch(task: _Task) -> None:
            task.attempt += 1
            parent, child = ctx.Pipe(duplex=False)
            proc = ctx.Process(target=_child,
                               args=([p for _, p in task.items],
                                     self.cfg, child),
                               daemon=True)
            proc.start()
            child.close()
            active[parent] = _Running(task, proc, parent)
            if self.store is not None:
                for key, _ in task.items:
                    self.store.mark(key, "running")
            state["running"] = len(active)

        def settle(run: _Running, error: str | None,
                   payload=None) -> None:
            """Retire one attempt: success, retry, or final failure."""
            del active[run.conn]
            run.conn.close()
            run.proc.join(timeout=5)
            task = run.task
            if error is None:
                for (key, point), res_json in zip(task.items, payload):
                    res = cache_mod.result_from_json(res_json)
                    self._finish_ok(key, point, res, results, state)
            elif task.attempt >= self.retry.max_attempts:
                for key, point in task.items:
                    self._finish_failed(key, point, error,
                                        task.attempt, results, state)
            else:
                task.eligible = time.monotonic() + \
                    self.retry.delay(task.attempt)
                queue.append(task)
            state["running"] = len(active)

        try:
            while queue or active:
                now = time.monotonic()
                for _ in range(len(queue)):
                    if len(active) >= procs:
                        break
                    task = queue.popleft()
                    if task.eligible <= now:
                        launch(task)
                    else:
                        queue.append(task)
                if not active:
                    time.sleep(min(0.05, max(
                        0.0, min(t.eligible for t in queue) - now)))
                    continue
                ready = connection.wait(list(active), timeout=0.1)
                for conn in ready:
                    run = active[conn]
                    try:
                        kind, payload = conn.recv()
                    except (EOFError, OSError):
                        kind, payload = "error", (
                            "worker crashed "
                            f"(exitcode {run.proc.exitcode})")
                    if kind == "ok":
                        settle(run, None, payload)
                    else:
                        settle(run, str(payload))
                if self.retry.timeout_s is not None:
                    now = time.monotonic()
                    for run in [r for r in active.values()
                                if now - r.started > self.retry.timeout_s]:
                        run.proc.terminate()
                        settle(run, "timeout after "
                               f"{self.retry.timeout_s:.1f}s")
        finally:
            for run in list(active.values()):
                run.proc.terminate()
                run.proc.join(timeout=1)
                run.conn.close()
                if self.store is not None:
                    for key, _ in run.task.items:
                        self.store.mark(key, "pending")
