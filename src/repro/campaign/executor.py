"""Campaign execution: one ``run`` body over one task lifecycle.

:func:`run_campaign` is what every executor's ``run(points)`` does, in
the three steps of an :class:`OpenRun` — enqueue, wait, close:

* **cache-first** — points whose content address is already in the run
  cache are returned instantly and never recomputed;
* **replica batching** — points that differ only in their seed are
  folded into :class:`~repro.sim.batch.engine.ReplicaBatch` tasks, one
  piece per worker (scalar-bit-identical results, cached under their
  unchanged per-point keys); ``REPRO_NO_BATCH=1`` disables the folding;
* what is still pending goes to a :class:`~repro.campaign.lifecycle
  .Lifecycle`, which owns attempts, backoff, deadlines and settlement
  (DESIGN §8 "Task lifecycle"); a failed point yields a placeholder and
  is never cached, so the next run retries it;
* a **transport**, handed in by the caller, executes the leases: the
  body calls its ``wait`` until every key has settled, then ``close``.
  Two live here — :class:`Inline` (the caller's thread: no crash
  isolation, no fork dependency) and :class:`ForkPool` (one forked child
  per lease over a pipe); HTTP pullers are :mod:`repro.fabric.executor`;
* **live progress/ETA** — an optional callback receives a
  :class:`Progress` snapshot whenever something settles.

``run(points)`` is the one-frontier case.  A figure whose next points
depend on earlier results keeps the run open and feeds it frontier after
frontier from inside the same ``run`` call (:mod:`repro.campaign.plan`).
"""

from __future__ import annotations

import dataclasses
import os
import time
from dataclasses import dataclass
from multiprocessing import connection

from repro.config import RunResult, SimConfig
from repro.sim.parallel import Point, pool_context

from repro.campaign import cache as cache_mod
from repro.campaign.lifecycle import Lifecycle
from repro.campaign.queue import RetryPolicy
from repro.campaign.worker import execute_task, replica_signature

#: replicas per batch.  Bounds the memory footprint of one
#: worker (R full networks) and keeps a crash/timeout from voiding too
#: many points at once; larger seed sets split into several batches.
BATCH_CAP = 16


@dataclass
class Progress:
    """Snapshot passed to the progress callback."""

    total: int
    cached: int
    done: int = 0      # computed successfully this run
    failed: int = 0
    running: int = 0   # points out on a lease
    elapsed_s: float = 0.0
    eta_s: float | None = None

    @property
    def finished(self) -> int:
        return self.cached + self.done + self.failed


def group_items(pending: list, auto_batch: bool,
                workers: int = 1) -> list[list]:
    """Partition ``[(key, Point), ...]`` into units of worker execution:
    seed replicas sharing a :func:`~repro.campaign.worker
    .replica_signature` fold into groups, everything else stays a
    singleton.  A group of R replicas is cut into ``ceil(R / workers)``
    -sized pieces (never above :data:`BATCH_CAP`), so one series' seeds
    still reach every worker — pieces, not singletons: each forked child
    re-pays the first-run memo building (DESIGN §12).  Per-point cache
    keys are untouched — only the unit of execution changes."""
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
        size = min(BATCH_CAP, -(-len(items) // max(1, workers)))
        for i in range(0, len(items), size):
            out.append(items[i:i + size])
    return out


class OpenRun:
    """One campaign run, held open: :meth:`enqueue` frontiers of points
    as they become known, :meth:`wait` for results, :meth:`close`.

    Everything a run does once — re-queueing rows an interrupted run
    left ``running``, connecting a lifecycle and a transport, sizing the
    pool — happens once here however many frontiers arrive.
    ``connect(n_tasks)`` is called when the first frontier leaves
    something to compute and returns ``(lifecycle, transport)``;
    ``n_tasks`` is None while ``self.live`` (more frontiers may follow).
    ``adopted`` are keys already out on leases re-created from a journal
    (waited for, not resubmitted) and ``live_keys`` the keys
    legitimately ``running`` right now; both are empty for a lifecycle
    that starts and ends with this run.
    """

    def __init__(self, ex, connect, adopted=frozenset(), live_keys=(),
                 live: bool = False):
        self.ex = ex
        self.live = live
        self.results: dict[str, RunResult] = {}
        self.state = Progress(total=0, cached=0)
        self.batched = 0
        self._connect = connect
        self._adopted = adopted
        self._waiting: set[str] = set()
        self._life = self._transport = None
        self._t0 = time.monotonic()
        cache = ex.cache
        self._salt = cache.salt if cache is not None \
            else cache_mod.code_version()
        self._auto_batch = ex.auto_batch and \
            os.environ.get("REPRO_NO_BATCH") != "1"
        if ex.store is not None:
            ex.store.reset_running(exclude=live_keys)

    def enqueue(self, points: list[Point], cfg: SimConfig) -> list[str]:
        """Add one frontier; returns its keys in input order.  Cache hits
        are in ``self.results`` on return; a key this run has already
        seen is neither registered nor submitted again."""
        ex, cache, store = self.ex, self.ex.cache, self.ex.store
        results, waiting = self.results, self._waiting
        key_of, salt = cache_mod.point_key, self._salt
        keys = [key_of(p, cfg, salt) for p in points]
        new: dict[str, Point] = {}
        for key, point in zip(keys, points):
            if key not in results and key not in waiting:
                new.setdefault(key, point)
        if not new:
            return keys
        adopted = self._adopted & new.keys()
        if store is not None:
            store.register(list(new.items()))
        hits: dict[str, RunResult] = {}
        pending = []
        for key, point in new.items():
            if key in adopted:
                continue
            hit = cache.get(key) if cache is not None else None
            if hit is None:
                pending.append((key, point))
                continue
            hits[key] = hit
            if store is not None:
                store.mark(key, "done")
        results.update(hits)
        self.state.total += len(new)
        self.state.cached += len(hits)
        if pending or adopted:
            grouped = group_items(pending, self._auto_batch, ex.workers())
            self.batched += sum(len(g) for g in grouped if len(g) > 1)
            if self._life is None:
                self._life, self._transport = self._connect(
                    None if self.live else len(grouped))
                self._life.seed_results(results)
            else:
                self._life.seed_results(hits)
            self._life.submit(grouped, cfg, store)
            waiting.update(k for k, _ in pending)
            waiting |= adopted
        self.report()
        return keys

    def wait(self) -> dict[str, RunResult]:
        """Block until the transport has something to say — a result, a
        retry, a deadline — and return the results that settled (which
        may be none).  Nothing outstanding: returns at once."""
        if not self._waiting:
            return {}
        life, state = self._life, self.state
        self._transport.wait(life, self._waiting, life.next_wake())
        life.tick()
        fresh = life.collect(self._waiting)
        self.results.update(fresh)
        self._waiting -= fresh.keys()
        n_failed = sum(1 for res in fresh.values()
                       if res.extra.get("failed"))
        state.failed += n_failed
        state.done += len(fresh) - n_failed
        running = life.leased_points()
        if fresh or running != state.running:
            state.running = running
            self.report()
        return fresh

    def drain(self) -> None:
        """No further frontiers: the ETA is knowable again; wait for
        everything enqueued."""
        if self.live:
            self.live = False
            self.report()
        while self._waiting:
            self.wait()

    def report(self) -> None:
        """Hand the progress callback a snapshot.  The ETA is unknown
        (None, not zero) while more frontiers may arrive."""
        progress, state = self.ex.progress, self.state
        if progress is None:
            return
        state.elapsed_s = time.monotonic() - self._t0
        done = state.done + state.failed
        remaining = state.total - state.finished
        if self.live:
            state.eta_s = None
        elif not remaining:
            state.eta_s = 0.0
        else:
            state.eta_s = state.elapsed_s / done * remaining \
                if done else None
        progress(dataclasses.replace(state))

    def close(self) -> None:
        if self._transport is not None:
            self._transport.close(self._life)
        state = self.state
        self.ex.summary = {
            "total": state.total, "cached": state.cached,
            "computed": state.done, "failed": state.failed,
            "batched": self.batched,
            "elapsed_s": time.monotonic() - self._t0,
        }


def run_campaign(ex, points: list[Point], connect, adopted=frozenset(),
                 live_keys=(), plan=None) -> list[RunResult]:
    """What every executor's ``run`` does, for executor ``ex`` (its
    ``cfg``, ``cache``, ``store``, ``progress``, ``auto_batch``,
    ``workers()``): open a run, enqueue ``points`` as one frontier under
    ``ex.cfg``, let ``plan(run)`` — if given — enqueue and wait for
    further frontiers of its own (:mod:`repro.campaign.plan`), wait for
    the rest, close.  Results of ``points`` in input order, ``ex.summary``
    filled in."""
    run = OpenRun(ex, connect, adopted, live_keys, live=plan is not None)
    try:
        keys = run.enqueue(points, ex.cfg)
        if plan is not None:
            plan(run)
        run.drain()
    finally:
        run.close()
    return [run.results[key] for key in keys]


# -- local transports -----------------------------------------------------

def _attempt(points: list[Point], cfg: SimConfig) -> tuple:
    """One attempt at a task: ``("ok", results)`` in the JSON form
    ``complete`` takes, or ``("error", message)`` for ``fail``."""
    try:
        return "ok", [cache_mod.result_to_json(r)
                      for r in execute_task(points, cfg)]
    except Exception as exc:  # noqa: BLE001 - per-task isolation
        return "error", f"{type(exc).__name__}: {exc}"


def _settle(life, lease, worker: str, kind: str, payload) -> None:
    if kind == "ok":
        life.complete(lease.lease_id, worker, payload)
    else:
        life.fail(lease.lease_id, worker, payload)


class Inline:
    """Lease, run, report — in the caller's thread."""

    def wait(self, life, waiting, timeout: float | None) -> None:
        leases = life.lease("inline")
        if not leases:
            # Everything pending is backing off, and in-process there is
            # nobody who could signal: the one sleep on the waiting side.
            time.sleep(timeout or 0.0)
        for lease in leases:
            _settle(life, lease, "inline",
                    *_attempt(lease.task.points, lease.task.cfg))

    def close(self, life) -> None:
        life.release_leases()


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


def _pool_size(requested: int | None, n_tasks: int | None) -> int:
    """Worker processes to run at once: the request (default: as many
    as :func:`default_workers` allows), capped by
    :func:`default_workers`, and never more than there are tasks when
    their number is known (``n_tasks`` is None for a run still open to
    further frontiers)."""
    cap = default_workers()
    return max(1, min(requested or cap, cap,
                      cap if n_tasks is None else n_tasks))


def _child(points: list[Point], cfg: SimConfig, conn) -> None:
    with conn:
        conn.send(_attempt(points, cfg))


class ForkPool:
    """One forked child per lease, reporting over a pipe; at most
    ``procs`` at a time.  A child that dies without reporting (segfault,
    OOM-kill, ``os._exit``) fails only its lease; so does one still
    running ``timeout_s`` after its grant, which is terminated.  A child
    dies with this process, so nothing here is journalled."""

    def __init__(self, procs: int, timeout_s: float | None):
        self.procs = procs
        self.timeout_s = timeout_s
        self._ctx = pool_context()
        self._active: dict = {}          # parent conn -> (Process, Lease)

    def wait(self, life, waiting, timeout: float | None) -> None:
        for lease in life.lease("pool", self.procs - len(self._active)):
            parent, child = self._ctx.Pipe(duplex=False)
            proc = self._ctx.Process(
                target=_child, daemon=True,
                args=(lease.task.points, lease.task.cfg, child))
            proc.start()
            child.close()
            self._active[parent] = (proc, lease)
        if self.timeout_s is not None and self._active:
            due = min(l.granted for _, l in self._active.values()) + \
                self.timeout_s - time.monotonic()
            timeout = max(0.0, due if timeout is None
                          else min(timeout, due))
        for conn in connection.wait(list(self._active), timeout):
            try:
                report = conn.recv()
            except (EOFError, OSError):
                report = None
            proc, lease = self._reap(conn)
            _settle(life, lease, "pool", *(report or (
                "error", f"worker crashed (exitcode {proc.exitcode})")))
        if self.timeout_s is not None:
            now = time.monotonic()
            for conn, (proc, lease) in list(self._active.items()):
                if now - lease.granted > self.timeout_s:
                    proc.terminate()
                    self._reap(conn)
                    life.fail(lease.lease_id, "pool",
                              f"timeout after {self.timeout_s:.1f}s")

    def _reap(self, conn) -> tuple:
        proc, lease = self._active.pop(conn)
        conn.close()
        proc.join(timeout=5)
        return proc, lease

    def close(self, life) -> None:
        for conn, (proc, _) in list(self._active.items()):
            proc.terminate()
            self._reap(conn)
        life.release_leases()


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
        #: group points differing only in their seed into replica
        #: batches (results stay bit-identical and individually cached;
        #: REPRO_NO_BATCH=1 is the environment escape hatch).  A fold
        #: shares nothing between its replicas: it is a unit of
        #: execution, sized per worker (sim/batch/engine.py).
        self.auto_batch = auto_batch
        self.summary: dict = {}

    def run(self, points: list[Point], plan=None) -> list[RunResult]:
        """Execute ``points``; results come back in input order.
        ``plan(run)`` may feed the same open run further frontiers
        (:func:`run_campaign`)."""
        return run_campaign(self, points, self._connect, plan=plan)

    def workers(self) -> int:
        """How many leases can execute at once — what a seed group is
        cut for (:func:`group_items`)."""
        return _pool_size(self.processes, None)

    def _connect(self, n_tasks: int | None):
        """A lifecycle that lives for one run and the transport that
        drives it.  Its leases never expire by TTL: a child cannot go
        silent — its death closes the pipe.  In-process for
        ``processes=1``, or when a single task is all there will be
        (``n_tasks`` is None while further frontiers may arrive: the
        first one's size says nothing about the figure's) — unless a
        timeout is set: only a child process can be stopped at a
        deadline, so one job then means a pool of one."""
        life = Lifecycle(self.cache, self.retry, lease_ttl_s=float("inf"))
        timeout_s = self.retry.timeout_s
        if timeout_s is None and (self.processes == 1 or (
                self.processes is None and n_tasks is not None
                and n_tasks <= 1)):
            return life, Inline()
        return life, ForkPool(_pool_size(self.processes, n_tasks),
                              timeout_s)
