"""Fabric-backed campaign execution.

Two pieces:

* :class:`FabricSession` — a running coordinator (HTTP server thread)
  plus, optionally, locally-spawned loopback worker processes.  A
  ``fabric serve`` CLI session keeps one of these alive across many
  ``run_points`` calls so remote workers can drain experiment after
  experiment; the differential tests use one per call.
* :class:`FabricExecutor` — the drop-in counterpart of
  :class:`~repro.campaign.executor.CampaignExecutor`: same ``run(points)
  -> results-in-input-order`` contract, same cache-first/store/resume
  behaviour, same replica auto-batching (via the shared
  :func:`~repro.campaign.executor.group_items`), but execution happens
  wherever workers pull from — local loopback subprocesses, other
  terminals, other hosts.

Because workers run the unmodified ``execute_point``/``execute_group``
datapath and results round-trip through the same JSON encoding the run
cache uses, a loopback fabric run is bit-identical to the local
executor — enforced by ``tests/integration/test_fabric_loopback.py``.
"""

from __future__ import annotations

import itertools
import os
import time

from repro.campaign import cache as cache_mod
from repro.campaign.executor import Progress, RetryPolicy, group_items
from repro.fabric.coordinator import Coordinator
from repro.fabric.worker import worker_process_main
from repro.sim.parallel import pool_context

#: poll cadence of the waiting executor (expiry sweeps, progress, worker
#: supervision).  Short: every tick is sub-millisecond bookkeeping.
_POLL_S = 0.05


class FabricSession:
    """A live coordinator plus supervised local loopback workers."""

    _ids = itertools.count(1)

    def __init__(self, cache=None, retry: RetryPolicy | None = None,
                 lease_ttl_s: float = 60.0, host: str = "127.0.0.1",
                 port: int = 0, workers: int = 0,
                 campaign: str | None = None,
                 redundancy: float = 0.0, redundancy_seed: int = 0,
                 resume: bool = False, chaos_token: str | None = None):
        self.coordinator = Coordinator(cache=cache, retry=retry,
                                       lease_ttl_s=lease_ttl_s,
                                       campaign=campaign,
                                       redundancy=redundancy,
                                       redundancy_seed=redundancy_seed)
        self.url = self.coordinator.start(host, port)
        self.resume = resume          # adopt journaled leases on run()
        self.chaos_token = chaos_token
        self._ctx = pool_context()
        self._workers: dict[str, object] = {}      # worker_id -> Process
        self._spawns = 0              # session-local chaos salt stream
        self.respawns = 0
        for _ in range(workers):
            self.spawn_worker()

    # -- local worker supervision --------------------------------------
    def spawn_worker(self) -> str:
        wid = f"loopback-{os.getpid()}-{next(self._ids)}"
        self._spawns += 1
        kwargs = {"worker_id": wid, "poll_s": _POLL_S}
        if self.chaos_token:
            # salt by spawn index: siblings share a plan but not a
            # fault stream, and a respawned worker gets a fresh one
            kwargs.update(chaos_token=self.chaos_token,
                          chaos_salt=self._spawns)
        proc = self._ctx.Process(target=worker_process_main,
                                 args=(self.url,),
                                 kwargs=kwargs,
                                 daemon=True)
        proc.start()
        self._workers[wid] = proc
        return wid

    def maintain(self) -> list[str]:
        """Reap dead local workers and replace them; returns the ids of
        the dead so their leases can be force-expired (no need to wait
        out the TTL when the supervisor *saw* the crash)."""
        dead = [wid for wid, p in self._workers.items()
                if not p.is_alive()]
        for wid in dead:
            self._workers.pop(wid).join(timeout=1)
            self.coordinator.expire_dead_worker(wid)
            if self.coordinator.state == "ok":
                self.spawn_worker()
                self.respawns += 1
        return dead

    @property
    def n_workers(self) -> int:
        return len(self._workers)

    # -- lifecycle ------------------------------------------------------
    def close(self, linger_s: float = 5.0) -> None:
        """Shut down: workers see the shutdown state on their next poll
        and exit; anything still leased is re-marked pending in its
        store so a later run resumes it.

        Remote pullers are given up to ``linger_s`` to observe the
        shutdown state before the server goes away — otherwise they
        would grind through their connection-retry budget against a
        vanished coordinator instead of exiting cleanly.
        """
        self.coordinator.shutdown()
        local = set(self._workers)
        deadline = time.monotonic() + 10
        for wid, proc in self._workers.items():
            proc.join(timeout=max(0.1, deadline - time.monotonic()))
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=1)
        self._workers.clear()
        deadline = time.monotonic() + linger_s
        while time.monotonic() < deadline and \
                self.coordinator.workers_pending_dismissal(exclude=local):
            time.sleep(0.05)
        self.coordinator.release_leases()
        self.coordinator.stop()

    def __enter__(self) -> "FabricSession":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class FabricExecutor:
    """Coordinator/worker counterpart of ``CampaignExecutor``.

    With ``session=None`` an ephemeral loopback session is created for
    the duration of :meth:`run`: coordinator on an OS-assigned localhost
    port, ``workers`` pulling subprocesses, everything torn down before
    returning.  Pass a long-lived :class:`FabricSession` (the ``serve``
    CLI does) to feed an existing fleet instead.
    """

    def __init__(self, cfg, cache=None, store=None,
                 workers: int = 2, retry: RetryPolicy | None = None,
                 progress=None, auto_batch: bool = True,
                 session: FabricSession | None = None,
                 lease_ttl_s: float = 60.0,
                 redundancy: float = 0.0,
                 resume: bool | None = None):
        self.cfg = cfg
        self.cache = cache
        self.store = store
        self.workers = workers
        self.retry = retry or RetryPolicy()
        self.progress = progress
        self.auto_batch = auto_batch and \
            os.environ.get("REPRO_NO_BATCH") != "1"
        self.session = session
        self.lease_ttl_s = lease_ttl_s
        self.redundancy = redundancy   # only used for ephemeral sessions
        # resume (adopt journaled leases) follows the session's setting
        # unless overridden; an ephemeral session has no prior life to
        # resume, so the default is False there.
        self.resume = resume if resume is not None else \
            (session.resume if session is not None else False)
        self.summary: dict = {}

    # ------------------------------------------------------------------
    def run(self, points: list) -> list:
        """Execute ``points`` on the fabric; results in input order."""
        t0 = time.monotonic()
        salt = self.cache.salt if self.cache is not None \
            else cache_mod.code_version()
        keys = [cache_mod.point_key(p, self.cfg, salt) for p in points]
        unique: dict = {}
        for key, point in zip(keys, points):
            unique.setdefault(key, point)

        session = self.session
        owns_session = session is None
        adopted: set = set()
        if self.store is not None:
            self.store.register(list(unique.items()))
            if session is not None and self.resume:
                # Crash recovery: re-create the leases a previous
                # coordinator journaled before dying, restricted to the
                # points this run actually wants.
                adopted = session.coordinator.adopt_leases(
                    self.store, self.cfg) & set(unique)
            else:
                # Fresh run: stale journal rows (from a crash nobody
                # resumed) must not outlive this campaign — the live
                # session re-journals its own leases as it grants them.
                self.store.clear_leases()
            live = session.coordinator.live_lease_keys() \
                if session is not None else ()
            self.store.reset_running(exclude=live)

        results: dict = {}
        cached = 0
        if self.cache is not None:
            for key, point in unique.items():
                hit = self.cache.get(key)
                if hit is not None and key not in adopted:
                    results[key] = hit
                    cached += 1
                    if self.store is not None:
                        self.store.mark(key, "done")
        pending = [(k, p) for k, p in unique.items()
                   if k not in results and k not in adopted]
        grouped = group_items(pending, self.auto_batch)

        state = {"total": len(unique), "cached": cached, "done": 0,
                 "failed": 0, "running": 0, "t0": t0}
        self._report(state)
        if owns_session and grouped:
            session = FabricSession(cache=self.cache, retry=self.retry,
                                    lease_ttl_s=self.lease_ttl_s,
                                    workers=self.workers,
                                    redundancy=self.redundancy)
        fabric_info = {
            "url": session.url if session is not None else None,
            "loopback_workers": session.n_workers
            if session is not None else 0,
            "respawns": 0,
        }
        try:
            if grouped or adopted:
                coord = session.coordinator
                coord.seed_results(results)
                if grouped:
                    coord.submit(grouped, self.cfg, self.store)
                wait_keys = [k for k, _ in pending] + sorted(adopted)
                self._wait(coord, session, wait_keys, results, state)
        finally:
            if session is not None:
                fabric_info["respawns"] = session.respawns
                if owns_session:
                    session.close()

        self.summary = {
            "total": len(unique), "cached": cached,
            "computed": state["done"], "failed": state["failed"],
            "batched": sum(len(g) for g in grouped if len(g) > 1),
            "elapsed_s": time.monotonic() - t0,
            "fabric": fabric_info,
        }
        return [results[key] for key in keys]

    # ------------------------------------------------------------------
    def _wait(self, coord: Coordinator, session: FabricSession,
              pending_keys: list, results: dict, state: dict) -> None:
        pending_set = set(pending_keys)
        while pending_set:
            coord.tick()
            if session is not None:
                session.maintain()
            fresh = coord.collect(list(pending_set))
            for key, res in fresh.items():
                results[key] = res
                pending_set.discard(key)
                if res.extra.get("failed"):
                    state["failed"] += 1
                else:
                    state["done"] += 1
            if fresh:
                state["running"] = coord.status()["counts"]["leased"]
                self._report(state)
            if pending_set:
                time.sleep(_POLL_S)

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
