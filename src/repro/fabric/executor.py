"""The HTTP transport: campaign execution by workers that pull.

Two pieces:

* :class:`FabricSession` — a running coordinator (HTTP server thread)
  plus, optionally, locally-spawned loopback worker processes.  A
  ``fabric serve`` CLI session keeps one of these alive across many
  ``run_points`` calls so remote workers can drain experiment after
  experiment.
* :class:`FabricExecutor` — :func:`~repro.campaign.executor
  .run_campaign` (the same ``run`` body the local executor calls) handed
  the session's coordinator as its lifecycle and :class:`Pullers` as its
  transport: leases are executed wherever workers pull from — local
  loopback subprocesses, other terminals, other hosts.  The one step of
  its own is adopting a dead coordinator's journaled leases under
  ``--resume``, which only a transport whose leases outlive their
  grantor needs.

Because workers run the same ``execute_task`` and results cross every
transport in the JSON encoding the run cache uses, a loopback fabric run
is bit-identical to a local one — enforced over all three transports by
``tests/unit/test_campaign_executor.py``.
"""

from __future__ import annotations

import itertools
import os
import time

from repro.campaign.executor import run_campaign
from repro.campaign.queue import RetryPolicy
from repro.fabric.coordinator import Coordinator
from repro.fabric.worker import worker_process_main
from repro.sim.parallel import pool_context

#: how often loopback pullers are checked for death (a crashed process
#: signals nothing) and their own idle poll cadence.
_POLL_S = 0.05


class FabricSession:
    """A live coordinator plus supervised local loopback workers."""

    _ids = itertools.count(1)

    def __init__(self, cache=None, retry: RetryPolicy | None = None,
                 lease_ttl_s: float = 60.0, host: str = "127.0.0.1",
                 port: int = 0, workers: int = 0,
                 campaign: str | None = None, resume: bool = False,
                 chaos_token: str | None = None):
        self.coordinator = Coordinator(cache=cache, retry=retry,
                                       lease_ttl_s=lease_ttl_s,
                                       campaign=campaign)
        self.url = self.coordinator.start(host, port)
        self.resume = resume          # adopt journaled leases on run()
        self.chaos_token = chaos_token
        self._ctx = pool_context()
        self._workers: dict[str, object] = {}      # worker_id -> Process
        self._spawned: set[str] = set()   # every local id, reaped ones too
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
        self._spawned.add(wid)
        return wid

    def maintain(self) -> None:
        """Reap dead local workers, fail their leases with what was seen
        (no need to wait out the TTL when the supervisor *saw* the
        crash) and replace them."""
        for wid in [wid for wid, p in self._workers.items()
                    if not p.is_alive()]:
            proc = self._workers.pop(wid)
            proc.join(timeout=1)
            self.coordinator.expire_dead_worker(
                wid, f"worker crashed (exitcode {proc.exitcode})")
            if self.coordinator.state == "ok":
                self.spawn_worker()
                self.respawns += 1

    @property
    def n_workers(self) -> int:
        return len(self._workers)

    # -- lifecycle ------------------------------------------------------
    def close(self, linger_s: float = 5.0) -> None:
        """Shut down: workers see the shutdown state on their next poll
        and exit; anything still leased is re-marked pending in its
        store so a later run resumes it.

        Remote pullers — any worker this session did not spawn, so not
        a local one it reaped after a crash — are given up to
        ``linger_s`` to observe the shutdown state before the server
        goes away; otherwise they would grind through their
        connection-retry budget against a vanished coordinator instead
        of exiting cleanly.
        """
        self.coordinator.shutdown()
        deadline = time.monotonic() + 10
        for wid, proc in self._workers.items():
            proc.join(timeout=max(0.1, deadline - time.monotonic()))
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=1)
        self._workers.clear()
        deadline = time.monotonic() + linger_s
        while time.monotonic() < deadline and \
                self.coordinator.workers_pending_dismissal(
                    exclude=self._spawned):
            time.sleep(0.05)
        self.coordinator.release_leases()
        self.coordinator.stop()

    def __enter__(self) -> "FabricSession":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class Pullers:
    """The transport of a :class:`FabricSession`: workers lease and
    complete over HTTP on their own, so the driver only supervises the
    loopback ones and blocks until the coordinator's server thread
    settles something."""

    def __init__(self, session: FabricSession):
        self.session = session

    def wait(self, life, waiting, timeout: float | None) -> None:
        self.session.maintain()
        if self.session.n_workers:
            timeout = _POLL_S if timeout is None else min(timeout, _POLL_S)
        life.wait_settled(waiting, timeout)

    def close(self, life) -> None:
        """Nothing: leases outlive a ``run``; the session releases them
        when it closes."""


class FabricExecutor:
    """``run(points)`` through a live :class:`FabricSession`, which owns
    the fleet, the retry policy and the lease TTL."""

    def __init__(self, cfg, session: FabricSession, cache=None,
                 store=None, progress=None, auto_batch: bool = True):
        self.cfg = cfg
        self.session = session
        self.cache = cache
        self.store = store
        self.progress = progress
        self.auto_batch = auto_batch
        self.summary: dict = {}

    def run(self, points: list, plan=None) -> list:
        """Execute ``points`` on the fabric; results in input order.
        ``plan`` as for :func:`~repro.campaign.executor.run_campaign`.
        The journal is cleared or adopted here, once per run — never per
        frontier, which would re-queue what an earlier frontier of the
        same run has out on lease."""
        session = self.session
        coord = session.coordinator
        adopted, live_keys = frozenset(), ()
        if self.store is not None:
            if session.resume:
                # Crash recovery: re-create the leases a previous
                # coordinator journaled before dying.
                adopted = coord.adopt_leases(self.store, self.cfg)
            else:
                # Fresh run: stale journal rows (from a crash nobody
                # resumed) must not outlive this campaign — the live
                # session re-journals its own leases as it grants them.
                self.store.clear_leases()
            live_keys = coord.live_lease_keys()
        out = run_campaign(self, points,
                           lambda n_tasks: (coord, Pullers(session)),
                           adopted, live_keys, plan)
        self.summary["fabric"] = {"url": session.url,
                                  "loopback_workers": session.n_workers,
                                  "respawns": session.respawns}
        return out

    def workers(self) -> int:
        """The fleet a seed group is cut for: the loopback workers plus
        whoever else has been pulling lately."""
        session = self.session
        return max(1, session.n_workers,
                   session.coordinator.present_workers())
