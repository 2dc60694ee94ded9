"""Integration: the fabric survives chaos without bending a bit.

Acceptance properties of the chaos subsystem (ISSUE 7):

* a campaign run under a seeded :class:`~repro.chaos.plan.ChaosPlan`
  (delays, drops, resets, truncation, corruption, duplicated
  completions on the real wire) is **bit-identical** to the local
  executor, with every point settled exactly once in the store;
* a coordinator that dies without cleanup leaves its lease journal
  behind, and a restarted coordinator adopts the outstanding leases —
  a surviving worker's completion under the *old* lease id still
  counts;
* a full campaign process SIGKILLed mid-run resumes via
  ``--resume`` semantics (journal adoption + store resume) to the same
  bits as a clean local run.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import os
import signal
import socket
import time

import pytest

from repro.campaign import (CampaignStore, RetryPolicy, RunCache,
                            run_points)
from repro.campaign import cache as cache_mod
from repro.campaign.worker import execute_point
from repro.chaos.plan import mild_chaos
from repro.config import SimConfig
from repro.fabric import protocol
from repro.fabric.coordinator import Coordinator
from repro.fabric.executor import FabricExecutor, FabricSession
from repro.fabric.httpd import http_json
from repro.sim.parallel import Point, grid

#: small-but-real config: every scheme feature exercised, seconds not
#: minutes per campaign
CHAOS_CFG = SimConfig(rows=4, cols=4, warmup_cycles=50,
                      measure_cycles=150, drain_cycles=400,
                      fastpass_slot_cycles=64)

#: four scalar points plus three seed replicas (one lock-step batch
#: task) — every task shape the fabric knows
CHAOS_POINTS = grid([("escapevc", {}), ("fastpass", {"n_vcs": 2})],
                    ["uniform"], [0.02, 0.05]) + \
    [Point.make_seeded("fastpass", "uniform", 0.03, seed=s, n_vcs=2)
     for s in (1, 2, 3)]

#: the SIGKILL differential wants a longer campaign so the kill lands
#: mid-run with work on both sides of it
CRASH_CFG = SimConfig(rows=4, cols=4, warmup_cycles=100,
                      measure_cycles=300, drain_cycles=800,
                      fastpass_slot_cycles=64)
CRASH_POINTS = grid([("escapevc", {}), ("fastpass", {"n_vcs": 2})],
                    ["uniform", "transpose"], [0.02, 0.05]) + \
    [Point.make_seeded("fastpass", "uniform", 0.03, seed=s, n_vcs=2)
     for s in (1, 2, 3, 4)]

_RETRY = RetryPolicy(max_attempts=12, backoff_s=0.05)


def _fields(res) -> tuple:
    d = dataclasses.asdict(res)
    return tuple(sorted((k, repr(v)) for k, v in d.items()))


def _free_port() -> int:
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


class TestChaosConvergence:
    def test_seeded_chaos_run_is_bit_identical_exactly_once(
            self, tmp_path):
        """The headline invariant: under a heavy seeded fault plan the
        fabric still produces the local executor's bytes, and the store
        shows every point settled exactly once."""
        plan = mild_chaos(7).scaled(2.0)
        store = CampaignStore(tmp_path / "campaign.sqlite")
        session = FabricSession(cache=None, retry=_RETRY,
                                lease_ttl_s=8.0, workers=2,
                                chaos_token=plan.token())
        try:
            ex = FabricExecutor(CHAOS_CFG, session, store=store)
            fabric = ex.run(CHAOS_POINTS)
            coord = session.coordinator
            counters = coord.queue.counters
            injected = coord._chaos_totals()
            summary = ex.summary
        finally:
            session.close()
            counts = store.counts()
            store.close()

        local = run_points(CHAOS_POINTS, CHAOS_CFG, processes=2,
                           cache=False, store=False)
        assert [_fields(r) for r in fabric] == \
            [_fields(r) for r in local]
        # The plan actually fired — this run earned its verdict.
        assert sum(injected.values()) > 0
        # Exactly once, verified against the store: all points done,
        # none lost, none stuck, none failed.
        assert counts.get("done", 0) == len(CHAOS_POINTS)
        assert counts.get("pending", 0) == 0
        assert counts.get("running", 0) == 0
        assert counts.get("failed", 0) == 0
        assert counters.failures == 0
        assert summary["computed"] == len(CHAOS_POINTS)
        assert summary["failed"] == 0


class TestCrashAdoption:
    def test_journaled_lease_survives_coordinator_restart(self,
                                                          tmp_path):
        """Coordinator A grants a lease and dies without cleanup; B
        adopts the journal and honours the old lease id when the
        surviving worker reports in."""
        salt = "s"
        points = CHAOS_POINTS[:3]
        keys = [cache_mod.point_key(p, CHAOS_CFG, salt) for p in points]
        store = CampaignStore(tmp_path / "campaign.sqlite")
        store.register(list(zip(keys, points)))
        retry = RetryPolicy(max_attempts=3, backoff_s=0.0)

        coord_a = Coordinator(cache=None, retry=retry, lease_ttl_s=30.0)
        url_a = coord_a.start("127.0.0.1", 0)
        coord_a.submit([[(k, p)] for k, p in zip(keys, points)],
                       CHAOS_CFG, store)
        out = http_json("POST", f"{url_a}/lease",
                        {"env": protocol.environment(),
                         "worker": "survivor"})
        assert out["state"] == protocol.STATE_OK
        lease = out["leases"][0]
        leased = [k for k, _ in protocol.items_from_json(lease["items"])]
        coord_a.stop()            # hard stop: no release_leases — crash

        rows = store.outstanding_leases()
        assert [r["lease_id"] for r in rows] == [lease["lease_id"]]

        coord_b = Coordinator(cache=None, retry=retry, lease_ttl_s=30.0)
        url_b = coord_b.start("127.0.0.1", 0)
        try:
            adopted = coord_b.adopt_leases(store, CHAOS_CFG)
            assert adopted == set(leased)
            # The worker finished the old lease against the *new*
            # coordinator: the adopted claim settles it as a
            # first-class completion, not a duplicate or unknown.
            by_key = dict(zip(keys, points))
            res = execute_point(by_key[leased[0]], CHAOS_CFG)
            out = http_json("POST", f"{url_b}/complete", {
                "lease_id": lease["lease_id"], "worker": "survivor",
                "ok": True,
                "results": [cache_mod.result_to_json(res)],
                "artifacts": []})
            assert out["disposition"] == "ok"
            # Points the dead coordinator never leased re-enter as
            # fresh work; the same worker drains them.
            remaining = [(k, p) for k, p in zip(keys, points)
                         if k not in adopted]
            coord_b.submit([[kp] for kp in remaining], CHAOS_CFG, store)
            deadline = time.monotonic() + 60
            while not coord_b.resolved(keys) and \
                    time.monotonic() < deadline:
                out = http_json("POST", f"{url_b}/lease",
                                {"env": protocol.environment(),
                                 "worker": "survivor"})
                for granted in out.get("leases") or []:
                    items = protocol.items_from_json(granted["items"])
                    results = [execute_point(p, CHAOS_CFG)
                               for _, p in items]
                    http_json("POST", f"{url_b}/complete", {
                        "lease_id": granted["lease_id"],
                        "worker": "survivor", "ok": True,
                        "results": [cache_mod.result_to_json(r)
                                    for r in results],
                        "artifacts": []})
            assert coord_b.resolved(keys), "campaign never drained"
            collected = coord_b.collect(keys)
            for key, point in zip(keys, points):
                assert _fields(collected[key]) == \
                    _fields(execute_point(point, CHAOS_CFG))
            assert coord_b.queue.counters.completed == len(points)
            assert coord_b.queue.counters.failures == 0
        finally:
            coord_b.stop()
        assert store.counts().get("done", 0) == len(points)
        # The last settlement emptied the journal: nothing left for a
        # third coordinator to adopt.
        assert store.outstanding_leases() == []


def _crash_campaign(store_path: str, cache_dir: str, port: int) -> None:
    """Child-process body for the SIGKILL differential: a whole fabric
    campaign (coordinator + loopback workers) pinned to a known port so
    the resuming parent binds the same address and orphaned workers
    reconnect to it."""
    # Own process group: the test SIGKILLs the whole campaign tree at
    # once (coordinator and workers), the way an OOM-kill or a node
    # loss would take it out.  Forked workers would otherwise inherit
    # the coordinator's listening socket and keep the port bound.
    os.setpgid(0, 0)
    os.environ["REPRO_FABRIC_PATIENCE_S"] = "8"
    store = CampaignStore(store_path)
    cache = RunCache(cache_dir, salt="s")
    session = FabricSession(cache=cache, retry=_RETRY, lease_ttl_s=8.0,
                            port=port, workers=2)
    try:
        FabricExecutor(CRASH_CFG, session, cache=cache,
                       store=store).run(CRASH_POINTS)
    finally:
        session.close()


class TestSigkillResume:
    def test_sigkilled_campaign_resumes_to_identical_bits(self,
                                                          tmp_path):
        """SIGKILL the entire campaign process mid-run — coordinator,
        journal unflushed leases and all — then resume on the same port
        with ``--resume`` semantics: journal adoption plus store/cache
        resume converge to the bits of a clean local run."""
        port = _free_port()
        store_path = tmp_path / "campaign.sqlite"
        cache_dir = tmp_path / "cache"
        store = CampaignStore(store_path)   # create schema before child
        proc = multiprocessing.Process(
            target=_crash_campaign,
            args=(str(store_path), str(cache_dir), port))
        proc.start()
        try:
            deadline = time.monotonic() + 120
            while time.monotonic() < deadline and \
                    store.counts().get("done", 0) < 1:
                time.sleep(0.05)
            assert store.counts().get("done", 0) >= 1, \
                "campaign never made progress"
            assert proc.is_alive(), "campaign finished before the kill"
        finally:
            if proc.pid:
                try:
                    os.killpg(proc.pid, signal.SIGKILL)
                except ProcessLookupError:
                    if proc.is_alive():
                        proc.kill()
            proc.join(timeout=10)
        killed_at = store.counts()
        assert killed_at.get("done", 0) < len(CRASH_POINTS), \
            "nothing left to resume"

        cache = RunCache(cache_dir, salt="s")
        # Reclaim the same port, 'fabric serve --resume' style.  The
        # orphaned workers hold an inherited copy of the dead listener
        # until their outage patience runs out, so retry the bind.
        session = None
        deadline = time.monotonic() + 45
        while session is None:
            try:
                session = FabricSession(cache=cache, retry=_RETRY,
                                        lease_ttl_s=4.0, port=port,
                                        workers=2, resume=True)
            except OSError:
                if time.monotonic() > deadline:
                    raise
                time.sleep(0.5)
        try:
            ex = FabricExecutor(CRASH_CFG, session, cache=cache,
                                store=store)
            resumed = ex.run(CRASH_POINTS)
            failures = session.coordinator.queue.counters.failures
        finally:
            session.close()

        assert failures == 0
        clean = run_points(CRASH_POINTS, CRASH_CFG, processes=2,
                           cache=False, store=False)
        assert [_fields(r) for r in resumed] == \
            [_fields(r) for r in clean]
        final = store.counts()
        assert final.get("done", 0) == len(CRASH_POINTS)
        assert final.get("pending", 0) == 0
        assert final.get("running", 0) == 0
        assert final.get("failed", 0) == 0
        assert store.outstanding_leases() == []

