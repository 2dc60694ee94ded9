"""Unit tests for the campaign store and the fault-tolerant executor.

The fault-injection points are the tests-side
:class:`~tests.selftest_workload.SelfTest` kind: production code has no
branch for them.
"""

import os
import time

import pytest

from repro.campaign import RetryPolicy, RunCache
from repro.campaign.executor import (CampaignExecutor, default_workers,
                                     group_items)
from repro.campaign.lifecycle import Lifecycle
from repro.campaign.store import CampaignStore
from repro.experiments.table1 import stress_point
from repro.sim.parallel import Point
from repro.sim.workload import Synthetic
from tests.selftest_workload import SelfTest


class TestStore:
    def test_register_and_counts(self, tmp_path):
        store = CampaignStore(tmp_path / "c.sqlite")
        pts = [("k1", Point("a", Synthetic("uniform", 0.1))),
               ("k2", Point("b", Synthetic("uniform", 0.2)))]
        store.register(pts)
        store.register(pts)  # idempotent
        assert len(store) == 2
        assert store.counts()["pending"] == 2

    def test_mark_transitions(self, tmp_path):
        store = CampaignStore(tmp_path / "c.sqlite")
        store.register([("k1", Point("a", Synthetic("uniform", 0.1)))])
        store.mark("k1", "running")
        assert store.status_of("k1") == "running"
        store.mark("k1", "failed", error="boom", attempts=3)
        assert store.failures() == [("k1", "boom", 3)]
        with pytest.raises(ValueError):
            store.mark("k1", "exploded")

    def test_reset_running_requeues(self, tmp_path):
        store = CampaignStore(tmp_path / "c.sqlite")
        store.register([("k1", Point("a", Synthetic("uniform", 0.1))),
                        ("k2", Point("b", Synthetic("uniform", 0.2)))])
        store.mark("k1", "running")
        assert store.reset_running() == 1
        assert store.counts() == {"pending": 2, "running": 0, "done": 0,
                                  "failed": 0}

    def test_survives_reopen(self, tmp_path):
        path = tmp_path / "c.sqlite"
        store = CampaignStore(path)
        point = Point("a", Synthetic("uniform", 0.1), {"n_vcs": 2})
        store.register([("k1", point)])
        store.mark("k1", "done")
        store.close()
        again = CampaignStore(path)
        assert again.status_of("k1") == "done"
        assert again.points_with_status("done") == [("k1", point)]


#: Declared outcome per transport for the two faults they do not word
#: alike.  A worker that dies mid-task: in-process there is no worker to
#: lose (the crash would take the caller with it), so that cell is
#: declared unsupported; a pipe child and a supervised loopback puller
#: are both *seen* dying.  A task that outlives its deadline: a pipe
#: child is terminated at ``retry.timeout_s`` — with one job too, which
#: then means a pool of one — while a puller's lease expires at its TTL.
CRASH_ERROR = {"inline": None,
               "pool": "worker crashed (exitcode 3)",
               "loopback": "worker crashed (exitcode 3)"}
DEADLINE_ERROR = {"inline": "timeout after 0.3s",
                  "pool": "timeout after 0.3s",
                  "loopback": "expired"}


class TestExecutorFaults:
    """One task lifecycle: every behaviour below is asserted on every
    transport (``make_executor`` is parametrised over ``TRANSPORTS``)."""

    def test_crash_isolated_from_campaign(self, small_cfg,
                                          tmp_path, make_executor):
        expected = CRASH_ERROR[make_executor.transport]
        if expected is None:
            pytest.skip("declared unsupported: no crash isolation "
                        "in-process")
        store = CampaignStore(tmp_path / "c.sqlite")
        pts = [Point("x", SelfTest("crash", 0.0)),
               Point("x", SelfTest("ok", 1.0)),
               Point("x", SelfTest("ok", 2.0))]
        ex = make_executor(small_cfg, store=store,
                           retry=RetryPolicy(max_attempts=2,
                                             backoff_s=0.01))
        results = ex.run(pts)
        assert results[0].extra.get("failed")
        assert expected in results[0].extra["error"]
        assert results[1].ejected == 1 and results[2].ejected == 1
        assert ex.summary["failed"] == 1 and ex.summary["computed"] == 2
        assert store.counts() == {"pending": 0, "running": 0, "done": 2,
                                  "failed": 1}
        if make_executor.transport == "loopback":
            assert ex.summary["fabric"]["respawns"] >= 1

    def test_failure_marks_store_without_killing_run(
            self, small_cfg, tmp_path, make_executor):
        store = CampaignStore(tmp_path / "c.sqlite")
        pts = [Point("x", SelfTest("fail", 0.0)),
               Point("x", SelfTest("ok", 1.0))]
        ex = make_executor(small_cfg, store=store,
                           retry=RetryPolicy(max_attempts=2,
                                             backoff_s=0.01))
        results = ex.run(pts)
        assert results[0].extra.get("failed")
        assert ex.summary["failed"] == 1 and ex.summary["computed"] == 1
        assert store.counts() == {"pending": 0, "running": 0, "done": 1,
                                  "failed": 1}
        (_key, error, attempts) = store.failures()[0]
        assert "deliberate failure" in error and attempts == 2

    def test_timeout_terminates_point(self, small_cfg,
                                      make_executor):
        """The ``[inline]`` cell is the ``--jobs 1`` regression: a
        timeout used to be dropped silently at ``processes=1`` and the
        point slept its full 2 s."""
        pts = [Point("x", SelfTest("sleep", 2.0))]
        ex = make_executor(small_cfg,
                           retry=RetryPolicy(max_attempts=1,
                                             timeout_s=0.3))
        t0 = time.monotonic()
        results = ex.run(pts)
        assert time.monotonic() - t0 < 1.5
        assert results[0].extra.get("failed")
        assert DEADLINE_ERROR[make_executor.transport] in \
            results[0].extra["error"]
        assert ex.summary["failed"] == 1 and ex.summary["computed"] == 0

    def test_retry_recovers_flaky_point(self, small_cfg,
                                        tmp_path, make_executor):
        flaky = Point("x", SelfTest("flaky", 0.5, str(tmp_path)))
        ex = make_executor(small_cfg,
                           retry=RetryPolicy(max_attempts=3,
                                             backoff_s=0.01))
        results = ex.run([flaky])
        assert not results[0].extra.get("failed")
        assert results[0].avg_latency == 2.0
        assert ex.summary["failed"] == 0 and ex.summary["computed"] == 1

    def test_failed_points_are_not_cached(self, small_cfg,
                                          tmp_path, make_executor):
        cache = RunCache(tmp_path / "cache", salt="s")
        pts = [Point("x", SelfTest("fail", 0.0))]
        ex = make_executor(small_cfg, cache=cache,
                           retry=RetryPolicy(max_attempts=1,
                                             backoff_s=0.01))
        assert ex.run(pts)[0].extra.get("failed")
        assert len(cache) == 0

    def test_duplicate_points_computed_once(self, small_cfg,
                                            make_executor):
        point = Point("x", SelfTest("ok", 1.0))
        ex = make_executor(small_cfg)
        results = ex.run([point, point, point])
        assert len(results) == 3
        assert ex.summary["total"] == 1 and ex.summary["computed"] == 1

    def test_progress_reports_completion(self, small_cfg,
                                         make_executor):
        events = []
        pts = [Point("x", SelfTest("ok", float(i))) for i in range(3)]
        make_executor(small_cfg, progress=events.append).run(pts)
        assert events[-1].finished == 3
        assert events[-1].total == 3
        assert events[-1].eta_s == 0.0
        # running counts points out on a lease, on every transport
        assert all(0 <= e.running <= 3 - e.finished for e in events)
        assert events[-1].running == 0


class TestDriverWait:
    """What bounds a driver's wait on its transport's signal."""

    def _two_tasks(self, **kwargs) -> Lifecycle:
        life = Lifecycle(retry=RetryPolicy(backoff_s=0.02), **kwargs)
        life.submit([[("k0", Point("x", SelfTest("ok", 0.0)))],
                     [("k1", Point("x", SelfTest("ok", 1.0)))]], None)
        return life

    def test_running_backoff_bounds_the_wait_an_ended_one_does_not(self):
        """A retry whose backoff is over but that no worker has capacity
        for must not turn the wait into a zero-timeout spin: capacity
        is the transport's to signal."""
        life = self._two_tasks(lease_ttl_s=float("inf"))
        assert life.next_wake() is None          # all fresh: lease now
        (first,) = life.lease("w")
        life.fail(first.lease_id, "w", "boom")   # k0 backs off 20 ms
        life.lease("w")                          # k1 out: the worker is busy
        assert 0 < life.next_wake() <= 0.02
        time.sleep(0.03)
        assert life.next_wake() is None

    def test_lease_deadline_bounds_the_wait(self):
        life = self._two_tasks(lease_ttl_s=5.0)
        life.lease("silent")
        assert 4.0 < life.next_wake() <= 5.0


class TestReplicaBatching:
    """Seed-only-differing points share tasks with unchanged per-point
    cache keys and bit-identical results."""

    def _seeded(self, rates=(0.02,), seeds=(1, 2, 3)):
        return [Point.make_seeded("escapevc", "uniform", r, seed=s)
                for r in rates for s in seeds]

    def test_grouped_by_signature(self):
        pending = [(f"k{i}", p)
                   for i, p in enumerate(self._seeded(rates=(0.02, 0.05)))]
        tasks = group_items(pending)
        assert sorted(len(items) for items in tasks) == [3, 3]
        assert sorted(kp for items in tasks for kp in items) == \
            sorted(pending)

    def test_batch_cap_chunks_large_groups(self, monkeypatch):
        import repro.campaign.executor as executor
        monkeypatch.setattr(executor, "BATCH_CAP", 4)
        pending = [(f"k{i}", p)
                   for i, p in enumerate(self._seeded(seeds=range(6)))]
        assert sorted(len(items)
                      for items in group_items(pending)) == [2, 4]

    def test_groups_are_cut_one_piece_per_worker(self, monkeypatch):
        """``workers`` cuts a seed group so one series feeds every
        worker — pieces of ``ceil(R / workers)``, never singletons for
        their own sake, never above ``BATCH_CAP``; without it (and with
        ``workers=1``, i.e. ``--jobs 1``) a group is one task."""
        import repro.campaign.executor as executor
        pending = [(f"k{i}", p)
                   for i, p in enumerate(self._seeded(seeds=range(4)))]

        def sizes(*args):
            tasks = group_items(pending, *args)
            assert [kp for items in tasks for kp in items] == pending
            return [len(items) for items in tasks]

        assert sizes() == sizes(1) == [4]
        assert sizes(2) == [2, 2]
        assert sizes(3) == [2, 2]
        assert sizes(8) == [1, 1, 1, 1]
        monkeypatch.setattr(executor, "BATCH_CAP", 1)
        assert sizes(2) == [1, 1, 1, 1]

    def test_benchmark_call_shape_is_one_worker(self):
        """``benchmarks/e2e/workloads.py`` calls ``group_items(pending,
        True)``; ``True`` lands on ``workers`` as 1."""
        pending = [(f"k{i}", p)
                   for i, p in enumerate(self._seeded(seeds=range(4)))]
        assert group_items(pending, True) == group_items(pending)

    def test_non_replicable_points_stay_singletons(self):
        pts = [Point.make_app("escapevc", "pagerank", txns=5, seed=1),
               stress_point("escapevc", {})]
        tasks = group_items([(f"k{i}", p) for i, p in enumerate(pts)])
        assert [len(items) for items in tasks] == [1, 1]

    def test_results_match_scalar_and_are_cached_per_point(
            self, small_cfg, tmp_cache_dir):
        from repro.campaign.worker import execute_point
        points = self._seeded()
        cache = RunCache(tmp_cache_dir)
        ex = CampaignExecutor(small_cfg, cache=cache, processes=1)
        got = ex.run(points)
        assert ex.summary["batched"] == 3
        assert ex.summary["computed"] == 3
        for point, res in zip(points, got):
            ref = execute_point(point, small_cfg)
            assert res.avg_latency == ref.avg_latency
            assert res.ejected == ref.ejected
        again = CampaignExecutor(small_cfg, cache=cache, processes=1)
        rerun = again.run(points)
        assert again.summary["cached"] == 3
        assert [r.ejected for r in rerun] == [r.ejected for r in got]

    def test_pool_size_respects_affinity(self, monkeypatch):
        """The fork pool never launches more workers than the affinity
        mask allows, even when more tasks (or a larger --jobs) ask."""
        from repro.campaign import executor
        from repro.campaign.executor import _pool_size
        monkeypatch.setattr(executor, "default_workers", lambda: 2)
        assert _pool_size(8, 10) == 2       # affinity caps the request
        assert _pool_size(None, 10) == 2    # and the one-per-task default
        assert _pool_size(None, 1) == 1     # never more than tasks
        assert _pool_size(1, 10) == 1       # explicit request honoured
        monkeypatch.setattr(executor, "default_workers", lambda: 64)
        assert _pool_size(None, 3) == 3


class TestOpenRunPool:
    def test_open_run_is_sized_for_the_machine_not_the_first_frontier(
            self, small_cfg, monkeypatch):
        """A run still open to further frontiers gets the whole pool
        even if its first frontier is one task (which used to pick the
        in-process transport and serialise the figure); a closed run of
        one task still runs in-process."""
        from repro.campaign import executor
        monkeypatch.setattr(executor, "default_workers", lambda: 3)
        ex = CampaignExecutor(small_cfg)
        assert ex.workers() == 3
        _life, transport = ex._connect(None)
        assert isinstance(transport, executor.ForkPool)
        assert transport.procs == 3
        _life, transport = ex._connect(1)
        assert isinstance(transport, executor.Inline)
        one = CampaignExecutor(small_cfg, processes=1)
        assert one.workers() == 1
        assert isinstance(one._connect(None)[1], executor.Inline)


class TestDefaultWorkers:
    def test_respects_affinity_mask(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity",
                            lambda pid: {0, 1, 2}, raising=False)
        assert default_workers() == 3

    def test_falls_back_to_cpu_count(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 5)
        assert default_workers() == 5

    def test_never_below_one(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert default_workers() == 1
