"""Unit tests for the leased work queue — the fabric's protocol core.

Everything here drives :class:`~repro.campaign.queue.LeaseQueue` with an
explicit clock, pinning the invariants the distributed layer relies on:
at-least-once execution via lease expiry, bounded retries with backoff,
and idempotent (first-completion-wins) settlement.
"""

from __future__ import annotations

import pytest

from repro.campaign.executor import RetryPolicy
from repro.campaign import queue as q
from repro.sim.parallel import Point
from repro.sim.workload import Synthetic


def task(tid: str, n_points: int = 1) -> q.Task:
    items = [(f"{tid}k{i}",
              Point("fastpass", Synthetic("uniform", 0.01 * (i + 1))))
             for i in range(n_points)]
    return q.Task(tid=tid, items=items, cfg=None)


def make_queue(max_attempts: int = 3, backoff_s: float = 0.0,
               ttl: float = 10.0) -> q.LeaseQueue:
    return q.LeaseQueue(RetryPolicy(max_attempts=max_attempts,
                                    backoff_s=backoff_s), lease_ttl_s=ttl)


class TestLeasing:
    def test_lease_grants_up_to_max_tasks(self):
        lq = make_queue()
        for i in range(3):
            lq.add(task(f"t{i}"))
        leases = lq.lease("w1", now=0.0, max_tasks=2)
        assert [l.task.tid for l in leases] == ["t0", "t1"]
        assert all(l.worker == "w1" for l in leases)
        assert all(l.deadline == 10.0 for l in leases)
        assert lq.counts() == {"pending": 1, "leased": 2, "done": 0,
                               "failed": 0}

    def test_empty_queue_grants_nothing(self):
        assert make_queue().lease("w1", now=0.0) == []

    def test_lease_increments_attempt(self):
        lq = make_queue()
        lq.add(task("t0"))
        (lease,) = lq.lease("w1", now=0.0)
        assert lease.task.attempt == 1

    def test_live_keys_tracks_leased_points(self):
        lq = make_queue()
        lq.add(task("t0", n_points=2))
        lq.add(task("t1"))
        lq.lease("w1", now=0.0)
        assert lq.live_keys() == {"t0k0", "t0k1"}

    def test_duplicate_tid_rejected(self):
        lq = make_queue()
        lq.add(task("t0"))
        with pytest.raises(ValueError):
            lq.add(task("t0"))


class TestCompletion:
    def test_complete_settles_task(self):
        lq = make_queue()
        lq.add(task("t0"))
        (lease,) = lq.lease("w1", now=0.0)
        disposition, done = lq.complete(lease.lease_id, now=1.0)
        assert disposition == q.OK
        assert done.tid == "t0"
        assert lq.drained
        assert lq.counters.completed == 1

    def test_duplicate_completion_is_idempotent(self):
        lq = make_queue()
        lq.add(task("t0"))
        (lease,) = lq.lease("w1", now=0.0)
        lq.complete(lease.lease_id, now=1.0)
        disposition, done = lq.complete(lease.lease_id, now=2.0)
        assert disposition == q.DUPLICATE
        assert done is None
        assert lq.counters.duplicates == 1
        assert lq.counts()["done"] == 1      # still exactly one settlement

    def test_unknown_lease_is_rejected(self):
        lq = make_queue()
        assert lq.complete("L999", now=0.0) == (q.UNKNOWN, None)


class TestExpiry:
    def test_expired_lease_requeues_with_backoff(self):
        lq = make_queue(backoff_s=5.0, ttl=10.0)
        lq.add(task("t0"))
        lq.lease("w1", now=0.0)
        settled = lq.expire(now=10.0)
        assert [(d, t.tid) for d, t in settled] == [(q.REQUEUED, "t0")]
        assert lq.counters.expiries == 1
        # Still backing off: not leasable until eligible.
        assert lq.lease("w2", now=11.0) == []
        (lease,) = lq.lease("w2", now=16.0)
        assert lease.task.attempt == 2
        assert "expired" in lq.error_of("t0")

    def test_expiry_exhausts_retry_budget(self):
        lq = make_queue(max_attempts=2, ttl=1.0)
        lq.add(task("t0"))
        lq.lease("w1", now=0.0)
        lq.expire(now=1.0)                       # attempt 1 gone
        lq.lease("w1", now=2.0)
        settled = lq.expire(now=3.0)             # attempt 2 gone
        assert [(d, t.tid) for d, t in settled] == [(q.FAILED, "t0")]
        assert lq.counts()["failed"] == 1
        assert lq.drained

    def test_lease_sweeps_expired_leases_first(self):
        """A single surviving worker reclaims a crashed worker's task."""
        lq = make_queue(ttl=1.0)
        lq.add(task("t0"))
        lq.lease("dead-worker", now=0.0)
        (lease,) = lq.lease("survivor", now=5.0)
        assert lease.worker == "survivor"
        assert lease.task.tid == "t0"
        assert lease.task.attempt == 2

    def test_expire_worker_short_circuits_ttl(self):
        lq = make_queue(ttl=1000.0)
        lq.add(task("t0"))
        lq.lease("w1", now=0.0)
        settled = lq.expire_worker("w1", now=0.5)
        assert [(d, t.tid) for d, t in settled] == [(q.REQUEUED, "t0")]

    def test_expire_worker_reports_the_supervisors_reason(self):
        """A death the supervisor saw is worded as what it saw; a silent
        worker's TTL expiry keeps the 'expired' wording."""
        lq = make_queue(ttl=1.0)
        lq.add(task("t0"))
        lq.add(task("t1"))
        lq.lease("seen-dying", now=0.0)
        lq.lease("silent", now=0.0)
        lq.expire_worker("seen-dying", now=0.5,
                         reason="worker crashed (exitcode 3)")
        lq.expire(now=1.0)
        assert lq.error_of("t0") == "worker crashed (exitcode 3)"
        assert "to silent expired" in lq.error_of("t1")
        assert lq.counters.expiries == 2

    def test_late_completion_wins_before_reexecution(self):
        """Slow worker finishes after expiry but before the retry does:
        its (deterministic) result is accepted, the retry cancelled."""
        lq = make_queue(ttl=1.0)
        lq.add(task("t0"))
        (old,) = lq.lease("slow", now=0.0)
        lq.expire(now=1.0)                       # requeued
        disposition, done = lq.complete(old.lease_id, now=1.5)
        assert disposition == q.LATE
        assert done.tid == "t0"
        assert lq.counters.late == 1
        # The requeued copy must never be granted again.
        assert lq.lease("w2", now=2.0) == []
        assert lq.drained

    def test_late_completion_after_release_beats_new_lease(self):
        lq = make_queue(ttl=1.0)
        lq.add(task("t0"))
        (old,) = lq.lease("slow", now=0.0)
        (new,) = lq.lease("fast", now=2.0)       # expiry swept, re-leased
        assert new.lease_id != old.lease_id
        assert lq.complete(old.lease_id, now=2.5)[0] == q.LATE
        # The re-executing worker's eventual report is a duplicate.
        assert lq.complete(new.lease_id, now=3.0)[0] == q.DUPLICATE
        assert lq.counts()["done"] == 1
        # And its expiry must not resurrect the task.
        assert lq.expire(now=100.0) == []
        assert lq.drained


class TestRelease:
    def test_released_task_is_leasable_again_uncharged(self):
        """Graceful shutdown / interrupt: nobody failed, so the attempt
        is handed back with the lease and no backoff applies."""
        lq = make_queue(max_attempts=1, backoff_s=60.0)
        lq.add(task("t0", n_points=2))
        lq.add(task("t1"))
        (lease,) = lq.lease("w1", now=0.0)
        assert [t.tid for t in lq.release_all()] == ["t0"]
        assert lq.live_leases() == [] and lq.live_keys() == set()
        assert lq.counts() == {"pending": 2, "leased": 0, "done": 0,
                               "failed": 0}
        assert lq.counters.requeues == 0 and lq.counters.expiries == 0
        (again,) = lq.lease("w2", now=0.0)       # at once, ahead of t1
        assert again.task.tid == "t0"
        assert again.task.attempt == 1           # max_attempts=1 intact
        assert lq.complete(again.lease_id, now=1.0)[0] == q.OK
        # the released worker finishing anyway is a harmless duplicate
        assert lq.complete(lease.lease_id, now=2.0)[0] == q.DUPLICATE

    def test_release_skips_tasks_already_settled(self):
        lq = make_queue(ttl=1.0)
        lq.add(task("t0"))
        (old,) = lq.lease("slow", now=0.0)
        (new,) = lq.lease("fast", now=2.0)       # expiry swept, re-leased
        lq.complete(old.lease_id, now=2.5)       # late win settles t0
        assert lq.release_all() == []
        assert lq.drained and lq.live_leases() == []


class TestReportedFailure:
    def test_failure_requeues_until_budget_spent(self):
        lq = make_queue(max_attempts=2)
        lq.add(task("t0"))
        (l1,) = lq.lease("w1", now=0.0)
        assert lq.fail(l1.lease_id, "boom", now=1.0)[0] == q.REQUEUED
        (l2,) = lq.lease("w1", now=2.0)
        disposition, dead = lq.fail(l2.lease_id, "boom again", now=3.0)
        assert disposition == q.FAILED
        assert lq.error_of("t0") == "boom again"
        assert lq.counters.failures == 1

    def test_failure_after_settlement_is_duplicate(self):
        lq = make_queue(ttl=1.0)
        lq.add(task("t0"))
        (old,) = lq.lease("slow", now=0.0)
        (new,) = lq.lease("fast", now=2.0)
        lq.complete(new.lease_id, now=2.5)
        assert lq.fail(old.lease_id, "late crash", now=3.0)[0] \
            == q.DUPLICATE

    def test_repeated_failure_report_charges_once(self):
        """A retried POST of one failure settles its lease once: the
        second report is a duplicate, not a second charged attempt."""
        lq = make_queue(max_attempts=2)
        lq.add(task("t0"))
        (lease,) = lq.lease("w1", now=0.0)
        assert lq.fail(lease.lease_id, "boom", now=1.0)[0] == q.REQUEUED
        assert lq.fail(lease.lease_id, "boom", now=1.1)[0] == q.DUPLICATE
        assert lq.counters.requeues == 1
        (again,) = lq.lease("w1", now=2.0)
        assert again.task.attempt == 2


class TestCounts:
    def test_point_counts_weigh_replica_batches(self):
        lq = make_queue()
        lq.add(task("t0", n_points=4))
        lq.add(task("t1"))
        lq.lease("w1", now=0.0)
        assert lq.point_counts() == {"pending": 1, "leased": 4,
                                     "done": 0, "failed": 0}

    def test_next_eligible_reports_backoff_horizon(self):
        lq = make_queue(backoff_s=4.0, ttl=1.0)
        lq.add(task("t0"))
        lq.lease("w1", now=0.0)
        lq.expire(now=1.0)
        assert lq.next_eligible() == pytest.approx(5.0)


class TestAdoption:
    def test_adopted_lease_completes_under_original_id(self):
        lq = make_queue(ttl=10.0)
        lq.adopt(task("t0"), "L7", "w1", now=0.0)
        assert lq.counts() == {"pending": 0, "leased": 1, "done": 0,
                               "failed": 0}
        assert lq.complete("L7", now=1.0)[0] == q.OK
        assert lq.drained

    def test_adoption_bumps_the_id_counter(self):
        lq = make_queue()
        lq.adopt(task("t0"), "L7", "w1", now=0.0)
        lq.add(task("t1"))
        (lease,) = lq.lease("w2", now=0.0)
        assert lease.lease_id == "L8"            # never re-issue L7

    def test_adopted_lease_expires_like_any_other(self):
        lq = make_queue(ttl=1.0, backoff_s=0.0)
        adopted = task("t0")
        adopted.attempt = 1                      # journaled attempt count
        lq.adopt(adopted, "L3", "w1", now=0.0)
        settled = lq.expire(now=2.0)
        assert [(d, t.tid) for d, t in settled] == [(q.REQUEUED, "t0")]
        (lease,) = lq.lease("w2", now=3.0)
        assert lease.task.attempt == 2           # journal count honoured

    def test_duplicate_lease_id_rejected(self):
        lq = make_queue()
        lq.adopt(task("t0"), "L1", "w1", now=0.0)
        with pytest.raises(ValueError):
            lq.adopt(task("t1"), "L1", "w1", now=0.0)
