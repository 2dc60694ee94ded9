"""The leased work queue: what happens to a task from pending to
done|failed, for every transport (in-process, forked child, HTTP puller).

Pure bookkeeping — no I/O, no clocks (every method takes ``now``), no
threads — so the lease protocol is unit-testable in microseconds and
:class:`~repro.campaign.lifecycle.Lifecycle` stays a thin settlement
shell around it.

Protocol invariants (the ones the tests pin):

* **One grant at a time.**  A task is leasable only while it is
  ``pending``; a grant makes it ``leased`` until that lease completes,
  fails, expires or is released.  Queue entries left behind by a
  re-queue are skipped once the task is no longer ``pending``.
* **At-least-once execution.**  A lease that is not completed by its
  deadline is *expired*: the attempt is charged against the task's
  :class:`RetryPolicy` budget and the task is re-queued after the
  policy's backoff — or permanently failed once the budget is spent.  A
  crashed or partitioned worker therefore delays a task, never loses it.
* **Idempotent completion.**  The first completion of a task wins;
  every later completion (a duplicate POST, or a slow worker finishing
  after its lease expired and the task was re-leased) is acknowledged
  and discarded.  Because every execution of a point is deterministic
  and bit-identical, *which* completion wins is unobservable — that is
  what makes duplicate/late workers harmless rather than merely
  tolerated.  A lease settles once: a repeated failure report for the
  same lease does not charge a second attempt.
* **Late completions still count.**  A worker that finishes after its
  lease expired — but before any re-execution finished — delivers a
  perfectly good (deterministic) result; it is accepted and the
  re-queued/re-leased copy of the task is cancelled.  Only results for
  tasks already completed, or from lease ids the queue never issued,
  are dropped.

Crash recovery rides on the same bookkeeping: :meth:`adopt` re-creates
a lease (under its original id) from a journal row, so a restarted
coordinator keeps honouring completions for leases granted before the
crash.
"""

from __future__ import annotations

import re
from collections import deque
from dataclasses import dataclass


@dataclass(frozen=True)
class RetryPolicy:
    max_attempts: int = 3
    backoff_s: float = 0.25
    timeout_s: float | None = None

    def delay(self, attempt: int) -> float:
        return self.backoff_s * (2 ** (attempt - 1))

#: dispositions returned to completing workers
OK = "ok"                # first completion: results accepted
LATE = "late"            # lease had expired, but the results still won
DUPLICATE = "duplicate"  # task already done; results discarded
REQUEUED = "requeued"    # reported failure; task will be retried
FAILED = "failed"        # reported failure; retry budget exhausted
UNKNOWN = "unknown"      # lease id never issued; results dropped


@dataclass
class Task:
    """One unit of worker execution: a single point or a group of seed
    replicas, plus the config they run under and the campaign store the
    task reports to (never serialized)."""

    tid: str                         # stable id: the first point key
    items: list                      # [(key, Point), ...]
    cfg: object                      # the SimConfig the points run under
    store: object = None             # CampaignStore, or None
    attempt: int = 0
    eligible: float = 0.0            # earliest re-lease time (backoff)

    @property
    def keys(self) -> list[str]:
        return [key for key, _ in self.items]

    @property
    def points(self) -> list:
        return [point for _, point in self.items]


@dataclass
class Lease:
    lease_id: str
    worker: str
    task: Task
    granted: float
    deadline: float


@dataclass
class QueueCounters:
    granted: int = 0
    completed: int = 0
    late: int = 0
    duplicates: int = 0
    expiries: int = 0
    requeues: int = 0
    failures: int = 0

    def to_json(self) -> dict:
        return dict(self.__dict__)


class LeaseQueue:
    """Task lifecycle: ``pending -> leased -> done | failed`` with
    expiry-driven re-queueing in between."""

    def __init__(self, retry: RetryPolicy | None = None,
                 lease_ttl_s: float = 60.0):
        self.retry = retry or RetryPolicy()
        self.lease_ttl_s = lease_ttl_s
        self.counters = QueueCounters()
        self._pending: deque[Task] = deque()
        self._tasks: dict[str, Task] = {}        # tid -> task (all ever)
        self._state: dict[str, str] = {}         # tid -> pending|leased|
        #                                          done|failed
        self._leases: dict[str, Lease] = {}      # live leases
        self._lease_tid: dict[str, str] = {}     # every lease ever issued
        self._settled: set[str] = set()          # leases completed/failed
        self._failures: dict[str, str] = {}      # tid -> last error
        self._next_id = 1

    # -- feeding --------------------------------------------------------
    def add(self, task: Task) -> None:
        self._register(task)
        self._pending.append(task)

    def _register(self, task: Task) -> None:
        if task.tid in self._tasks:
            raise ValueError(f"task {task.tid!r} already queued")
        self._tasks[task.tid] = task
        self._state[task.tid] = "pending"

    # -- leasing --------------------------------------------------------
    def lease(self, worker: str, now: float,
              max_tasks: int = 1) -> list[Lease]:
        """Grant up to ``max_tasks`` leases to ``worker``; expired leases
        are swept first so a single surviving worker can reclaim the
        whole queue."""
        self.expire(now)
        out: list[Lease] = []
        skipped: list[Task] = []
        while self._pending and len(out) < max_tasks:
            task = self._pending.popleft()
            if self._state[task.tid] != "pending":
                continue                      # settled, or granted already
            if task.eligible > now:
                skipped.append(task)          # still backing off
                continue
            task.attempt += 1
            out.append(self._grant(task, f"L{self._next_id}", worker, now))
            self._next_id += 1
        self._pending.extendleft(reversed(skipped))
        return out

    def _grant(self, task: Task, lease_id: str, worker: str,
               now: float) -> Lease:
        lease = Lease(lease_id, worker, task, now, now + self.lease_ttl_s)
        self._leases[lease_id] = lease
        self._lease_tid[lease_id] = task.tid
        self._state[task.tid] = "leased"
        self.counters.granted += 1
        return lease

    def adopt(self, task: Task, lease_id: str, worker: str,
              now: float) -> Lease:
        """Re-create a lease from a journal row after a coordinator
        restart, preserving its original id so the worker's eventual
        completion still lands.  The adopted lease gets a fresh TTL —
        the clock restarted with the coordinator."""
        if lease_id in self._lease_tid:
            raise ValueError(f"lease {lease_id!r} already known")
        self._register(task)
        lease = self._grant(task, lease_id, worker, now)
        m = re.match(r"L(\d+)$", lease_id)
        if m:                 # never re-issue an adopted id
            self._next_id = max(self._next_id, int(m.group(1)) + 1)
        return lease

    # -- completion -----------------------------------------------------
    def complete(self, lease_id: str, now: float) -> tuple[str, Task | None]:
        """A worker reports success for ``lease_id``.

        Returns ``(disposition, task)``; the caller persists the results
        only for ``OK``/``LATE`` dispositions.
        """
        tid = self._lease_tid.get(lease_id)
        if tid is None:
            return UNKNOWN, None
        if self._state[tid] in ("done", "failed") \
                or lease_id in self._settled:
            self.counters.duplicates += 1
            return DUPLICATE, None
        self._settled.add(lease_id)
        self._state[tid] = "done"
        if self._leases.pop(lease_id, None) is None:
            # The lease expired (or was released) before this completion
            # arrived; the re-queued copy is now cancelled — the
            # execution it was meant to replace did, in fact, finish.
            self.counters.late += 1
            return LATE, self._tasks[tid]
        self.counters.completed += 1
        return OK, self._tasks[tid]

    def fail(self, lease_id: str, error: str,
             now: float) -> tuple[str, Task | None]:
        """A worker reports a (caught) execution failure."""
        tid = self._lease_tid.get(lease_id)
        if tid is None:
            return UNKNOWN, None
        task = self._tasks[tid]
        if self._state[tid] in ("done", "failed") \
                or lease_id in self._settled:
            self.counters.duplicates += 1
            return DUPLICATE, None
        self._settled.add(lease_id)
        self._leases.pop(lease_id, None)
        self._failures[tid] = error
        return self._retry_or_fail(task, now)

    def _retry_or_fail(self, task: Task, now: float) -> tuple[str, Task]:
        if task.attempt >= self.retry.max_attempts:
            self._state[task.tid] = "failed"
            self.counters.failures += 1
            return FAILED, task
        task.eligible = now + self.retry.delay(task.attempt)
        self._state[task.tid] = "pending"
        self._pending.append(task)
        self.counters.requeues += 1
        return REQUEUED, task

    # -- expiry ---------------------------------------------------------
    def expire(self, now: float) -> list[tuple[str, Task]]:
        """Sweep overdue leases; each costs the task one attempt."""
        return self._expire([l for l in self._leases.values()
                             if l.deadline <= now], now)

    def expire_worker(self, worker: str, now: float,
                      reason: str | None = None) -> list[tuple[str, Task]]:
        """Force-expire every live lease held by ``worker`` — used when a
        supervisor *knows* the worker process died, so its tasks requeue
        immediately instead of waiting out the lease TTL.  ``reason`` is
        what the supervisor saw; it replaces the "expired" wording a
        silent worker's TTL expiry gets."""
        return self._expire([l for l in self._leases.values()
                             if l.worker == worker], now, reason)

    def _expire(self, leases: list[Lease], now: float,
                reason: str | None = None) -> list[tuple[str, Task]]:
        out = []
        for lease in leases:
            del self._leases[lease.lease_id]
            self.counters.expiries += 1
            task = lease.task
            if self._state[task.tid] in ("done", "failed"):
                continue                      # already done via late win
            self._failures[task.tid] = reason or (
                f"lease {lease.lease_id} to {lease.worker} expired")
            out.append(self._retry_or_fail(task, now))
        return out

    def release_all(self) -> list[Task]:
        """Hand every live lease back un-charged (graceful shutdown or an
        interrupt: nobody failed): the task is leasable again at once and
        its attempt count is what it was before the grant.  A worker
        still finishing a released lease lands as a late completion."""
        out = []
        for lease in list(self._leases.values()):
            del self._leases[lease.lease_id]
            task = lease.task
            if self._state[task.tid] in ("done", "failed"):
                continue
            task.attempt -= 1
            self._state[task.tid] = "pending"
            self._pending.appendleft(task)
            out.append(task)
        return out

    # -- introspection --------------------------------------------------
    def task_of(self, lease_id: str) -> Task | None:
        """The task a lease id refers to (None if never issued) — lets
        the lifecycle validate a completion payload *before* settling
        the task."""
        tid = self._lease_tid.get(lease_id)
        return self._tasks[tid] if tid is not None else None

    def error_of(self, tid: str) -> str:
        return self._failures.get(tid, "")

    def live_leases(self) -> list[Lease]:
        """Snapshot of live leases — the unit the coordinator journals."""
        return list(self._leases.values())

    def next_deadline(self) -> float | None:
        """Earliest deadline among live leases (None if none is out)."""
        return min((l.deadline for l in self._leases.values()),
                   default=None)

    def counts(self) -> dict[str, int]:
        by = {"pending": 0, "leased": 0, "done": 0, "failed": 0}
        for state in self._state.values():
            by[state] += 1
        return by

    def point_counts(self) -> dict[str, int]:
        """Like :meth:`counts`, but in points (a replica-batch task of R
        seeds is R points) — the unit campaign progress is measured in."""
        by = {"pending": 0, "leased": 0, "done": 0, "failed": 0}
        for tid, state in self._state.items():
            by[state] += len(self._tasks[tid].items)
        return by

    def next_eligible(self) -> float | None:
        """Earliest backoff deadline among pending tasks (None if any
        task is immediately leasable or the queue is empty)."""
        times = [t.eligible for t in self._pending
                 if self._state[t.tid] == "pending"]
        if not times:
            return None
        soonest = min(times)
        return soonest if soonest > 0 else None

    @property
    def drained(self) -> bool:
        return all(s in ("done", "failed") for s in self._state.values())

    def live_keys(self) -> set[str]:
        """Point keys currently out on a live lease."""
        return {key for lease in self._leases.values()
                for key in lease.task.keys}

    def __contains__(self, tid: str) -> bool:
        return tid in self._tasks
