"""The leased work queue: what happens to a task from pending to
done|failed, for every transport (in-process, forked child, HTTP puller).

Pure bookkeeping — no I/O, no clocks (every method takes ``now``), no
threads — so the lease protocol is unit-testable in microseconds and
:class:`~repro.campaign.lifecycle.Lifecycle` stays a thin settlement
shell around it.

Protocol invariants (the ones the tests pin):

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
  tolerated.
* **Late completions still count.**  A worker that finishes after its
  lease expired — but before any re-execution finished — delivers a
  perfectly good (deterministic) result; it is accepted and the
  re-queued/re-leased copy of the task is cancelled.  Only results for
  tasks already completed, or from lease ids the queue never issued,
  are dropped.
* **Redundant execution (opt-in).**  A task with ``redundancy = R > 1``
  is leased to R distinct workers; each completion lands as ``PARTIAL``
  until the last one arrives as ``VERIFY``, at which point the
  *lifecycle* cross-checks the candidate payloads and either
  :meth:`settle`\\ s the task or :meth:`reopen`\\ s it for a tie-break
  replay.  The queue never inspects result bytes — it only counts
  grants (``slots``) and completions (``done``) against the running
  need.

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
PARTIAL = "partial"      # redundant task: accepted, siblings outstanding
VERIFY = "verify"        # redundant task: last completion — cross-check


@dataclass
class Task:
    """One unit of worker execution: a single point or a group of seed
    replicas, plus the config they run under and the campaign store the
    task reports to (never serialized).  ``redundancy`` is how many
    independent workers must execute the task before it can settle."""

    tid: str                         # stable id: the first point key
    items: list                      # [(key, Point), ...]
    cfg: object                      # the SimConfig the points run under
    store: object = None             # CampaignStore, or None
    attempt: int = 0
    eligible: float = 0.0            # earliest re-lease time (backoff)
    redundancy: int = 1

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
    partials: int = 0   # redundant completions still awaiting siblings
    reopens: int = 0    # tie-break replays after a redundancy mismatch

    def to_json(self) -> dict:
        return dict(self.__dict__)


class LeaseQueue:
    """Task lifecycle: ``pending -> leased -> done | failed`` with
    expiry-driven re-queueing in between.

    Redundant tasks generalize the single-lease picture with three
    per-task counters: ``slots`` (grants still wanted — each pending
    queue entry is backed by one), ``done`` (completions accepted so
    far) and ``need`` (completions required to settle: the task's
    redundancy, plus one per tie-break reopen).
    """

    def __init__(self, retry: RetryPolicy | None = None,
                 lease_ttl_s: float = 60.0):
        self.retry = retry or RetryPolicy()
        self.lease_ttl_s = lease_ttl_s
        self.counters = QueueCounters()
        self._pending: deque[Task] = deque()
        self._tasks: dict[str, Task] = {}        # tid -> task (all ever)
        self._state: dict[str, str] = {}         # tid -> pending|leased|
        #                                          done|failed
        self._slots: dict[str, int] = {}         # grants still wanted
        self._done: dict[str, int] = {}          # completions accepted
        self._need: dict[str, int] = {}          # completions required
        self._leases: dict[str, Lease] = {}      # live leases
        self._lease_tid: dict[str, str] = {}     # every lease ever issued
        self._settled: set[str] = set()          # leases completed/failed
        self._failures: dict[str, str] = {}      # tid -> last error
        self._next_id = 1

    # -- feeding --------------------------------------------------------
    def add(self, task: Task) -> None:
        if task.tid in self._tasks:
            raise ValueError(f"task {task.tid!r} already queued")
        if task.redundancy < 1:
            raise ValueError(f"task {task.tid!r} redundancy must be >= 1")
        self._register(task)
        for _ in range(task.redundancy):
            self._pending.append(task)

    def _register(self, task: Task) -> None:
        self._tasks[task.tid] = task
        self._state[task.tid] = "pending"
        self._slots[task.tid] = task.redundancy
        self._done[task.tid] = 0
        self._need[task.tid] = task.redundancy

    def budget(self, task: Task) -> int:
        """Total grants a task may consume before it permanently fails.
        Redundancy widens the budget by R - 1 so the extra planned
        executions are not charged as retries."""
        return self.retry.max_attempts + task.redundancy - 1

    # -- leasing --------------------------------------------------------
    def lease(self, worker: str, now: float, max_tasks: int = 1,
              allow_self: bool = True) -> list[Lease]:
        """Grant up to ``max_tasks`` leases to ``worker``; expired leases
        are swept first so a single surviving worker can reclaim the
        whole queue.

        ``allow_self=False`` withholds a redundant task's sibling grant
        from a worker that already holds a live lease on it — two copies
        on one worker would verify nothing.  The lifecycle only passes
        False while other workers are around to take the sibling.
        """
        self.expire(now)
        out: list[Lease] = []
        skipped: list[Task] = []
        while self._pending and len(out) < max_tasks:
            task = self._pending.popleft()
            if self._state.get(task.tid) in ("done", "failed"):
                continue                      # cancelled by a late win
            if self._slots.get(task.tid, 0) <= 0:
                continue                      # grant no longer wanted
            if task.eligible > now:
                skipped.append(task)          # still backing off
                continue
            if (task.redundancy > 1 and not allow_self
                    and self._worker_holds(worker, task.tid)):
                skipped.append(task)          # sibling must go elsewhere
                continue
            self._slots[task.tid] -= 1
            task.attempt += 1
            lease = Lease(f"L{self._next_id}", worker, task, now,
                          now + self.lease_ttl_s)
            self._next_id += 1
            self._leases[lease.lease_id] = lease
            self._lease_tid[lease.lease_id] = task.tid
            self._state[task.tid] = "leased"
            self.counters.granted += 1
            out.append(lease)
        self._pending.extendleft(reversed(skipped))
        return out

    def _worker_holds(self, worker: str, tid: str) -> bool:
        return any(l.worker == worker and l.task.tid == tid
                   for l in self._leases.values())

    def adopt(self, task: Task, lease_id: str, worker: str,
              now: float) -> Lease:
        """Re-create a lease from a journal row after a coordinator
        restart, preserving its original id so the worker's eventual
        completion still lands.  The adopted lease gets a fresh TTL —
        the clock restarted with the coordinator."""
        if lease_id in self._lease_tid:
            raise ValueError(f"lease {lease_id!r} already known")
        if task.tid not in self._tasks:
            self._register(task)
            # pending entries back the slots this lease does not consume
            for _ in range(task.redundancy - 1):
                self._pending.append(task)
        task = self._tasks[task.tid]
        if self._slots[task.tid] > 0:
            self._slots[task.tid] -= 1
        lease = Lease(lease_id, worker, task, now, now + self.lease_ttl_s)
        self._leases[lease_id] = lease
        self._lease_tid[lease_id] = task.tid
        self._state[task.tid] = "leased"
        self.counters.granted += 1
        m = re.match(r"L(\d+)$", lease_id)
        if m:                 # never re-issue an adopted id
            self._next_id = max(self._next_id, int(m.group(1)) + 1)
        return lease

    # -- completion -----------------------------------------------------
    def complete(self, lease_id: str, now: float) -> tuple[str, Task | None]:
        """A worker reports success for ``lease_id``.

        Returns ``(disposition, task)``; the caller persists the results
        only for ``OK``/``LATE`` dispositions, collects candidates on
        ``PARTIAL`` and cross-checks on ``VERIFY``.
        """
        tid = self._lease_tid.get(lease_id)
        if tid is None:
            return UNKNOWN, None
        task = self._tasks[tid]
        state = self._state[tid]
        if state in ("done", "failed") or lease_id in self._settled:
            # Either the task is closed, or this exact lease already
            # reported in (a retried POST after a lost response) — with
            # redundancy in play the per-lease check matters: the task
            # may still be open on a sibling, and a double-counted
            # completion would trip verification early.
            self.counters.duplicates += 1
            return DUPLICATE, None
        self._settled.add(lease_id)
        live = self._leases.pop(lease_id, None)
        if live is None:
            # The lease expired before this completion arrived; its
            # expiry already re-added a slot (and a pending entry).
            # Consume that slot — the execution it was meant to replace
            # did, in fact, finish.
            self.counters.late += 1
            if self._slots[tid] > 0:
                self._slots[tid] -= 1
        if self._need[tid] == 1:
            self._state[tid] = "done"
            self._slots[tid] = 0
            if live is None:
                return LATE, task
            self.counters.completed += 1
            return OK, task
        self._done[tid] += 1
        if self._done[tid] < self._need[tid]:
            self.counters.partials += 1
            self._refresh_state(tid)
            return PARTIAL, task
        # Last required completion: the caller must cross-check the
        # candidates and either settle() or reopen().  Until then the
        # task is neither done nor leasable.
        self._slots[tid] = 0
        self._refresh_state(tid)
        return VERIFY, task

    def settle(self, tid: str) -> None:
        """Close a redundant task whose candidates agreed (or whose
        majority won): results are persisted by the caller."""
        self._state[tid] = "done"
        self._slots[tid] = 0
        self.counters.completed += 1

    def reopen(self, tid: str, now: float) -> tuple[str, Task]:
        """Candidates disagreed with no majority: demand one more
        completion as a tie-break — or fail the task when the widened
        budget is spent."""
        task = self._tasks[tid]
        self._need[tid] += 1
        if task.attempt >= self.budget(task):
            self._state[tid] = "failed"
            self._slots[tid] = 0
            self.counters.failures += 1
            return FAILED, task
        task.eligible = now
        self._slots[tid] += 1
        self._pending.append(task)
        self.counters.reopens += 1
        self._refresh_state(tid)
        return REQUEUED, task

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
        if task.attempt >= self.budget(task):
            self._state[task.tid] = "failed"
            self._slots[task.tid] = 0
            self.counters.failures += 1
            return FAILED, task
        task.eligible = now + self.retry.delay(task.attempt)
        self._slots[task.tid] += 1
        self._pending.append(task)
        self.counters.requeues += 1
        self._refresh_state(task.tid)
        return REQUEUED, task

    def _refresh_state(self, tid: str) -> None:
        """Non-terminal state mirrors the live leases: ``leased`` while
        any grant is out, ``pending`` otherwise."""
        if self._state.get(tid) in ("done", "failed"):
            return
        live = any(l.task.tid == tid for l in self._leases.values())
        self._state[tid] = "leased" if live else "pending"

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
            if self._state.get(task.tid) in ("done", "failed"):
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
            if self._state.get(task.tid) in ("done", "failed"):
                continue
            task.attempt -= 1
            self._slots[task.tid] += 1
            self._pending.appendleft(task)
            self._refresh_state(task.tid)
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

    def need_of(self, tid: str) -> int:
        """Completions ``tid`` needs to settle: its redundancy plus one
        per tie-break reopen."""
        return self._need[tid]

    def note_error(self, tid: str, error: str) -> None:
        """Record the failure reason for a task the *lifecycle* failed
        (a quarantined task whose budget ran out), so ``error_of`` tells
        the story the same way lease expiries do."""
        self._failures[tid] = error

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
                 if self._state.get(t.tid) not in ("done", "failed")
                 and self._slots.get(t.tid, 0) > 0]
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
