"""Persistent campaign store: point status tracking in sqlite.

The store answers "where was this campaign when it stopped?" — one row per
point, keyed by the same content address as the run cache:

.. code-block:: sql

    CREATE TABLE points(
        key      TEXT PRIMARY KEY,   -- cache.point_key(point, cfg, salt)
        point    TEXT NOT NULL,      -- Point.to_json(), for display
        status   TEXT NOT NULL,      -- pending | running | done | failed
        attempts INTEGER NOT NULL,
        error    TEXT,               -- last failure, if any
        updated  REAL NOT NULL       -- unix time of the last transition
    )

Results themselves live in the run cache; the store only tracks status, so
deleting a store loses progress bookkeeping but never data.

Concurrency: the database runs in WAL mode with a busy timeout, so a
``campaign status`` reader (or the fabric results service) can inspect a
store while a coordinator is writing to it.  Writes still come from one
process — the campaign parent or the fabric coordinator — but may arrive
from multiple threads there (the coordinator's HTTP server settles
completions on its own thread), so the connection is shared behind an
internal lock.
"""

from __future__ import annotations

import json
import sqlite3
import threading
import time
from pathlib import Path

from repro.sim.parallel import Point

_SCHEMA = """
CREATE TABLE IF NOT EXISTS points(
    key      TEXT PRIMARY KEY,
    point    TEXT NOT NULL,
    status   TEXT NOT NULL DEFAULT 'pending',
    attempts INTEGER NOT NULL DEFAULT 0,
    error    TEXT,
    updated  REAL NOT NULL
);
CREATE TABLE IF NOT EXISTS meta(k TEXT PRIMARY KEY, v TEXT);
CREATE INDEX IF NOT EXISTS idx_points_status ON points(status);
CREATE TABLE IF NOT EXISTS leases(
    lease_id TEXT PRIMARY KEY,
    worker   TEXT NOT NULL,
    keys     TEXT NOT NULL,
    attempt  INTEGER NOT NULL,
    deadline REAL NOT NULL
);
"""

STATUSES = ("pending", "running", "done", "failed")

#: how long a writer waits on a locked database before erroring (ms)
BUSY_TIMEOUT_MS = 5000


class CampaignStore:
    def __init__(self, path: str | Path):
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        # check_same_thread=False + the RLock below: the fabric
        # coordinator marks transitions from its HTTP-server thread while
        # the owning executor registers/queries from the main thread.
        self._con = sqlite3.connect(self.path,
                                    timeout=BUSY_TIMEOUT_MS / 1000,
                                    check_same_thread=False)
        self._lock = threading.RLock()
        self._con.execute(f"PRAGMA busy_timeout={BUSY_TIMEOUT_MS}")
        # WAL lets readers (status CLI, results service) overlap the
        # writer.  Some filesystems refuse WAL; whatever mode sqlite
        # settles on is fine — this is an optimisation, not a contract.
        self.journal_mode = self._con.execute(
            "PRAGMA journal_mode=WAL").fetchone()[0].lower()
        self._con.execute("PRAGMA synchronous=NORMAL")
        self._con.executescript(_SCHEMA)
        self._con.commit()

    # ------------------------------------------------------------------
    def register(self, keyed_points: list[tuple[str, Point]]) -> None:
        """Add points as ``pending`` (already-known keys are untouched)."""
        with self._lock:
            self._con.executemany(
                "INSERT OR IGNORE INTO points(key, point, status, attempts, "
                "updated) VALUES(?, ?, 'pending', 0, ?)",
                [(key, json.dumps(p.to_json()), time.time())
                 for key, p in keyed_points])
            self._con.commit()

    def mark(self, key: str, status: str, error: str | None = None,
             attempts: int | None = None) -> None:
        if status not in STATUSES:
            raise ValueError(f"unknown status {status!r}")
        with self._lock:
            if attempts is None:
                self._con.execute(
                    "UPDATE points SET status=?, error=?, updated=? "
                    "WHERE key=?", (status, error, time.time(), key))
            else:
                self._con.execute(
                    "UPDATE points SET status=?, error=?, attempts=?, "
                    "updated=? WHERE key=?",
                    (status, error, attempts, time.time(), key))
            self._con.commit()

    def mark_many(self, keys, status: str) -> None:
        """One transaction for a whole task's transition (lease grants
        and re-queues touch every key of a seed-group task at once)."""
        if status not in STATUSES:
            raise ValueError(f"unknown status {status!r}")
        now = time.time()
        with self._lock:
            self._con.executemany(
                "UPDATE points SET status=?, error=NULL, updated=? "
                "WHERE key=?", [(status, now, k) for k in keys])
            self._con.commit()

    def reset_running(self, exclude=()) -> int:
        """Re-queue points left ``running`` by an interrupted campaign.

        ``exclude`` names keys that are *legitimately* running right now
        — points out on live fabric leases — so a coordinator resuming a
        store shared with active workers never clobbers their claims
        (clobbering would double-execute the point and, worse, let a
        stale 'pending' mark race the worker's completion).
        """
        exclude = set(exclude)
        with self._lock:
            if not exclude:
                cur = self._con.execute(
                    "UPDATE points SET status='pending', updated=? "
                    "WHERE status='running'", (time.time(),))
                self._con.commit()
                return cur.rowcount
            stale = [key for (key,) in self._con.execute(
                "SELECT key FROM points WHERE status='running'")
                if key not in exclude]
            now = time.time()
            self._con.executemany(
                "UPDATE points SET status='pending', updated=? "
                "WHERE key=? AND status='running'",
                [(now, k) for k in stale])
            self._con.commit()
            return len(stale)

    # -- lease journal --------------------------------------------------
    # The fabric coordinator journals its live leases here after every
    # state transition, which is what makes it crash-safe: a restarted
    # coordinator (``fabric serve --resume``) re-creates the outstanding
    # leases from these rows and keeps honouring their completions.
    # ``deadline`` is wall-clock (the coordinator's monotonic clock died
    # with it); a resumed lease gets a fresh TTL anyway.  Both statements
    # name their columns, so a journal written by an older schema (one
    # more column, with a default) still syncs and reads back.

    def sync_leases(self, rows: list[dict]) -> None:
        """Replace the lease journal with ``rows`` in one transaction.

        Each row: ``{"lease_id", "worker", "keys": [...], "attempt",
        "ttl_s"}``.  Full replacement (not upsert) keeps
        the journal an exact mirror of the queue's live leases — a
        completed or expired lease disappears on the next sync.
        """
        now = time.time()
        with self._lock:
            self._con.execute("DELETE FROM leases")
            self._con.executemany(
                "INSERT INTO leases(lease_id, worker, keys, attempt, "
                "deadline) VALUES(?, ?, ?, ?, ?)",
                [(r["lease_id"], r["worker"], json.dumps(r["keys"]),
                  int(r["attempt"]), now + float(r.get("ttl_s", 0.0)))
                 for r in rows])
            self._con.commit()

    def outstanding_leases(self) -> list[dict]:
        """The journaled leases, oldest lease id first."""
        with self._lock:
            rows = self._con.execute(
                "SELECT lease_id, worker, keys, attempt, deadline "
                "FROM leases ORDER BY lease_id").fetchall()
        return [{"lease_id": lease_id, "worker": worker,
                 "keys": json.loads(keys), "attempt": attempt,
                 "deadline": deadline}
                for lease_id, worker, keys, attempt, deadline in rows]

    def clear_leases(self) -> int:
        """Drop the lease journal (graceful shutdown, or a fresh
        campaign that must not adopt stale claims); returns the number
        of rows dropped."""
        with self._lock:
            cur = self._con.execute("DELETE FROM leases")
            self._con.commit()
        return cur.rowcount

    # -- queries --------------------------------------------------------
    def points_by_key(self, keys) -> dict[str, tuple[Point, str]]:
        """``key -> (point, status)`` for every known key in ``keys`` —
        lease adoption validates journal rows against this."""
        out: dict[str, tuple[Point, str]] = {}
        with self._lock:
            for key in keys:
                row = self._con.execute(
                    "SELECT point, status FROM points WHERE key=?",
                    (key,)).fetchone()
                if row is not None:
                    out[key] = (Point.from_json(json.loads(row[0])),
                                row[1])
        return out

    def status_of(self, key: str) -> str | None:
        with self._lock:
            row = self._con.execute(
                "SELECT status FROM points WHERE key=?", (key,)).fetchone()
        return row[0] if row else None

    def counts(self) -> dict[str, int]:
        out = {s: 0 for s in STATUSES}
        with self._lock:
            rows = self._con.execute(
                "SELECT status, COUNT(*) FROM points GROUP BY status"
            ).fetchall()
        for status, n in rows:
            out[status] = n
        return out

    def points_with_status(self, status: str) -> list[tuple[str, Point]]:
        with self._lock:
            rows = self._con.execute(
                "SELECT key, point FROM points WHERE status=? ORDER BY key",
                (status,)).fetchall()
        return [(key, Point.from_json(json.loads(blob)))
                for key, blob in rows]

    def failures(self) -> list[tuple[str, str, int]]:
        """(key, last error, attempts) for every failed point."""
        with self._lock:
            return self._con.execute(
                "SELECT key, COALESCE(error, ''), attempts FROM points "
                "WHERE status='failed' ORDER BY key").fetchall()

    def throughput(self, window_s: float = 300.0) -> tuple[int, float]:
        """(points finished in the last ``window_s``, window actually
        spanned) — the basis for an ETA that is robust to *remote*
        workers: transitions recorded in the store measure fleet-wide
        completion rate, unlike local pool occupancy."""
        cutoff = time.time() - window_s
        with self._lock:
            rows = self._con.execute(
                "SELECT updated FROM points WHERE status IN "
                "('done','failed') AND updated >= ?", (cutoff,)).fetchall()
        if not rows:
            return 0, 0.0
        oldest = min(u for (u,) in rows)
        return len(rows), max(time.time() - oldest, 1e-9)

    def __len__(self) -> int:
        with self._lock:
            return self._con.execute(
                "SELECT COUNT(*) FROM points").fetchone()[0]

    def close(self) -> None:
        with self._lock:
            self._con.close()
