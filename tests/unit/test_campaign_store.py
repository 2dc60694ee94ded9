"""CampaignStore tests: WAL concurrency hardening, batch transitions,
lease-aware resume, and the throughput window behind remote-robust ETAs.
"""

from __future__ import annotations

import sqlite3
import threading
import time

import pytest

from repro.campaign.store import CampaignStore
from repro.sim.parallel import Point


def points(n: int) -> list[tuple[str, Point]]:
    return [(f"k{i}", Point.make("fastpass", "uniform", 0.01 * (i + 1)))
            for i in range(n)]


@pytest.fixture
def store(tmp_path):
    s = CampaignStore(tmp_path / "campaign.sqlite")
    yield s
    s.close()


class TestWalMode:
    def test_wal_journal_mode(self, store):
        # On normal filesystems sqlite grants WAL; the attribute records
        # whatever mode was actually negotiated.
        assert store.journal_mode == "wal"

    def test_concurrent_reader_sees_writes(self, store, tmp_path):
        store.register(points(3))
        store.mark("k0", "done")
        reader = CampaignStore(tmp_path / "campaign.sqlite")
        try:
            assert reader.counts() == {"pending": 2, "running": 0,
                                       "done": 1, "failed": 0}
        finally:
            reader.close()

    def test_cross_thread_writes(self, store):
        """The coordinator marks transitions from its HTTP thread while
        the executor registers from the main one."""
        store.register(points(20))
        errors = []

        def mark_half(lo, hi):
            try:
                for i in range(lo, hi):
                    store.mark(f"k{i}", "done")
            except Exception as exc:  # noqa: BLE001 - collected for assert
                errors.append(exc)

        threads = [threading.Thread(target=mark_half, args=(lo, lo + 10))
                   for lo in (0, 10)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert store.counts()["done"] == 20


class TestTransitions:
    def test_mark_many_is_one_transition(self, store):
        store.register(points(4))
        store.mark_many(["k0", "k1", "k2"], "running")
        assert store.counts() == {"pending": 1, "running": 3, "done": 0,
                                  "failed": 0}

    def test_mark_many_clears_stale_error(self, store):
        store.register(points(1))
        store.mark("k0", "failed", error="boom")
        store.mark_many(["k0"], "pending")
        store.mark("k0", "failed", error=None)
        assert store.failures() == [("k0", "", 0)]

    def test_mark_many_rejects_bad_status(self, store):
        with pytest.raises(ValueError):
            store.mark_many(["k0"], "exploded")


class TestResetRunning:
    def test_reset_running_requeues_stale_points(self, store):
        store.register(points(3))
        store.mark_many(["k0", "k1"], "running")
        assert store.reset_running() == 2
        assert store.counts()["pending"] == 3

    def test_reset_running_spares_live_leases(self, store):
        """Points out on live fabric leases must not be clobbered back to
        pending — that would double-execute them."""
        store.register(points(3))
        store.mark_many(["k0", "k1", "k2"], "running")
        assert store.reset_running(exclude={"k1"}) == 2
        assert store.status_of("k1") == "running"
        assert store.status_of("k0") == "pending"
        assert store.status_of("k2") == "pending"

    def test_reset_running_noop_when_all_excluded(self, store):
        store.register(points(2))
        store.mark_many(["k0", "k1"], "running")
        assert store.reset_running(exclude={"k0", "k1"}) == 0
        assert store.counts()["running"] == 2


class TestThroughput:
    def test_throughput_counts_recent_finishers(self, store):
        store.register(points(5))
        for k in ("k0", "k1", "k2"):
            store.mark(k, "done")
        store.mark("k3", "failed", error="x")
        n, span = store.throughput(window_s=300.0)
        assert n == 4
        assert span > 0

    def test_throughput_ignores_old_finishers(self, store):
        store.register(points(2))
        store.mark("k0", "done")
        time.sleep(0.05)
        store.mark("k1", "done")
        n, _ = store.throughput(window_s=0.01)
        assert n == 1

    def test_throughput_empty(self, store):
        assert store.throughput() == (0, 0.0)


class TestLeaseJournal:
    def test_sync_and_outstanding_round_trip(self, store, tmp_path):
        """Also on a store whose journal has the older schema's extra
        column (NOT NULL DEFAULT 1): it still syncs, reads back and is
        adopted, because both statements name their columns."""
        from repro.fabric.coordinator import Coordinator

        old = tmp_path / "old.sqlite"
        con = sqlite3.connect(old)
        con.execute(
            "CREATE TABLE leases(lease_id TEXT PRIMARY KEY, worker TEXT "
            "NOT NULL, keys TEXT NOT NULL, attempt INTEGER NOT NULL, "
            "copies INTEGER NOT NULL DEFAULT 1, deadline REAL NOT NULL)")
        con.commit()
        con.close()
        old_store = CampaignStore(old)
        for st in (store, old_store):
            st.register(points(3))
            st.sync_leases([
                {"lease_id": "L1", "worker": "w1", "keys": ["k0", "k1"],
                 "attempt": 2, "ttl_s": 30.0},
                {"lease_id": "L2", "worker": "w2", "keys": ["k2"],
                 "attempt": 1, "ttl_s": 30.0},
            ])
            rows = st.outstanding_leases()
            assert [r["lease_id"] for r in rows] == ["L1", "L2"]
            assert rows[0]["keys"] == ["k0", "k1"]
            assert rows[0]["attempt"] == 2
            assert all(r["deadline"] > time.time() for r in rows)
            assert Coordinator().adopt_leases(st, None) == {"k0", "k1",
                                                            "k2"}
        old_store.close()

    def test_sync_is_full_replacement(self, store):
        store.sync_leases([{"lease_id": "L1", "worker": "w", "keys": ["a"],
                            "attempt": 1, "ttl_s": 10.0}])
        store.sync_leases([{"lease_id": "L2", "worker": "w", "keys": ["b"],
                            "attempt": 1, "ttl_s": 10.0}])
        assert [r["lease_id"] for r in store.outstanding_leases()] == ["L2"]
        store.sync_leases([])
        assert store.outstanding_leases() == []

    def test_clear_leases(self, store):
        store.sync_leases([{"lease_id": "L1", "worker": "w", "keys": ["a"],
                            "attempt": 1, "ttl_s": 10.0}])
        assert store.clear_leases() == 1
        assert store.outstanding_leases() == []
        assert store.clear_leases() == 0

    def test_journal_survives_reopen(self, store, tmp_path):
        """The crash-recovery path: a new store (a restarted
        coordinator) reads the journal the dead one wrote."""
        store.register(points(1))
        store.sync_leases([{"lease_id": "L9", "worker": "w", "keys": ["k0"],
                            "attempt": 1, "ttl_s": 60.0}])
        reopened = CampaignStore(tmp_path / "campaign.sqlite")
        try:
            rows = reopened.outstanding_leases()
            assert [r["lease_id"] for r in rows] == ["L9"]
        finally:
            reopened.close()

    def test_points_by_key_returns_point_and_status(self, store):
        store.register(points(2))
        store.mark("k1", "done")
        got = store.points_by_key(["k0", "k1", "missing"])
        assert set(got) == {"k0", "k1"}
        assert got["k0"][1] == "pending"
        assert got["k1"][1] == "done"
        assert got["k0"][0].pattern == "uniform"


class TestResetRunningRace:
    def test_reset_running_racing_mark_many(self, store):
        """A resuming coordinator's reset_running(exclude=live) runs
        concurrently with lease transitions marking tasks running: no
        exception, no lost point, and every excluded (live) key is
        never clobbered back to pending by the sweep."""
        n = 60
        store.register(points(n))
        live = [f"k{i}" for i in range(0, n, 2)]     # will be excluded
        stale = [f"k{i}" for i in range(1, n, 2)]
        store.mark_many(stale, "running")            # crash leftovers
        errors: list = []
        start = threading.Barrier(3)

        def marker():
            try:
                start.wait()
                for key in live:
                    store.mark_many([key], "running")
            except Exception as exc:  # noqa: BLE001
                errors.append(exc)

        def resetter():
            try:
                start.wait()
                for _ in range(10):
                    store.reset_running(exclude=live)
            except Exception as exc:  # noqa: BLE001
                errors.append(exc)

        threads = [threading.Thread(target=marker),
                   threading.Thread(target=resetter)]
        for t in threads:
            t.start()
        start.wait()
        for t in threads:
            t.join(timeout=30)
        assert errors == []
        # One final sweep after the dust settles: the live keys must
        # still be running (they were excluded every time), the stale
        # ones pending.
        store.reset_running(exclude=live)
        for key in live:
            assert store.status_of(key) == "running"
        for key in stale:
            assert store.status_of(key) == "pending"
        counts = store.counts()
        assert sum(counts.values()) == n             # nothing lost
