"""The figure planner on every transport: series streamed through one
open campaign run (``repro.campaign.plan``).

``make_executor`` is the transport axis of ``tests/conftest.py``
(in-process, forked pool, loopback fabric); ``drive(..., executor=)``
hands the planner that executor instead of the ambient one.
"""

import dataclasses
import threading
import time

import pytest

from repro.campaign import RetryPolicy, RunCache
from repro.campaign.cache import point_key
from repro.campaign.lifecycle import Lifecycle
from repro.campaign.plan import drive
from repro.campaign.store import CampaignStore
from repro.campaign.worker import execute_point
from repro.config import SimConfig
from repro.experiments.common import mean_result, sweep_series
from repro.sim.parallel import Point


@pytest.fixture
def selftest(monkeypatch):
    monkeypatch.setenv("REPRO_CAMPAIGN_SELFTEST", "1")


class RecordingStore(CampaignStore):
    """A campaign store that logs every status transition and counts
    the once-per-run bookkeeping calls.  The fabric marks from its
    server thread, so the log is guarded."""

    def __init__(self, path):
        super().__init__(path)
        self.log: list[tuple[float, str, str]] = []   # (t, key, status)
        self.calls = {"reset_running": 0, "clear_leases": 0}
        self._log_lock = threading.Lock()

    def _note(self, keys, status):
        now = time.monotonic()
        with self._log_lock:
            self.log.extend((now, key, status) for key in keys)

    def mark(self, key, status, error=None, attempts=None):
        self._note([key], status)
        super().mark(key, status, error, attempts)

    def mark_many(self, keys, status):
        keys = list(keys)
        self._note(keys, status)
        super().mark_many(keys, status)

    def reset_running(self, exclude=()):
        self.calls["reset_running"] += 1
        return super().reset_running(exclude)

    def clear_leases(self):
        self.calls["clear_leases"] += 1
        return super().clear_leases()


def chain(name: str, sleeps, cfg, pattern: str = "selftest:sleep"):
    """A series of single-point frontiers, each known only once the one
    before has settled."""
    out = []
    for sleep in sleeps:
        out += yield [Point.make(name, pattern, sleep)], cfg
    return out


def _fields(res) -> tuple:
    return tuple(sorted((k, repr(v))
                        for k, v in dataclasses.asdict(res).items()))


# -- the fig7 slice against a serial oracle -----------------------------------

#: short drain window: uniform saturates at 0.5, transpose at 0.9, so
#: the four series stop at two different depths and 0.95 is never run
SLICE_CFG = SimConfig(rows=4, cols=4, warmup_cycles=100,
                      measure_cycles=300, drain_cycles=60,
                      fastpass_slot_cycles=64)
SLICE_RATES = [0.05, 0.5, 0.9, 0.95]
SLICE_SEEDS = (1, 2)
SLICE_CURVES = [(pattern, name, kwargs)
                for pattern in ("uniform", "transpose")
                for name, kwargs in (("escapevc", {}),
                                     ("fastpass", {"n_vcs": 2}))]


def serial_oracle(salt: str):
    """The figure as the nested loops it used to be: every curve in
    turn, every rate in turn, every seed in turn, in this process."""
    curves, keys = [], set()
    for pattern, name, kwargs in SLICE_CURVES:
        rows = []
        for rate in SLICE_RATES:
            points = [Point.make_seeded(name, pattern, rate, seed=s,
                                        **kwargs) for s in SLICE_SEEDS]
            keys.update(point_key(p, SLICE_CFG, salt) for p in points)
            res = mean_result([execute_point(p, SLICE_CFG)
                               for p in points])
            rows.append(res)
            if res.deadlocked or res.extra["undelivered"] > \
                    0.5 * max(1, res.extra["measured_generated"]):
                break
        curves.append(rows)
    return curves, keys


class TestFigureSlice:
    def test_equals_serial_oracle(self, tmp_path, make_executor,
                                  monkeypatch):
        cache = RunCache(tmp_path / "cache", salt="s")
        store = CampaignStore(tmp_path / "plan.sqlite")
        ex = make_executor(SLICE_CFG, cache=cache, store=store)
        got = drive([sweep_series(name, kwargs, pattern, SLICE_RATES,
                                  SLICE_CFG, SLICE_SEEDS)
                     for pattern, name, kwargs in SLICE_CURVES],
                    executor=ex)
        want, want_keys = serial_oracle("s")
        # the slice is worth testing only if early stop is per series
        assert sorted({len(rows) for rows in want}) == [2, 3]
        assert [[_fields(r) for r in rows] for rows in got] == \
            [[_fields(r) for r in rows] for rows in want]
        assert [[(r.extra["rate"], r.avg_latency, r.deadlocked)
                 for r in rows] for rows in got] == \
            [[(r.extra["rate"], r.avg_latency, r.deadlocked)
              for r in rows] for rows in want]
        # a series that saturates at rate r has no row for r+1
        n_points = sum(len(rows) for rows in want) * len(SLICE_SEEDS)
        assert store.counts() == {"pending": 0, "running": 0,
                                  "done": n_points, "failed": 0}
        assert {key for key, _ in store.points_with_status("done")} == \
            want_keys
        assert ex.summary["total"] == ex.summary["computed"] == n_points

        # all hits: the same figure again opens no lifecycle or transport
        def no_submit(*args, **kwargs):
            raise AssertionError("an all-hit figure submitted work")

        monkeypatch.setattr(Lifecycle, "submit", no_submit)
        again = make_executor(SLICE_CFG, cache=cache, store=store)
        rerun = drive([sweep_series(name, kwargs, pattern, SLICE_RATES,
                                    SLICE_CFG, SLICE_SEEDS)
                       for pattern, name, kwargs in SLICE_CURVES],
                      executor=again)
        assert again.summary["cached"] == n_points
        assert again.summary["computed"] == 0
        assert [[_fields(r) for r in rows] for rows in rerun] == \
            [[_fields(r) for r in rows] for rows in want]


# -- streaming: no wave barrier across series ---------------------------------

class TestStreaming:
    def test_series_overlap_and_resume_on_their_own(
            self, selftest, small_cfg, tmp_path, make_executor):
        if make_executor.transport == "inline":
            pytest.skip("declared unsupported: one lease at a time "
                        "in-process")
        store = RecordingStore(tmp_path / "plan.sqlite")
        ex = make_executor(small_cfg, store=store,
                           cache=RunCache(tmp_path / "cache", salt="s"))
        fast, slow = drive([chain("fast", [0.05, 0.06], small_cfg),
                            chain("slow", [1.2], small_cfg)], executor=ex)
        assert [r.extra["rate"] for r in fast] == [0.05, 0.06]
        assert [r.extra["rate"] for r in slow] == [1.2]

        key = {sleep: point_key(Point.make(name, "selftest:sleep", sleep),
                                small_cfg, "s")
               for name, sleep in (("fast", 0.05), ("fast", 0.06),
                                   ("slow", 1.2))}
        when = {(k, status): t for t, k, status in store.log}
        # two series, two leases in flight at once
        in_flight = peak = 0
        for _t, _k, status in sorted(store.log):
            in_flight += {"running": 1, "done": -1}.get(status, 0)
            peak = max(peak, in_flight)
        assert peak >= 2
        # the fast series' second frontier was leased while the slow
        # series' first was still out: no barrier across series
        assert when[key[0.06], "running"] < when[key[1.2], "done"]
        # and nothing enqueued later pushed an earlier lease back
        assert "pending" not in {status for _t, _k, status in store.log}

    def test_run_bookkeeping_happens_once_per_run(
            self, selftest, small_cfg, tmp_path, make_executor):
        """Three frontiers, one run: rows an interrupted run left
        ``running`` are re-queued once (a second frontier must not flip
        the first one's live rows back), the lease journal is cleared
        once, and progress grows with the frontiers."""
        store = RecordingStore(tmp_path / "plan.sqlite")
        events = []
        ex = make_executor(small_cfg, store=store, progress=events.append)
        (out,) = drive([chain("x", [1.0, 2.0, 3.0], small_cfg,
                              pattern="selftest:ok")], executor=ex)
        assert [r.extra["rate"] for r in out] == [1.0, 2.0, 3.0]
        assert store.calls["reset_running"] == 1
        assert store.calls["clear_leases"] == \
            (1 if make_executor.transport == "loopback" else 0)
        totals = [e.total for e in events]
        assert totals == sorted(totals) and totals[0] == 1 \
            and totals[-1] == 3
        # the ETA is unknown while the series may still yield, zero at
        # the very end — never zero in between
        assert [e.eta_s for e in events[:-1]] == [None] * (len(events) - 1)
        assert events[-1].eta_s == 0.0 and events[-1].finished == 3


# -- interrupt -> resume ------------------------------------------------------

class _InterruptAfter:
    def __init__(self, n: int):
        self.n = n

    def __call__(self, progress) -> None:
        if progress.done >= self.n:
            raise KeyboardInterrupt


class TestInterrupt:
    def test_interrupted_figure_resumes_with_the_remainder(
            self, selftest, small_cfg, tmp_path, make_executor):
        cache = RunCache(tmp_path / "cache", salt="s")
        store = CampaignStore(tmp_path / "plan.sqlite")

        def figure():
            return [chain(name, [0.01, 0.02, 0.03], small_cfg)
                    for name in ("a", "b", "c")]

        with pytest.raises(KeyboardInterrupt):
            drive(figure(), executor=make_executor(
                small_cfg, cache=cache, store=store,
                progress=_InterruptAfter(4)))
        make_executor.close()         # the interrupted process exits

        counts = store.counts()
        assert counts["running"] == 0 and counts["failed"] == 0
        assert 4 <= counts["done"] < 9
        assert len(cache) == counts["done"]
        # only frontiers that were reached have rows at all
        assert counts["done"] + counts["pending"] <= 9

        ex = make_executor(small_cfg, cache=cache, store=store,
                           retry=RetryPolicy(max_attempts=1))
        outcomes = drive(figure(), executor=ex)
        assert [[r.extra["rate"] for r in rows] for rows in outcomes] == \
            [[0.01, 0.02, 0.03]] * 3
        assert ex.summary["cached"] == counts["done"]
        assert ex.summary["computed"] == 9 - counts["done"]
        assert store.counts() == {"pending": 0, "running": 0, "done": 9,
                                  "failed": 0}
