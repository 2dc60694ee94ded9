"""Integration: campaigns are interruptible, resumable, and incremental.

The acceptance properties of the campaign subsystem:

* a campaign killed mid-sweep resumes from where it stopped, recomputing
  only unfinished points, and the final results are identical to an
  uninterrupted run;
* rerunning a figure script immediately hits the cache for (nearly) all
  of its points.
"""

import dataclasses

import pytest

from repro.campaign import CampaignStore, RetryPolicy, RunCache, run_points
from repro.campaign.executor import CampaignExecutor
from repro.config import SimConfig
from repro.sim.parallel import grid


@pytest.fixture
def sweep_cfg() -> SimConfig:
    return SimConfig(rows=4, cols=4, warmup_cycles=100, measure_cycles=300,
                     drain_cycles=800, fastpass_slot_cycles=64)


POINTS = grid([("escapevc", {}), ("fastpass", {"n_vcs": 2})],
              ["uniform", "transpose"], [0.02, 0.05])   # 8 points


def _fields(res) -> tuple:
    d = dataclasses.asdict(res)
    return tuple(sorted((k, repr(v)) for k, v in d.items()))


class _InterruptAfter:
    """Progress callback that aborts the campaign after N computations."""

    def __init__(self, n: int):
        self.n = n

    def __call__(self, progress) -> None:
        if progress.done >= self.n:
            raise KeyboardInterrupt


class TestResume:
    """Interrupt -> resume -> bit-identical, on every transport."""

    def test_interrupted_campaign_resumes_identically(
            self, tmp_path, sweep_cfg, make_executor):
        cache = RunCache(tmp_path / "cache", salt="s")
        store = CampaignStore(tmp_path / "campaign.sqlite")

        with pytest.raises(KeyboardInterrupt):
            make_executor(sweep_cfg, cache=cache, store=store,
                          progress=_InterruptAfter(3)).run(POINTS)
        make_executor.close()         # the interrupted process exits

        # Whatever was out on a lease went back to pending: nothing is
        # stuck 'running', nothing failed, and the cache holds exactly
        # the settled points.  In-process the count is exact; children
        # and pullers may settle a few more before they are stopped.
        counts = store.counts()
        assert counts["done"] == 3 or (
            make_executor.transport != "inline" and counts["done"] > 3)
        assert counts["running"] == 0 and counts["failed"] == 0
        assert counts["done"] + counts["pending"] == len(POINTS)
        assert len(cache) == counts["done"]

        # Resume: only the unfinished points are recomputed.
        ex = make_executor(sweep_cfg, cache=cache, store=store)
        resumed = ex.run(POINTS)
        assert ex.summary["cached"] == counts["done"]
        assert ex.summary["computed"] == len(POINTS) - counts["done"]
        assert ex.summary["failed"] == 0
        assert store.counts() == {"pending": 0, "running": 0,
                                  "done": len(POINTS), "failed": 0}

        # And the results match a clean, uninterrupted run exactly.
        clean = run_points(POINTS, sweep_cfg, processes=1, cache=False,
                           store=False)
        assert [_fields(r) for r in resumed] == [_fields(r) for r in clean]

    def test_second_run_is_fully_cached(self, tmp_path, sweep_cfg,
                                        make_executor):
        cache = RunCache(tmp_path / "cache", salt="s")
        points = POINTS[:4]
        ex = make_executor(sweep_cfg, cache=cache)
        first = ex.run(points)
        assert ex.summary["computed"] == len(points)
        assert len(cache) == len(points)
        ex = make_executor(sweep_cfg, cache=cache)
        second = ex.run(points)
        assert ex.summary["computed"] == 0
        assert ex.summary["cached"] == len(points)
        assert [_fields(r) for r in first] == [_fields(r) for r in second]


class TestFigureScriptsAreIncremental:
    def test_fig7_second_run_hits_cache(self):
        """Acceptance: rerunning a figure script hits the cache for >= 95%
        of its points (here: all of them)."""
        from repro.campaign import get_context
        from repro.experiments import fig7
        schemes = [("EscapeVC", "escapevc", {}),
                   ("FastPass", "fastpass", {"n_vcs": 2})]
        kwargs = dict(quick=True, patterns=("transpose",),
                      schemes=schemes, rates=[0.02, 0.06])
        first = fig7.run(**kwargs)
        cache = get_context().cache()
        assert len(cache) > 0
        cache.reset_stats()
        second = fig7.run(**kwargs)
        assert cache.misses == 0
        assert cache.hit_rate >= 0.95
        assert first == second

    def test_fig9_second_run_hits_cache(self):
        from repro.campaign import get_context
        from repro.experiments import fig9
        first = fig9.run(quick=True, rates=[0.01, 0.02])
        cache = get_context().cache()
        cache.reset_stats()
        second = fig9.run(quick=True, rates=[0.01, 0.02])
        assert cache.hit_rate >= 0.95
        assert first == second

    def test_stale_cache_survives_failed_points(self, sweep_cfg,
                                                monkeypatch, tmp_path):
        """A point that fails is not cached, so a later run retries it."""
        monkeypatch.setenv("REPRO_CAMPAIGN_SELFTEST", "1")
        from repro.sim.parallel import Point
        cache = RunCache(tmp_path / "cache", salt="s")
        bad = [Point.make("x", "selftest:fail", 0.0)]
        retry = RetryPolicy(max_attempts=1, backoff_s=0.01)
        ex = CampaignExecutor(sweep_cfg, cache=cache, processes=1,
                              retry=retry)
        assert ex.run(bad)[0].extra.get("failed")
        ex2 = CampaignExecutor(sweep_cfg, cache=cache, processes=1,
                               retry=retry)
        ex2.run(bad)
        assert ex2.summary["cached"] == 0      # it was retried, not reused
