"""Unit tests for the content-addressed run cache."""

import dataclasses
import json
import math
import os
from pathlib import Path

import pytest

from repro.campaign.cache import (
    RunCache,
    code_version,
    point_key,
    result_from_json,
    result_to_json,
)
from repro.config import RunResult, SimConfig
from repro.sim.parallel import Point


def _res(**kw) -> RunResult:
    # Finite values everywhere: NaN breaks == in round-trip assertions.
    res = RunResult(scheme="Test", ejected=10, avg_latency=12.5,
                    p99_latency=40.0, throughput=0.1, cycles=1000,
                    fp_buffered_time=1.0, fp_bufferless_time=2.0,
                    reg_latency=3.0, degraded_latency=4.0)
    for key, value in kw.items():
        setattr(res, key, value)
    return res


def _put_legacy(cache: RunCache, point: Point, cfg: SimConfig,
                result: RunResult) -> str:
    """Write an entry the way the one-object layout did (one
    ``json.dump``, no newline, the result under ``"result"``)."""
    key = cache.key_for(point, cfg)
    entry = {"key": key, "salt": cache.salt, "point": point.to_json(),
             "cfg": dataclasses.asdict(cfg),
             "engine": getattr(result, "engine_used", None),
             "result": result_to_json(result)}
    path = cache._path(key)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as fh:
        json.dump(entry, fh)
    return key


class TestPointKey:
    def test_stable_across_calls(self, small_cfg):
        p = Point.make("fastpass", "uniform", 0.1, n_vcs=2)
        assert point_key(p, small_cfg, "s") == point_key(p, small_cfg, "s")

    def test_kwarg_order_irrelevant(self, small_cfg):
        a = Point("x", (("a", 1), ("b", 2)), "uniform", 0.1)
        b = Point("x", (("b", 2), ("a", 1)), "uniform", 0.1)
        assert point_key(a, small_cfg, "s") == point_key(b, small_cfg, "s")

    def test_distinct_points_distinct_keys(self, small_cfg):
        a = Point.make("fastpass", "uniform", 0.1, n_vcs=2)
        b = Point.make("fastpass", "uniform", 0.1, n_vcs=4)
        c = Point.make("fastpass", "uniform", 0.2, n_vcs=2)
        keys = {point_key(p, small_cfg, "s") for p in (a, b, c)}
        assert len(keys) == 3

    def test_config_changes_key(self, small_cfg):
        p = Point.make("fastpass", "uniform", 0.1)
        assert point_key(p, small_cfg, "s") != \
            point_key(p, small_cfg.with_(measure_cycles=999), "s")

    def test_salt_changes_key(self, small_cfg):
        p = Point.make("fastpass", "uniform", 0.1)
        assert point_key(p, small_cfg, "a") != point_key(p, small_cfg, "b")


def _reference_key(point: Point, cfg: SimConfig, salt: str) -> str:
    """``point_key`` as it was before the per-config memo: one
    ``json.dumps`` over the whole payload.  Every entry of every cache
    on disk is addressed by this."""
    import dataclasses
    import hashlib
    cfg_payload = dataclasses.asdict(cfg)
    cfg_payload.pop("engine", None)
    payload = {"point": point.to_json(), "cfg": cfg_payload, "salt": salt}
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


class TestKeyFormatIsFrozen:
    """A warm cache must stay warm: the assembled key equals the
    reference for every kind of point and config."""

    def test_matches_the_reference_implementation(self, small_cfg):
        from repro.fault.plan import link_cut
        plan = link_cut(5, 2, at=100)
        points = [
            Point.make("fastpass", "uniform", 0.1, n_vcs=2),
            Point.make_seeded("escapevc", "transpose", 0.02, seed=7),
            Point.make_app("spin", "Radix", txns=24, seed=3),
            Point.make_stress("fastpass", n_vcs=1),
            Point.make_fault("fastpass", "uniform", 0.1, plan=plan,
                             traffic_stop=500, seed=2),
            Point("x", (("dir", 'quo"te\\ü'),), "selftest:ok", 1.0),
        ]
        cfgs = [small_cfg, SimConfig(),
                small_cfg.with_(fault_plan=plan),
                small_cfg.with_(engine="naive"),
                small_cfg.with_(engine="soa")]
        for cfg in cfgs:
            for point in points:
                for salt in ("s", 'sa"lt', code_version()):
                    assert point_key(point, cfg, salt) == \
                        _reference_key(point, cfg, salt)
        # engine= never reaches the key, memoised or not
        p = points[0]
        assert point_key(p, small_cfg.with_(engine="naive"), "s") == \
            point_key(p, small_cfg, "s")


class TestFaultKeys:
    """Fault plans must flow into the content address (satellite of the
    robustness subsystem): same sweep, different plan, different key."""

    def test_distinct_plans_distinct_point_keys(self, small_cfg):
        from repro.fault.plan import link_cut

        healthy = Point.make_fault("fastpass", "uniform", 0.1)
        cut_a = Point.make_fault("fastpass", "uniform", 0.1,
                                 plan=link_cut(5, 2, at=100))
        cut_b = Point.make_fault("fastpass", "uniform", 0.1,
                                 plan=link_cut(5, 2, at=200))
        keys = {point_key(p, small_cfg, "s")
                for p in (healthy, cut_a, cut_b)}
        assert len(keys) == 3

    def test_traffic_stop_changes_key(self, small_cfg):
        a = Point.make_fault("fastpass", "uniform", 0.1, traffic_stop=500)
        b = Point.make_fault("fastpass", "uniform", 0.1, traffic_stop=900)
        assert point_key(a, small_cfg, "s") != point_key(b, small_cfg, "s")

    def test_plan_in_config_changes_key(self, small_cfg):
        from repro.fault.plan import link_cut

        p = Point.make("fastpass", "uniform", 0.1)
        faulty_cfg = small_cfg.with_(fault_plan=link_cut(5, 2, at=100))
        # asdict(cfg) must stay JSON-serializable with the plan embedded.
        assert point_key(p, small_cfg, "s") != \
            point_key(p, faulty_cfg, "s")


class TestResultJson:
    def test_round_trip(self):
        res = _res()
        res.extra["rate"] = 0.1
        back = result_from_json(json.loads(json.dumps(result_to_json(res))))
        assert back == res

    def test_nan_fields_survive(self):
        res = _res(avg_latency=float("nan"))
        back = result_from_json(json.loads(json.dumps(result_to_json(res))))
        assert math.isnan(back.avg_latency)

    def test_unknown_fields_ignored(self):
        blob = result_to_json(_res())
        blob["from_the_future"] = 1
        assert result_from_json(blob).scheme == "Test"

    def test_engine_attribution_round_trips(self):
        res = _res()
        res.engine_used = "soa"
        back = result_from_json(
            json.loads(json.dumps(result_to_json(res))))
        assert back.engine_used == "soa"
        # Results that never ran through an engine-aware path stay
        # attribute-free, so comparisons remain engine-blind.
        plain = result_from_json(result_to_json(_res()))
        assert not hasattr(plain, "engine_used")


class TestRunCache:
    def test_miss_then_hit(self, tmp_path, small_cfg):
        cache = RunCache(tmp_path, salt="s")
        p = Point.make("fastpass", "uniform", 0.1, n_vcs=2)
        key = cache.key_for(p, small_cfg)
        assert cache.get(key) is None
        cache.put(key, p, small_cfg, _res())
        hit = cache.get(key)
        assert hit is not None and hit.avg_latency == 12.5
        assert cache.hits == 1 and cache.misses == 1
        assert len(cache) == 1

    def test_version_salt_invalidates(self, tmp_path, small_cfg):
        p = Point.make("fastpass", "uniform", 0.1)
        old = RunCache(tmp_path, salt="v1")
        old.put(old.key_for(p, small_cfg), p, small_cfg, _res())
        new = RunCache(tmp_path, salt="v2")
        assert new.get_point(p, small_cfg) is None
        assert old.get_point(p, small_cfg) is not None

    def test_clear(self, tmp_path, small_cfg):
        cache = RunCache(tmp_path, salt="s")
        p = Point.make("fastpass", "uniform", 0.1)
        cache.put(cache.key_for(p, small_cfg), p, small_cfg, _res())
        assert cache.clear() == 1
        assert len(cache) == 0

    @pytest.mark.parametrize("blob", [
        b"\xff\xfe\x00garbage",
        b"{ truncated",
        b"",
        b'{"no_result": 1}',
        b"[1, 2]",
        b'{"result": {"bogus_only": 1}}',
        b'[1, 2]\n{"key": "k"}\n',
        b'{"scheme": "Test", "inj\n{"key": "k"}\n',
    ], ids=["not-utf8", "truncated-object", "empty", "no-result",
            "not-an-object", "result-without-scheme",
            "first-line-not-an-object", "truncated-first-line"])
    def test_corrupt_entry_is_a_miss(self, tmp_path, small_cfg, blob):
        cache = RunCache(tmp_path, salt="s")
        p = Point.make("fastpass", "uniform", 0.1)
        key = cache.key_for(p, small_cfg)
        cache.put(key, p, small_cfg, _res())
        with open(cache._path(key), "wb") as fh:
            fh.write(blob)
        assert cache.get(key) is None
        assert cache.misses == 1 and cache.hits == 0
        cache.engine_counts()       # `campaign status` survives it too

    def test_entry_is_result_line_then_provenance(self, tmp_path, small_cfg):
        cache = RunCache(tmp_path, salt="s")
        p = Point.make("fastpass", "uniform", 0.1)
        key = cache.key_for(p, small_cfg)
        res = _res()
        res.engine_used = "active"
        cache.put(key, p, small_cfg, res)
        with open(cache._path(key)) as fh:
            lines = fh.read().splitlines()
        assert [json.loads(line) for line in lines] == [
            json.loads(json.dumps(result_to_json(res))),
            {"key": key, "salt": "s", "point": p.to_json(),
             "cfg": json.loads(json.dumps(dataclasses.asdict(small_cfg)))}]

    def test_parent_layout_cache_is_all_hits(self, small_cfg):
        """A cache warmed before the two-line layout stays warm: every
        point of a sweep is a hit with the result that was written, and
        reading rewrites nothing."""
        from repro.campaign import context
        from repro.experiments.common import cached_sweep_latency
        cache = context.get_context().cache()
        rates = (0.02, 0.05, 0.08)
        written, paths = [], []
        for i, rate in enumerate(rates):
            res = _res(ejected=10 + i)
            res.extra["rate"] = rate
            res.engine_used = "active"
            p = Point.make("fastpass", "uniform", rate, n_vcs=2)
            paths.append(cache._path(_put_legacy(cache, p, small_cfg, res)))
            written.append(res)
        before = [(os.stat(f).st_mtime_ns, Path(f).read_bytes())
                  for f in paths]
        got = cached_sweep_latency("fastpass", {"n_vcs": 2}, "uniform",
                                   rates, small_cfg)
        assert cache.hits == len(rates) and cache.misses == 0
        assert got == written
        assert [r.engine_used for r in got] == ["active"] * len(rates)
        assert [(os.stat(f).st_mtime_ns, Path(f).read_bytes())
                for f in paths] == before

    def test_default_salt_is_code_version(self, tmp_path):
        assert RunCache(tmp_path).salt == code_version()
        assert len(code_version()) == 16

    def test_engine_counts_breakdown(self, tmp_path, small_cfg):
        cache = RunCache(tmp_path, salt="s")
        for i, engine in enumerate(["soa", "soa", "active", None]):
            p = Point.make("fastpass", "uniform", 0.1 + i * 0.01)
            res = _res()
            if engine is not None:
                res.engine_used = engine
            if i == 1:      # one entry from before the two-line layout
                _put_legacy(cache, p, small_cfg, res)
            else:
                cache.put(cache.key_for(p, small_cfg), p, small_cfg, res)
        assert cache.engine_counts() == {
            "soa": 2, "active": 1, "unrecorded": 1}
