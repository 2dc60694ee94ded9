"""Unit tests for the parallel sweep runner and Point serialization."""

import json

import pytest

from repro.sim.parallel import Point, grid, parallel_sweep


class TestGrid:
    def test_cartesian_size(self):
        pts = grid([("escapevc", {}), ("fastpass", {"n_vcs": 2})],
                   ["uniform", "transpose"], [0.02, 0.05])
        assert len(pts) == 8

    def test_point_hashable(self):
        p = Point.make("fastpass", "uniform", 0.1, n_vcs=4)
        assert p in {p}
        assert p.scheme_kwargs == (("n_vcs", 4),)


class TestPointJson:
    def test_round_trip(self):
        p = Point.make("fastpass", "transpose", 0.12, n_vcs=4)
        assert Point.from_json(p.to_json()) == p

    def test_round_trip_through_json_text(self):
        p = Point.make_app("fastpass", "Radix", txns=100, seed=3, n_vcs=2)
        blob = json.dumps(p.to_json())
        assert Point.from_json(json.loads(blob)) == p

    def test_kwargs_order_is_stable(self):
        a = Point("x", (("a", 1), ("b", 2)), "uniform", 0.1)
        b = Point("x", (("b", 2), ("a", 1)), "uniform", 0.1)
        assert Point.from_json(a.to_json()) == Point.from_json(b.to_json())
        assert (json.dumps(a.to_json(), sort_keys=True)
                == json.dumps(b.to_json(), sort_keys=True))

    def test_meta_defaults_empty(self):
        p = Point.make("escapevc", "uniform", 0.05)
        assert p.meta == ()
        assert Point.from_json({"scheme": "escapevc",
                                "scheme_kwargs": [], "pattern": "uniform",
                                "rate": 0.05}) == p

    def test_make_stress_and_app_patterns(self):
        s = Point.make_stress("fastpass", max_cycles=1000, n_vcs=1)
        assert s.pattern == "stress:protocol"
        assert dict(s.meta)["max_cycles"] == 1000
        a = Point.make_app("spin", "FFT", txns=50)
        assert a.pattern == "app:FFT"
        assert dict(a.meta)["txns"] == 50


class TestExecution:
    def test_serial_results_in_order(self, small_cfg):
        pts = grid([("escapevc", {})], ["uniform"], [0.02, 0.05])
        results = parallel_sweep(pts, small_cfg, processes=1)
        assert len(results) == 2
        assert results[0].extra["rate"] == 0.02
        assert results[1].extra["rate"] == 0.05

    def test_parallel_matches_serial(self, small_cfg):
        pts = grid([("escapevc", {}), ("fastpass", {"n_vcs": 2})],
                   ["uniform"], [0.04])
        serial = parallel_sweep(pts, small_cfg, processes=1)
        para = parallel_sweep(pts, small_cfg, processes=2)
        for s, p in zip(serial, para):
            assert s.avg_latency == p.avg_latency
            assert s.ejected == p.ejected

    def test_single_point_short_circuits(self, small_cfg):
        pts = [Point.make("escapevc", "uniform", 0.03)]
        results = parallel_sweep(pts, small_cfg, processes=8)
        assert len(results) == 1
        assert results[0].ejected > 0


class TestSeededPoints:
    def test_make_seeded_carries_seed_in_meta(self):
        p = Point.make_seeded("fastpass", "uniform", 0.05, seed=11,
                              n_vcs=4)
        assert dict(p.meta) == {"seed": 11}
        assert dict(p.scheme_kwargs) == {"n_vcs": 4}
        q = Point.from_json(p.to_json())
        assert q == p

    def test_seed_is_part_of_identity(self):
        a = Point.make_seeded("fastpass", "uniform", 0.05, seed=1)
        b = Point.make_seeded("fastpass", "uniform", 0.05, seed=2)
        assert a != b and hash(a) != hash(b)


class TestReplicaSignature:
    def _sig(self, p):
        from repro.campaign.worker import replica_signature
        return replica_signature(p)

    def test_seed_replicas_share_a_signature(self):
        sigs = {self._sig(Point.make_seeded("escapevc", "uniform", 0.05,
                                            seed=s)) for s in (1, 2, 3)}
        assert len(sigs) == 1 and None not in sigs

    def test_rate_and_kwargs_split_signatures(self):
        a = self._sig(Point.make_seeded("fastpass", "uniform", 0.05,
                                        seed=1, n_vcs=2))
        b = self._sig(Point.make_seeded("fastpass", "uniform", 0.05,
                                        seed=1, n_vcs=4))
        c = self._sig(Point.make_seeded("fastpass", "uniform", 0.10,
                                        seed=1, n_vcs=2))
        assert len({a, b, c}) == 3

    def test_closed_loop_points_never_batch(self):
        assert self._sig(Point.make_app("escapevc", "pagerank",
                                        txns=5)) is None
        assert self._sig(Point.make_stress("escapevc")) is None

    def test_metrics_points_never_batch(self, monkeypatch):
        p = Point("escapevc", (), "uniform", 0.05,
                  (("metrics", 100), ("seed", 1)))
        assert self._sig(p) is None
        monkeypatch.setenv("REPRO_METRICS", "50")
        assert self._sig(Point.make_seeded("escapevc", "uniform", 0.05,
                                           seed=1)) is None

    def test_non_integer_metrics_env_names_the_variable(self, monkeypatch):
        monkeypatch.setenv("REPRO_METRICS", "yes")
        with pytest.raises(ValueError, match="REPRO_METRICS.*'yes'"):
            self._sig(Point.make("escapevc", "uniform", 0.05))

    def test_fault_points_batch_by_plan(self):
        from repro.fault.plan import FaultPlan
        plan = FaultPlan(rate=0.002, start=100, stop=400, seed=3)
        mk = lambda seed, pl: Point.make_fault(
            "escapevc", "uniform", 0.05, plan=pl, seed=seed)
        assert self._sig(mk(1, plan)) == self._sig(mk(2, plan))
        assert self._sig(mk(1, plan)) != self._sig(mk(1, None))
