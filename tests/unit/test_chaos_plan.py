"""Unit tests for the chaos package: seed-reproducible plans, the
transport injector's fault arithmetic, and quarantine records."""

from __future__ import annotations

import json

import pytest

from repro.chaos.plan import (CHAOS_KINDS, DUPLICATE, ChaosPlan,
                              mild_chaos)
from repro.chaos.quarantine import (field_diff, quarantine_payload,
                                    validate_quarantine,
                                    write_quarantine)
from repro.chaos.transport import ChaosInjector, _flip_bits
from repro.campaign.queue import Task
from repro.sim.parallel import Point


class TestChaosPlan:
    def test_token_round_trip(self):
        plan = mild_chaos(seed=42)
        assert ChaosPlan.from_token(plan.token()) == plan

    def test_probability_bounds_enforced(self):
        with pytest.raises(ValueError):
            ChaosPlan(drop=1.5)
        with pytest.raises(ValueError):
            ChaosPlan(drop=-0.1)
        with pytest.raises(ValueError):
            ChaosPlan(drop=0.6, reset=0.6)       # sum > 1

    def test_zero_plan_is_falsy(self):
        assert not ChaosPlan()
        assert mild_chaos()

    def test_scaled_escalates_and_stays_valid(self):
        base = mild_chaos()
        double = base.scaled(2.0)
        assert double.drop == pytest.approx(base.drop * 2)
        assert double.total() <= 1.0
        assert base.scaled(0.0).total() == 0.0
        huge = base.scaled(100.0)                # clamps + renormalizes
        assert huge.total() == pytest.approx(1.0)
        with pytest.raises(ValueError):
            base.scaled(-1.0)

    def test_seed_distinguishes_tokens(self):
        assert mild_chaos(1).token() != mild_chaos(2).token()


class TestInjectorDeterminism:
    def test_same_seed_same_salt_same_stream(self):
        a = ChaosInjector(mild_chaos(7), salt=3)
        b = ChaosInjector(mild_chaos(7), salt=3)
        draws = [a._decide("/complete") for _ in range(200)]
        assert draws == [b._decide("/complete") for _ in range(200)]
        assert any(d is not None for d in draws)

    def test_salt_separates_sibling_workers(self):
        a = ChaosInjector(mild_chaos(7), salt=1)
        b = ChaosInjector(mild_chaos(7), salt=2)
        assert [a._decide("/complete") for _ in range(200)] != \
            [b._decide("/complete") for _ in range(200)]

    def test_duplicate_only_fires_on_complete(self):
        plan = ChaosPlan(duplicate=1.0)
        inj = ChaosInjector(plan, salt=0)
        assert all(inj._decide("/lease") is None for _ in range(50))
        assert inj._decide("/complete") == DUPLICATE

    def test_counts_start_at_zero_for_every_kind(self):
        inj = ChaosInjector(mild_chaos())
        assert set(inj.counts) == set(CHAOS_KINDS)
        assert all(v == 0 for v in inj.counts.values())

    def test_flip_bits_always_changes_the_body(self):
        import random
        rng = random.Random(0)
        for _ in range(20):
            body = b'{"a": 1, "b": [2, 3]}'
            assert _flip_bits(body, rng) != body


def _task(tid: str = "t0", redundancy: int = 2) -> Task:
    return Task(tid=tid,
                items=[(tid, Point.make("fastpass", "uniform", 0.02))],
                cfg=None, attempt=2, redundancy=redundancy)


def _cands(a_latency: float, b_latency: float) -> list[dict]:
    def res(lat):
        return {"scheme": "fastpass", "avg_latency": lat,
                "extra": {"p50": lat / 2}}
    return [{"worker": "wa", "results": [res(a_latency)]},
            {"worker": "wb", "results": [res(b_latency)]}]


class TestQuarantine:
    def test_field_diff_names_the_disagreeing_fields(self):
        cands = _cands(10.0, 99.0)
        diff = field_diff(cands[0]["results"], cands[1]["results"])
        fields = {d["field"] for d in diff}
        assert fields == {"avg_latency", "extra.p50"}
        assert all(d["index"] == 0 for d in diff)

    def test_field_diff_length_mismatch(self):
        diff = field_diff([{"a": 1}], [])
        assert diff == [{"index": -1, "field": "__len__",
                         "values": [1, 0]}]

    def test_payload_validates_and_diffs(self):
        payload = quarantine_payload(_task(), _cands(1.0, 2.0),
                                     "mismatch")
        validate_quarantine(payload)
        assert payload["workers"] == ["wa", "wb"]
        assert payload["diff"]
        with pytest.raises(ValueError):
            quarantine_payload(_task(), _cands(1.0, 2.0), "nonsense")

    def test_validate_rejects_missing_keys(self):
        payload = quarantine_payload(_task(), _cands(1.0, 2.0),
                                     "mismatch")
        del payload["diff"]
        with pytest.raises(ValueError, match="diff"):
            validate_quarantine(payload)

    def test_write_quarantine_round_trips(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path))
        payload = quarantine_payload(_task(), _cands(1.0, 2.0),
                                     "mismatch")
        path = write_quarantine(payload)
        assert path.parent == tmp_path / "quarantine"
        validate_quarantine(json.loads(path.read_text()))
        # A second record for the same task must not collide.
        other = write_quarantine(payload)
        assert other != path
