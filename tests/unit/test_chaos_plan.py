"""Unit tests for the chaos package: seed-reproducible plans and the
transport injector's fault arithmetic."""

from __future__ import annotations

import pytest

from repro.chaos.plan import (CHAOS_KINDS, DUPLICATE, ChaosPlan,
                              mild_chaos)
from repro.chaos.transport import ChaosInjector, _flip_bits


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

