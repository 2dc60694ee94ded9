"""Unit tests for the configuration objects."""

import pytest

from repro.config import RunResult, SimConfig


class TestSimConfig:
    def test_defaults_match_table2(self):
        cfg = SimConfig()
        assert (cfg.rows, cfg.cols) == (8, 8)
        assert cfg.n_vns == 6
        assert cfg.n_vcs == 2
        assert cfg.buffer_flits == 5
        assert cfg.router_latency == 1
        assert cfg.spin_detection_threshold == 128
        assert cfg.swap_duty_cycles == 1000
        assert cfg.drain_period_cycles == 64000

    def test_derived_quantities(self):
        cfg = SimConfig(rows=8, cols=8)
        assert cfg.n_routers == 64
        assert cfg.diameter == 14
        assert cfg.n_inputs == 5
        assert cfg.total_vcs == 12

    def test_fastpass_slot_formula(self):
        """Qn 5: K = (2 x #Hops) x #Inputs x #VCs."""
        cfg = SimConfig(rows=8, cols=8, n_vns=1, n_vcs=4)
        assert cfg.fastpass_slot() == 2 * 14 * 5 * 4

    def test_fastpass_slot_override(self):
        cfg = SimConfig(fastpass_slot_cycles=99)
        assert cfg.fastpass_slot() == 99

    def test_with_replaces_fields(self):
        cfg = SimConfig().with_(rows=4, cols=4, n_vcs=3)
        assert cfg.rows == 4 and cfg.n_vcs == 3
        assert cfg.n_vns == 6            # untouched

    def test_frozen(self):
        with pytest.raises(Exception):
            SimConfig().rows = 3

    def test_validation_rejects_tiny_mesh(self):
        with pytest.raises(ValueError):
            SimConfig(rows=1, cols=8)

    def test_validation_rejects_zero_vcs(self):
        with pytest.raises(ValueError):
            SimConfig(n_vcs=0)

    def test_validation_rejects_negative_windows(self):
        with pytest.raises(ValueError):
            SimConfig(measure_cycles=-1)

    def test_validation_rejects_zero_slot(self):
        with pytest.raises(ValueError):
            SimConfig(fastpass_slot_cycles=0)

    @pytest.mark.parametrize("value", [0, -1])
    @pytest.mark.parametrize("field_name", [
        "swap_duty_cycles", "pitstop_token_cycles", "drain_period_cycles"])
    def test_validation_rejects_hook_period_below_one(self, field_name,
                                                      value):
        with pytest.raises(ValueError, match=field_name):
            SimConfig(**{field_name: value})

    @pytest.mark.parametrize("field_name", [
        "mshr_regen_cycles", "inj_queue_pkts", "ej_queue_pkts"])
    def test_validation_rejects_unrunnable_zero(self, field_name):
        """At 0 a FastPass run cannot schedule its MSHR regeneration, and
        zero-deep queues inject or eject nothing without an error."""
        with pytest.raises(ValueError, match=field_name):
            SimConfig(**{field_name: 0})

    def test_engine_names_validated(self):
        for name in ("active", "naive"):
            assert SimConfig(engine=name).engine == name
        with pytest.raises(ValueError, match="'active', 'naive'"):
            SimConfig(engine="soa")


class TestRunResult:
    def test_defaults(self):
        res = RunResult(scheme="x")
        assert res.ejected == 0
        assert res.avg_latency != res.avg_latency   # NaN
        assert not res.deadlocked
        assert res.extra == {}

    def test_extra_is_per_instance(self):
        a, b = RunResult(scheme="a"), RunResult(scheme="b")
        a.extra["k"] = 1
        assert "k" not in b.extra
