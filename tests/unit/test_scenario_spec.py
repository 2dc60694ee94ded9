"""Unit tests for the declarative scenario DSL (spec layer)."""

import json

import pytest

from repro.traffic.spec import (SCENARIOS, BurstSpec, PhaseSpec,
                                 ScenarioSpec, get_scenario)


def two_phase():
    return ScenarioSpec("two", (
        PhaseSpec(duration=256, pattern="uniform", rate=0.05),
        PhaseSpec(duration=512, pattern="transpose", rate=0.10),
    ))


class TestValidation:
    def test_empty_phases_rejected(self):
        with pytest.raises(ValueError, match="at least one phase"):
            ScenarioSpec("empty", ())

    def test_bad_name_rejected(self):
        with pytest.raises(ValueError, match="name"):
            ScenarioSpec("has space", (PhaseSpec(duration=10),))
        with pytest.raises(ValueError, match="name"):
            ScenarioSpec("", (PhaseSpec(duration=10),))

    def test_bad_duration(self):
        with pytest.raises(ValueError, match="duration"):
            PhaseSpec(duration=0)

    def test_bad_pattern(self):
        with pytest.raises(ValueError, match="pattern"):
            PhaseSpec(duration=10, pattern="zigzag")

    def test_bad_rate(self):
        with pytest.raises(ValueError, match="rate"):
            PhaseSpec(duration=10, rate=1.5)

    def test_hotspot_frac_needs_hotspots(self):
        with pytest.raises(ValueError, match="hotspot"):
            PhaseSpec(duration=10, hotspot_frac=0.5)

    def test_bad_hotspot_weight(self):
        with pytest.raises(ValueError, match="weight"):
            PhaseSpec(duration=10, hotspot_frac=0.5,
                      hotspots=((0, 0.0),))

    def test_negative_hotspot_node(self):
        with pytest.raises(ValueError, match="negative"):
            PhaseSpec(duration=10, hotspot_frac=0.5,
                      hotspots=((-1, 1.0),))

    def test_bad_burst(self):
        with pytest.raises(ValueError, match="dwell"):
            BurstSpec(on_cycles=0, off_cycles=10)
        with pytest.raises(ValueError, match="off_scale"):
            BurstSpec(on_cycles=4, off_cycles=4, off_scale=2.0)

    def test_unsupported_schema_rejected(self):
        with pytest.raises(ValueError, match="schema 99"):
            ScenarioSpec("x", (PhaseSpec(duration=10),), schema=99)


class TestPhaseClock:
    def test_total_and_boundaries(self):
        spec = two_phase()
        assert spec.total_cycles == 768
        assert spec.boundaries() == [0, 256, 768]

    def test_window_at_within_first_period(self):
        spec = two_phase()
        assert spec.window_at(0) == (0, 0, 256)
        assert spec.window_at(255) == (0, 0, 256)
        assert spec.window_at(256) == (1, 256, 768)
        assert spec.window_at(767) == (1, 256, 768)

    def test_window_wraps_periodically(self):
        spec = two_phase()
        assert spec.window_at(768) == (0, 768, 1024)
        assert spec.window_at(768 + 300) == (1, 1024, 1536)

    def test_window_contains_cycle(self):
        spec = two_phase()
        for cycle in (0, 17, 255, 256, 767, 768, 5000):
            _i, lo, hi = spec.window_at(cycle)
            assert lo <= cycle < hi

    def test_negative_cycle_rejected(self):
        with pytest.raises(ValueError):
            two_phase().window_at(-1)


class TestRates:
    def test_mean_rate_duration_weighted(self):
        spec = two_phase()
        expect = (256 * 0.05 + 512 * 0.10) / 768
        assert spec.mean_rate() == pytest.approx(expect)

    def test_burst_duty(self):
        b = BurstSpec(on_cycles=64, off_cycles=192, off_scale=0.1)
        assert b.duty == pytest.approx((64 + 19.2) / 256)
        p = PhaseSpec(duration=256, rate=0.2, burst=b)
        assert p.mean_rate == pytest.approx(0.2 * b.duty)

    def test_scaled(self):
        spec = two_phase().scaled(2.0)
        assert spec.phases[0].rate == pytest.approx(0.10)
        assert spec.phases[1].rate == pytest.approx(0.20)
        # capped at 1.0
        capped = two_phase().scaled(100.0)
        assert all(p.rate == 1.0 for p in capped.phases)
        with pytest.raises(ValueError):
            two_phase().scaled(0.0)


class TestJson:
    def test_round_trip_losless(self):
        spec = ScenarioSpec("rt", (
            PhaseSpec(duration=128, pattern="shuffle", rate=0.07,
                      hotspot_frac=0.3, hotspots=((2, 1.5), (7, 3.0)),
                      burst=BurstSpec(8, 24, 0.25)),
            PhaseSpec(duration=64),
        ))
        assert ScenarioSpec.from_json(spec.to_json()) == spec

    def test_token_round_trip(self):
        for spec in SCENARIOS.values():
            assert ScenarioSpec.from_token(spec.token()) == spec

    def test_token_is_canonical_json(self):
        tok = SCENARIOS["bursty"].token()
        assert json.loads(tok)["name"] == "bursty"
        assert " " not in tok

    def test_token_changes_with_content(self):
        spec = two_phase()
        edited = spec.scaled(1.1)
        assert spec.token() != edited.token()
        assert spec.sha() != edited.sha()

    def test_phase_dicts_coerced(self):
        spec = ScenarioSpec("d", (
            {"duration": 32, "rate": 0.02,
             "burst": {"on_cycles": 4, "off_cycles": 4}},))
        assert isinstance(spec.phases[0], PhaseSpec)
        assert isinstance(spec.phases[0].burst, BurstSpec)


class TestLibrary:
    def test_library_hotspots_fit_4x4(self):
        for spec in SCENARIOS.values():
            for phase in spec.phases:
                for node, _w in phase.hotspots:
                    assert node < 16

    def test_get_scenario_by_name(self):
        assert get_scenario("bursty") is SCENARIOS["bursty"]

    def test_get_scenario_from_json_file(self, tmp_path):
        path = tmp_path / "custom.json"
        spec = two_phase()
        path.write_text(json.dumps(spec.to_json()))
        assert get_scenario(path) == spec

    def test_get_scenario_unknown(self):
        with pytest.raises(ValueError, match="unknown scenario"):
            get_scenario("nope")
