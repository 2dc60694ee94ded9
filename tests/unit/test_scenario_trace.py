"""Unit tests for trace record/replay artifacts and schema handling."""

import json
import re

import pytest

from repro.config import SimConfig
from repro.scenario.runner import record_scenario, replay_trace
from repro.scenario.trace import (TRACE_SCHEMA, TraceReplay,
                                  TraceSchemaError, load_trace)
from repro.traffic.spec import PhaseSpec, ScenarioSpec


def small_spec():
    return ScenarioSpec("tiny", (PhaseSpec(duration=256, rate=0.05),))


def cfg4():
    return SimConfig(rows=4, cols=4, warmup_cycles=50, measure_cycles=200,
                     drain_cycles=800, watchdog_cycles=600,
                     fastpass_slot_cycles=64)


@pytest.fixture
def trace_path(tmp_path):
    _res, path = record_scenario("fastpass", small_spec(), cfg4(),
                                 tmp_path / "t.jsonl", seed=7)
    return path


class TestArtifact:
    def test_header_fields(self, trace_path):
        header, events = load_trace(trace_path)
        assert header["format"] == "repro-trace"
        assert header["schema"] == TRACE_SCHEMA
        assert header["mesh"] == [4, 4]
        assert header["label"] == "tiny"
        assert header["seed"] == 7
        assert header["scenario"] == "tiny"
        assert header["events"] == len(events)
        assert events, "recording captured nothing"

    def test_events_sorted_by_generation_order(self, trace_path):
        _header, events = load_trace(trace_path)
        cycles = [e[0] for e in events]
        assert cycles == sorted(cycles)

    def test_round_trip_values(self, trace_path):
        _header, events = load_trace(trace_path)
        for cycle, src, dst, mclass in events:
            assert 0 <= src < 16 and 0 <= dst < 16 and src != dst
            assert cycle >= 0 and 0 <= mclass < 6


class TestSchemaErrors:
    def test_schema_bump_fails_loudly(self, trace_path, tmp_path):
        lines = trace_path.read_text().splitlines()
        header = json.loads(lines[0])
        header["schema"] = TRACE_SCHEMA + 1
        bumped = tmp_path / "bumped.jsonl"
        bumped.write_text("\n".join([json.dumps(header)] + lines[1:])
                          + "\n")
        with pytest.raises(TraceSchemaError) as err:
            load_trace(bumped)
        msg = str(err.value)
        assert f"schema {TRACE_SCHEMA + 1}" in msg
        assert f"schema {TRACE_SCHEMA}" in msg

    def test_not_a_trace_file(self, tmp_path):
        path = tmp_path / "x.jsonl"
        path.write_text('{"something": "else"}\n')
        with pytest.raises(TraceSchemaError, match="format marker"):
            load_trace(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        with pytest.raises(TraceSchemaError, match="empty"):
            load_trace(path)

    def test_garbage_header(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text("not json at all\n")
        with pytest.raises(TraceSchemaError, match="unreadable header"):
            load_trace(path)

    def test_truncated_trace_detected(self, trace_path, tmp_path):
        lines = trace_path.read_text().splitlines()
        cut = tmp_path / "cut.jsonl"
        cut.write_text("\n".join(lines[:-3]) + "\n")
        with pytest.raises(TraceSchemaError, match="truncated"):
            load_trace(cut)

    def test_bad_event_line(self, trace_path, tmp_path):
        """Every event line is four ints, a cycle >= 0 and a valid
        message class; anything else names its ``path:line`` — a negative
        cycle would load and never replay, class 9 would fail mid-run."""
        lines = trace_path.read_text().splitlines()
        bad = tmp_path / "badev.jsonl"
        for event in ("[1, 2]", "5", "[1,2,3,null]", '[1,2,3,"x"]',
                      "[-5,1,2,0]", "[3,1,2,9]", "[1,2,3,true]",
                      "[1.0,2,3,0]", "[1,2,3"):
            lines[1] = event
            bad.write_text("\n".join(lines) + "\n")
            with pytest.raises(TraceSchemaError,
                               match=re.escape(f"{bad}:2: bad event")):
                load_trace(bad)


class TestReplaySource:
    def test_replay_reproduces_recorded_run(self, tmp_path):
        res, path = record_scenario("fastpass", small_spec(), cfg4(),
                                    tmp_path / "t.jsonl", seed=11)
        rep = replay_trace("fastpass", path, cfg4())
        assert rep.ejected == res.ejected
        assert rep.avg_latency == res.avg_latency
        assert rep.throughput == res.throughput

    def test_mesh_mismatch_rejected(self, trace_path):
        replay = TraceReplay.from_file(trace_path)
        big = cfg4().with_(rows=8, cols=8)
        with pytest.raises(ValueError, match="4x4 mesh"):
            replay_trace("fastpass", replay, big)

    def test_out_of_range_event_rejected(self, tmp_path):
        header = {"format": "repro-trace", "schema": TRACE_SCHEMA,
                  "mesh": [4, 4], "label": "x", "events": 1}
        path = tmp_path / "oob.jsonl"
        path.write_text(json.dumps(header) + "\n[0, 0, 99, 0]\n")
        with pytest.raises(ValueError, match="out of range"):
            replay_trace("fastpass", path, cfg4())

    def test_pattern_identity(self, trace_path):
        replay = TraceReplay.from_file(trace_path)
        assert replay.pattern == "trace:tiny"
        assert replay.rate > 0
