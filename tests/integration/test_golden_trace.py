"""Golden-trace regression: a committed trace fixture must replay to
pinned statistics on every engine.

The fixture (``tests/data/golden_trace.jsonl``) was recorded once from
the ``golden`` two-phase scenario (bursty uniform then transpose) on a
4x4 FastPass mesh, seed 2026.  Any drift in router arbitration, traffic
staging, or the trace reader shows up here as a hard number mismatch —
and a trace schema bump must fail loudly, not replay garbage.
"""

import json
from pathlib import Path

import pytest

from repro.config import SimConfig
from repro.sim.runner import replay_trace
from repro.traffic.trace import TraceSchemaError, load_trace

GOLDEN = Path(__file__).resolve().parents[1] / "data" / "golden_trace.jsonl"

# Pinned at recording time — do not "refresh" these to make a failure
# pass; a change here means replay semantics changed.
PINNED_DELIVERED = 95
PINNED_AVG_LATENCY = 7.661538461538462
PINNED_THROUGHPUT = 0.015869140625


def _cfg():
    # Inline and frozen: the golden numbers are only meaningful against
    # exactly this window geometry.
    return SimConfig(rows=4, cols=4, warmup_cycles=64, measure_cycles=256,
                     drain_cycles=800, fastpass_slot_cycles=64)


def test_fixture_is_well_formed():
    header, events = load_trace(GOLDEN)
    assert header["scenario"] == "golden"
    assert header["mesh"] == [4, 4]
    assert header["seed"] == 2026
    assert len(events) == header["events"] > 0


@pytest.mark.parametrize("engine", ["active", "naive"])
def test_replay_reproduces_pinned_stats(engine):
    res = replay_trace("fastpass", GOLDEN, _cfg().with_(engine=engine))
    assert res.ejected == PINNED_DELIVERED
    assert res.avg_latency == PINNED_AVG_LATENCY
    assert res.throughput == PINNED_THROUGHPUT


def test_schema_bump_fails_loudly(tmp_path):
    lines = GOLDEN.read_text().splitlines()
    header = json.loads(lines[0])
    header["schema"] += 1
    bumped = tmp_path / "golden_v2.jsonl"
    bumped.write_text("\n".join([json.dumps(header)] + lines[1:]) + "\n")
    with pytest.raises(TraceSchemaError, match="not supported"):
        replay_trace("fastpass", bumped, _cfg())
