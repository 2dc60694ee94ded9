"""The generation-stream fixture: what every traffic source emits.

``tests/data/traffic_streams.json`` pins, per row, the sha256 of the
``(cycle, src, dst, mclass)`` stream a source hands to the NIs over its
first 2048 cycles: all six Table II patterns at 0.02 and 0.30 on 8x8,
uniform on 16x16, uniform with a generation ``stop``, the four built-in
scenarios and the misaligned spec of ``test_scenario_campaign.py``
(phase boundaries off the 256-cycle refill quantum).  A change to the
fill — its RNG draw order, its destination tables, its refill clock —
changes a row.  Streams are read off the fills on a stub network
(``test_scenario_source.fill_stream``), not a simulation; the ``stop``
row goes through ``generate`` (``generated_stream``), which is where a
stop takes effect.

Regenerate only from a commit whose streams are known good::

    PYTHONPATH=src python -m tests.unit.test_traffic_streams
"""

from __future__ import annotations

import hashlib
import json
from functools import partial
from pathlib import Path

import pytest

from repro.sim.workload import Scenario
from repro.traffic.spec import SCENARIOS
from repro.traffic.synthetic import PATTERNS, SyntheticTraffic
from tests.integration.test_scenario_campaign import MISALIGNED
from tests.unit.test_scenario_source import fill_stream, generated_stream

FIXTURE = Path(__file__).resolve().parents[1] / "data" / \
    "traffic_streams.json"
CYCLES = 2048
SEED = 5


def sources() -> dict:
    """Row name -> (unbound source factory, mesh side)."""
    out = {}
    for pattern in PATTERNS:
        for rate in (0.02, 0.30):
            out[f"8x8/{pattern}/{rate:g}"] = (
                partial(SyntheticTraffic, pattern, rate, seed=SEED), 8)
    out["16x16/uniform/0.1"] = (
        partial(SyntheticTraffic, "uniform", 0.10, seed=SEED), 16)
    out["8x8/uniform/0.3/stop700"] = (
        partial(SyntheticTraffic, "uniform", 0.30, seed=SEED, stop=700), 8)
    for spec in (*SCENARIOS.values(), MISALIGNED):
        out[f"8x8/scenario/{spec.name}"] = (
            partial(Scenario(spec).traffic, SEED), 8)
    return out


def stream_sha(row: str) -> str:
    make, side = sources()[row]
    t = make()
    read = fill_stream if t.stop is None else generated_stream
    stream = read(t, CYCLES, side, side)
    blob = json.dumps(stream, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()


def _fixture() -> dict:
    return json.loads(FIXTURE.read_text())


def test_fixture_covers_every_row():
    assert sorted(_fixture()) == sorted(sources())


@pytest.mark.parametrize("row", sorted(sources()))
def test_stream_matches_fixture(row):
    assert stream_sha(row) == _fixture()[row], \
        f"{row}: generation stream changed"


if __name__ == "__main__":
    FIXTURE.write_text(json.dumps({row: stream_sha(row)
                                   for row in sorted(sources())},
                                  indent=1, sort_keys=True) + "\n")
    print(f"wrote {FIXTURE}")
