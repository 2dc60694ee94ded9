"""The frozen wire form of a campaign point.

``Point.to_json`` is what cache keys hash, what the campaign store keeps
and what fabric lease bodies carry, so a point built today must encode
exactly as the same point was first recorded in
``tests/data/point_json.json``: one row per constructor and optional
field in use.  Keys are taken under a fixed salt and config, so a row
pins the key formula and the wire form together while the code-version
salt is free to move.
"""

import json
from pathlib import Path

import pytest

from repro.campaign.cache import point_key
from repro.config import SimConfig
from repro.experiments.table1 import stress_point
from repro.fault.plan import FaultPlan, fault_storm, link_cut
from repro.network.topology import PORT_E
from repro.sim.parallel import Point
from repro.sim.workload import Irregular, Scenario, Synthetic
from repro.traffic.spec import get_scenario

FIXTURE = Path(__file__).resolve().parents[1] / "data" / "point_json.json"
CFG = SimConfig(rows=4, cols=4)
SALT = "fixed"

CUT = link_cut(5, PORT_E, at=200)
STORM = fault_storm(0.002, 100, 400, seed=3)
BURSTY = get_scenario("bursty")

#: row id -> the point, built the way the code that emits it does
POINTS = {
    "synthetic": lambda: Point("escapevc", Synthetic("transpose", 0.05)),
    "synthetic_kwargs": lambda: Point("fastpass", Synthetic("uniform", 0.1),
                                      {"n_vcs": 2}),
    "seeded": lambda: Point.make_seeded("fastpass", "uniform", 0.05,
                                        seed=11, n_vcs=4),
    "fault_plan_stop": lambda: Point(
        "escapevc", Synthetic("uniform", 0.05), faults=CUT,
        traffic_stop=300),
    "fault_noplan_stop": lambda: Point(
        "fastpass", Synthetic("uniform", 0.05), {"n_vcs": 2},
        faults=FaultPlan(), traffic_stop=300),
    "fault_plan_seed": lambda: Point(
        "escapevc", Synthetic("uniform", 0.05), seed=2, faults=STORM),
    "fault_plan_stop_seed": lambda: Point(
        "baseline", Synthetic("shuffle", 0.08), seed=4, faults=STORM,
        traffic_stop=500),
    "scenario": lambda: Point("escapevc", Scenario(BURSTY)),
    "scenario_seed": lambda: Point("fastpass", Scenario(BURSTY),
                                   {"n_vcs": 2}, seed=1),
    "scenario_scaled_seed": lambda: Point(
        "spin", Scenario(BURSTY.scaled(1.5)), seed=2),
    "scenario_seed_faults_stop": lambda: Point(
        "escapevc", Scenario(get_scenario("ramp")), seed=3, faults=CUT,
        traffic_stop=400),
    "app": lambda: Point.make_app("fastpass", "Radix", txns=24, n_vcs=4),
    "app_explicit": lambda: Point.make_app("escapevc", "FFT", txns=10,
                                           seed=3, max_cycles=5000),
    "stress": lambda: stress_point("escapevc", {}),
    "stress_kwargs": lambda: stress_point("fastpass", {"n_vcs": 1},
                                          max_cycles=120000),
    "irregular": lambda: Point("fastpass", Irregular("ring:6", 4)),
    "irregular_partitions": lambda: Point(
        "fastpass", Irregular("torus:3x4", 2)),
}


def _rows() -> dict:
    with open(FIXTURE) as fh:
        return json.load(fh)


def test_fixture_covers_every_row():
    assert sorted(_rows()) == sorted(POINTS)


@pytest.mark.parametrize("name", sorted(POINTS))
def test_wire_form_is_frozen(name):
    row = _rows()[name]
    point = POINTS[name]()
    assert point.to_json() == row["json"]
    assert point_key(point, CFG, salt=SALT) == row["key"]
    assert Point.from_json(row["json"]) == point
