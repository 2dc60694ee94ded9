"""Declarative scenarios: trace record/replay and irregular-topology
points (DESIGN §16).  A scenario's spec — the dataclasses and the
built-in library, re-exported here — lives in :mod:`repro.traffic.spec`,
and it runs through the one open-loop source,
:class:`~repro.traffic.synthetic.SyntheticTraffic`."""

from repro.scenario.irregular import build_graph, run_irregular
from repro.scenario.runner import record_scenario, replay_trace
from repro.scenario.trace import (TRACE_SCHEMA, TraceRecorder, TraceReplay,
                                  TraceSchemaError, load_trace)
from repro.traffic.spec import (SCENARIOS, BurstSpec, PhaseSpec,
                                ScenarioSpec, get_scenario)

__all__ = [
    "BurstSpec", "PhaseSpec", "ScenarioSpec", "SCENARIOS", "get_scenario",
    "TRACE_SCHEMA", "TraceRecorder", "TraceReplay", "TraceSchemaError",
    "load_trace",
    "record_scenario", "replay_trace",
    "build_graph", "run_irregular",
]
