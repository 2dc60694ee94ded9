"""Declarative scenarios: phased traffic specs, trace record/replay,
irregular-topology points (DESIGN §16)."""

from repro.scenario.irregular import build_graph, run_irregular
from repro.scenario.runner import (record_scenario, replay_trace,
                                   run_scenario)
from repro.scenario.source import ScenarioTraffic
from repro.scenario.spec import (SCENARIOS, BurstSpec, PhaseSpec,
                                 ScenarioSpec, get_scenario)
from repro.scenario.trace import (TRACE_SCHEMA, TraceRecorder, TraceReplay,
                                  TraceSchemaError, load_trace)

__all__ = [
    "BurstSpec", "PhaseSpec", "ScenarioSpec", "SCENARIOS", "get_scenario",
    "ScenarioTraffic",
    "TRACE_SCHEMA", "TraceRecorder", "TraceReplay", "TraceSchemaError",
    "load_trace",
    "run_scenario", "record_scenario", "replay_trace",
    "build_graph", "run_irregular",
]
