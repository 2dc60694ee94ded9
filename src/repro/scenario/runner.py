"""Trace recording and replay on the one open-loop run body,
:func:`repro.sim.runner.run_open_loop` — the same construction order and
``extra`` keys as every synthetic and scenario point, so a recorded run,
its replay and the unrecorded point produce identical payloads.
"""

from __future__ import annotations

from pathlib import Path

from repro.config import RunResult, SimConfig
from repro.scenario.trace import TraceRecorder, TraceReplay
from repro.schemes.base import Scheme, get_scheme
from repro.sim.engine import Simulation
from repro.sim.runner import run_open_loop
from repro.sim.workload import Scenario
from repro.traffic.spec import ScenarioSpec


def record_scenario(scheme: Scheme | str, spec: ScenarioSpec,
                    cfg: SimConfig, out: str | Path,
                    seed: int | None = None,
                    traffic_stop: int | None = None
                    ) -> tuple[RunResult, Path]:
    """Run a scenario once while recording its generation stream, and
    write the versioned trace artifact to ``out``.

    Recording is a bus subscription — result-neutral — so the returned
    result equals the unrecorded run bit for bit, and replaying the
    trace reproduces both (the replay contract, DESIGN §16).
    """
    if isinstance(scheme, str):
        scheme = get_scheme(scheme)
    use_seed = cfg.seed if seed is None else seed
    traffic = Scenario(spec).traffic(use_seed, traffic_stop)
    sim = Simulation(cfg, scheme, traffic)
    rec = TraceRecorder(sim.net, label=spec.name, seed=use_seed)
    res = run_open_loop(sim)
    rec.detach()
    path = rec.write(out, scenario=spec.name, scenario_sha=spec.sha(),
                     rate=traffic.rate, scheme=scheme.label)
    return res, path


def replay_trace(scheme: Scheme | str, trace: str | Path | TraceReplay,
                 cfg: SimConfig) -> RunResult:
    """Replay a recorded trace as the run's traffic source."""
    if isinstance(scheme, str):
        scheme = get_scheme(scheme)
    traffic = trace if isinstance(trace, TraceReplay) \
        else TraceReplay.from_file(trace)
    return run_open_loop(Simulation(cfg, scheme, traffic))
