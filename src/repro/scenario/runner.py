"""Scenario-level runners: scalar runs, trace recording, trace replay.

These mirror :func:`repro.sim.runner.run_point` exactly — same
construction order, same ``extra`` keys — because ``ReplicaBatch.run``
reconstructs those extras from the traffic source and the results must
be bit-identical whichever execution path a campaign picks.
"""

from __future__ import annotations

from pathlib import Path

from repro.config import RunResult, SimConfig
from repro.scenario.source import ScenarioTraffic
from repro.scenario.spec import ScenarioSpec
from repro.scenario.trace import TraceRecorder, TraceReplay
from repro.schemes.base import Scheme, get_scheme
from repro.sim.engine import Simulation


def run_scenario(scheme: Scheme | str, spec: ScenarioSpec, cfg: SimConfig,
                 seed: int | None = None,
                 traffic_stop: int | None = None,
                 metrics: bool | int = False) -> RunResult:
    """One (scheme, scenario) simulation on the standard seam.

    Only ``extra["rate"]``/``extra["pattern"]`` are added (mirroring
    ``run_point`` and ``ReplicaBatch.run``) so scalar and batched
    executions of the same scenario point produce identical payloads.
    """
    if isinstance(scheme, str):
        scheme = get_scheme(scheme)
    traffic = ScenarioTraffic(spec,
                              seed=cfg.seed if seed is None else seed,
                              stop=traffic_stop)
    sim = Simulation(cfg, scheme, traffic)
    obs = None
    if metrics:
        from repro.obs import attach_for_run
        obs = attach_for_run(sim.net, metrics)
    res = sim.run()
    res.extra["rate"] = traffic.rate
    res.extra["pattern"] = traffic.pattern
    res.engine_used = sim.engine_used
    if obs is not None:
        obs.archive_run(res, f"{scheme.label}_scenario_{spec.name}")
    return res


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
    traffic = ScenarioTraffic(spec, seed=use_seed, stop=traffic_stop)
    sim = Simulation(cfg, scheme, traffic)
    rec = TraceRecorder(sim.net, label=spec.name, seed=use_seed)
    res = sim.run()
    rec.detach()
    res.extra["rate"] = traffic.rate
    res.extra["pattern"] = traffic.pattern
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
    sim = Simulation(cfg, scheme, traffic)
    res = sim.run()
    res.extra["rate"] = traffic.rate
    res.extra["pattern"] = traffic.pattern
    res.engine_used = sim.engine_used
    return res
