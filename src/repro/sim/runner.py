"""High-level experiment runners: latency sweeps and saturation search."""

from __future__ import annotations

from pathlib import Path

from repro.config import RunResult, SimConfig
from repro.schemes.base import Scheme, get_scheme
from repro.sim.engine import Simulation
from repro.traffic.spec import ScenarioSpec
from repro.traffic.synthetic import SyntheticTraffic


def run_point(scheme: Scheme | str, pattern: str, rate: float,
              cfg: SimConfig, seed: int | None = None,
              traffic_stop: int | None = None,
              metrics: bool | int = False) -> RunResult:
    """One (scheme, pattern, injection-rate) simulation."""
    if isinstance(scheme, str):
        scheme = get_scheme(scheme)
    traffic = SyntheticTraffic(pattern, rate,
                               seed=cfg.seed if seed is None else seed,
                               stop=traffic_stop)
    return run_open_loop(Simulation(cfg, scheme, traffic), metrics=metrics)


def run_open_loop(sim: Simulation, metrics: bool | int = False) -> RunResult:
    """The one open-loop run body: synthetic and scenario points, trace
    recording and replay all end here.

    ``metrics`` turns on the observability subsystem for this run: True
    attaches the standard metric set, a positive integer additionally
    samples the gauge time series every that many cycles.  The snapshot
    is written under ``results/metrics/`` and its path (plus the headline
    counters) recorded in ``res.extra["metrics"]`` — results stay
    bit-identical either way (observability is result-neutral).
    """
    obs = None
    if metrics:
        from repro.obs import attach_for_run
        obs = attach_for_run(sim.net, metrics)
    res = stamp(sim, sim.run())
    if obs is not None:
        t = sim.traffic
        obs.archive_run(res, f"{sim.scheme.label}_{t.pattern}_r{t.rate:g}"
                        .replace(":", "_"))
    return res


def record_scenario(scheme: Scheme | str, spec: ScenarioSpec,
                    cfg: SimConfig, out: str | Path,
                    seed: int | None = None,
                    traffic_stop: int | None = None
                    ) -> tuple[RunResult, Path, list]:
    """Run a scenario once while recording its generation stream, and
    write the versioned trace artifact to ``out``.  Returns the result,
    the path and the recorded ``(cycle, src, dst, mclass)`` events.

    Recording is a bus subscription — result-neutral — so the returned
    result equals the unrecorded run bit for bit, and replaying the
    trace reproduces both (the replay contract, DESIGN §16).
    """
    from repro.obs.events import EventLog
    from repro.sim.workload import Scenario
    from repro.traffic.trace import write_trace
    if isinstance(scheme, str):
        scheme = get_scheme(scheme)
    use_seed = cfg.seed if seed is None else seed
    traffic = Scenario(spec).traffic(use_seed, traffic_stop)
    sim = Simulation(cfg, scheme, traffic)
    log = EventLog(sim.net, ("generated",))
    res = run_open_loop(sim)
    log.detach()
    events = [(cycle, f["src"], f["dst"], f["mclass"])
              for cycle, _pid, _kind, f in log.records]
    header = {"mesh": [cfg.rows, cfg.cols], "label": spec.name,
              "seed": use_seed, "scenario": spec.name,
              "scenario_sha": spec.sha(), "rate": traffic.rate,
              "scheme": scheme.label}
    return res, write_trace(out, header, events), events


def replay_trace(scheme: Scheme | str, trace, cfg: SimConfig) -> RunResult:
    """Replay a recorded trace — a path or a
    :class:`~repro.traffic.trace.TraceReplay` — as the run's traffic
    source."""
    from repro.traffic.trace import TraceReplay
    if isinstance(scheme, str):
        scheme = get_scheme(scheme)
    traffic = trace if isinstance(trace, TraceReplay) \
        else TraceReplay.from_file(trace)
    return run_open_loop(Simulation(cfg, scheme, traffic))


def stamp(sim: Simulation, res: RunResult) -> RunResult:
    """What an open-loop result carries beyond the kernel's fields: the
    traffic's ``extra["rate"]`` / ``extra["pattern"]``, and the engine
    that drove it — a plain attribute, NOT a RunResult field or extra
    entry: results and cache keys must stay engine-blind."""
    res.extra["rate"] = sim.traffic.rate
    res.extra["pattern"] = sim.traffic.pattern
    res.engine_used = sim.engine_used
    return res


def run_replicas(scheme: str, workload, cfg: SimConfig, seeds,
                 scheme_kwargs: dict | None = None,
                 traffic_stop: int | None = None) -> list[RunResult]:
    """Run one open-loop point under several seeds as one seed fold.

    ``workload`` is a :class:`~repro.sim.workload.OpenLoop` (a
    ``Synthetic`` or a ``Scenario``).  Each returned :class:`RunResult`
    is bit-identical to the scalar run with that seed (proven by the
    differential tests); the fold is a unit of campaign execution, not
    an optimisation.  ``scheme`` is a registry name: every replica needs
    its own scheme instance, so an already-built :class:`Scheme` object
    cannot be shared the way ``run_point`` accepts one.
    """
    from repro.sim.batch.engine import ReplicaBatch
    batch = ReplicaBatch(cfg, scheme, workload,
                         [cfg.seed if s is None else s for s in seeds],
                         scheme_kwargs=scheme_kwargs,
                         traffic_stop=traffic_stop)
    return batch.run()


def drive_rule(rule, run_fn):
    """Run a rule generator serially: every rate it yields is answered
    with ``run_fn(rate)``; returns what the rule returns.  (The campaign
    planner answers the same generators with cached, parallel results —
    :func:`repro.experiments.common.rule_series`.)"""
    try:
        rate = next(rule)
        while True:
            rate = rule.send(run_fn(rate))
    except StopIteration as stop:
        return stop.value


def sweep_rule(rates):
    """The latency sweep's early-stop rule: yields each rate in turn, is
    sent that rate's :class:`RunResult`, and stops once a point saturates
    badly (deadlocked or a large undelivered backlog) — further points
    would only be slower to simulate and equally saturated, matching how
    the paper's curves simply leave the plot range.  Returns the results
    up to and including the stopping point."""
    out = []
    for rate in rates:
        res = yield rate
        out.append(res)
        gen = max(1, res.extra.get("measured_generated", 0))
        if res.deadlocked or res.extra.get("undelivered", 0) > 0.5 * gen:
            break
    return out


def sweep_latency(scheme: Scheme | str, pattern: str, rates,
                  cfg: SimConfig) -> list[RunResult]:
    """Latency-vs-injection-rate curve (Fig. 7 style), cut off past
    saturation by :func:`sweep_rule`."""
    def probe(rate):
        return run_point(get_scheme(scheme) if isinstance(scheme, str)
                         else scheme, pattern, rate, cfg)
    return drive_rule(sweep_rule(rates), probe)


def is_saturated(res: RunResult, zero_load: float) -> bool:
    """Standard criterion: saturation when average latency exceeds 3x the
    zero-load latency (or the run failed to drain / deadlocked)."""
    if res.deadlocked:
        return True
    gen = max(1, res.extra["measured_generated"])
    if res.extra["undelivered"] > 0.25 * gen:
        return True
    return res.avg_latency != res.avg_latency or \
        res.avg_latency > 3.0 * zero_load


def saturation_rule(lo: float, hi: float, iters: int):
    """Binary search for a saturation injection rate: yields each probe
    rate, is sent its :class:`RunResult`, returns the highest probed
    rate still below saturation (packets/node/cycle)."""
    zero = (yield lo).avg_latency
    if zero != zero:  # zero-load run produced no packets: widen
        zero = 50.0
    if not is_saturated((yield hi), zero):
        return hi
    good = lo
    for _ in range(iters):
        mid = 0.5 * (good + hi)
        if is_saturated((yield mid), zero):
            hi = mid
        else:
            good = mid
    return good


def saturation_throughput(scheme: Scheme | str, pattern: str,
                          cfg: SimConfig, lo: float = 0.01, hi: float = 0.7,
                          iters: int = 7, run_point_fn=None) -> float:
    """:func:`saturation_rule` run serially.  ``run_point_fn(rate) ->
    RunResult`` overrides how each probe point executes."""
    if isinstance(scheme, str):
        scheme = get_scheme(scheme)
    rp = run_point_fn or \
        (lambda rate: run_point(scheme, pattern, rate, cfg))
    return drive_rule(saturation_rule(lo, hi, iters), rp)
