"""Seed folding: R seeds of one point run in one task.

A :class:`ReplicaBatch` holds R complete :class:`~repro.sim.engine.
Simulation` instances — one per seed — and :meth:`ReplicaBatch.run` runs
each to completion in turn through the same open-loop body as
:meth:`Simulation.run <repro.sim.engine.Simulation.run>`.  The immutable
structures (route table, FastPass TDM geometry, SoA dense tables) are
memoised pure functions, so the replicas share them exactly as any other
builds in the process do; the fold itself adds nothing to construction
(DESIGN §12 keeps the record of when it did).

Bit-identity with a scalar ``run_point`` per seed is by construction:
each replica executes the unmodified datapath of whichever engine its
config selects, on its own mutable state (routers, NIs, stats, RNG
stream).
"""

from __future__ import annotations

from repro.config import RunResult, SimConfig
from repro.schemes import get_scheme
from repro.sim.engine import Simulation
from repro.traffic.synthetic import SyntheticTraffic


class ReplicaBatch:
    """R seed replicas of one (scheme, pattern, rate) point."""

    def __init__(self, cfg: SimConfig, scheme: str, pattern: str,
                 rate: float, seeds, scheme_kwargs: dict | None = None,
                 traffic_stop: int | None = None, spec=None):
        kwargs = dict(scheme_kwargs or {})
        if spec is not None:
            from repro.scenario.source import ScenarioTraffic

            def make_traffic(seed):
                return ScenarioTraffic(spec, seed=seed, stop=traffic_stop)
        else:
            def make_traffic(seed):
                return SyntheticTraffic(pattern, rate, seed=seed,
                                        stop=traffic_stop)
        self.sims: list[Simulation] = [
            Simulation(cfg, get_scheme(scheme, **kwargs), make_traffic(seed))
            for seed in seeds]

    def run(self) -> list[RunResult]:
        """Run every replica; returns per-seed RunResults in order."""
        results = []
        for sim in self.sims:
            res = sim._run_open_loop()
            res.extra["rate"] = sim.traffic.rate
            res.extra["pattern"] = sim.traffic.pattern
            # Attribution metadata, not a result field: travels as a plain
            # attribute so cache keys and bit-identity stay engine-blind.
            res.engine_used = sim.engine_used
            results.append(res)
        return results
