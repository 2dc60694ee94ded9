"""Seed folding: R seeds of one point run in one task.

A :class:`ReplicaBatch` holds R complete :class:`~repro.sim.engine.
Simulation` instances — one per seed — and :meth:`ReplicaBatch.run` runs
each to completion in turn through the same open-loop body as
:meth:`Simulation.run <repro.sim.engine.Simulation.run>`.  The immutable
structures (route table, FastPass TDM geometry, SoA dense tables) are
memoised pure functions, so the replicas share them exactly as any other
builds in the process do; the fold itself adds nothing to construction
(DESIGN §12 keeps the record of when it did).

Bit-identity with the scalar run per seed is by construction: each
replica executes the unmodified datapath of whichever engine its config
selects, on its own mutable state (routers, NIs, stats, RNG stream), and
its result is stamped by the scalar body's own
:func:`~repro.sim.runner.stamp`.
"""

from __future__ import annotations

from repro.config import RunResult, SimConfig
from repro.schemes import get_scheme
from repro.sim.engine import Simulation
from repro.sim.runner import stamp


class ReplicaBatch:
    """R seed replicas of one open-loop point (a ``workload`` with a
    ``traffic(seed, stop)`` source, :class:`~repro.sim.workload.OpenLoop`)."""

    def __init__(self, cfg: SimConfig, scheme: str, workload, seeds,
                 scheme_kwargs: dict | None = None,
                 traffic_stop: int | None = None):
        kwargs = dict(scheme_kwargs or {})
        self.sims: list[Simulation] = [
            Simulation(cfg, get_scheme(scheme, **kwargs),
                       workload.traffic(seed, traffic_stop))
            for seed in seeds]

    def run(self) -> list[RunResult]:
        """Run every replica; returns per-seed RunResults in order."""
        return [stamp(sim, sim._run_open_loop()) for sim in self.sims]
