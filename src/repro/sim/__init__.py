"""Simulation engine, statistics, and experiment runners.

``engine``/``runner`` are imported lazily: :mod:`repro.network.network`
needs :mod:`repro.sim.stats` while the engine needs the network package,
and the lazy hook keeps that dependency acyclic.
"""

from repro.sim.stats import StatsCollector

__all__ = [
    "StatsCollector",
    "Simulation",
    "build_network",
    "run_point",
    "sweep_latency",
    "saturation_throughput",
    "parallel_sweep",
    "PacketTracer",
]

_LAZY = {
    "Simulation": "repro.sim.engine",
    "build_network": "repro.sim.engine",
    "run_point": "repro.sim.runner",
    "sweep_latency": "repro.sim.runner",
    "saturation_throughput": "repro.sim.runner",
    "parallel_sweep": "repro.sim.parallel",
    "PacketTracer": "repro.obs.events",
}


def __getattr__(name: str):
    if name in _LAZY:
        import importlib

        module = importlib.import_module(_LAZY[name])
        return getattr(module, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
