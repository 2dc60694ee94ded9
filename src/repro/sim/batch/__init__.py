"""Seed folding: run R seed replicas of one point in one process.

See :mod:`repro.sim.batch.engine` for :class:`ReplicaBatch` and
:mod:`repro.sim.batch.shared` for the shared immutable structures (and
the fork-prewarm process cache).
"""

from repro.sim.batch.shared import (SharedStructures, clear_process_cache,
                                    default_workers, process_shared,
                                    structures_key, warm_process_cache)

__all__ = ["SharedStructures", "ReplicaBatch",
           "clear_process_cache", "default_workers", "process_shared",
           "structures_key", "warm_process_cache"]


def __getattr__(name):
    # ReplicaBatch imports the Simulation engine; loading it lazily
    # keeps `engine.build_network -> batch.shared` cycle-free.
    if name == "ReplicaBatch":
        from repro.sim.batch.engine import ReplicaBatch
        return ReplicaBatch
    raise AttributeError(name)
