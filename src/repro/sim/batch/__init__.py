"""Seed folding: run R seed replicas of one point in one task.

See :mod:`repro.sim.batch.engine` for :class:`ReplicaBatch`.
"""

from repro.sim.batch.engine import ReplicaBatch

__all__ = ["ReplicaBatch"]
