"""Holds :mod:`repro.sim.batch.engine`, a name the benchmark pins."""
