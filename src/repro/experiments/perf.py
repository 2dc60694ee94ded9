"""The two names ``benchmarks/e2e/workloads.py`` imports, and nothing else.

This module used to be the perf harness (snapshot / compare / trend /
profile / SoA A/B).  Speed is now measured by ``benchmarks/e2e/run.py``
and result drift by ``tests/data/golden_results.json``; what is left is
pinned by the benchmark — ``kernel_dense`` builds its points from
:func:`soa_config` and every ``result_digest`` hashes
:data:`RESULT_FIELDS` — and nothing under ``benchmarks/e2e/`` may change
in a PR that touches other code.  The benchmark PR re-points both, and
then this file goes.
"""

from __future__ import annotations

from repro.config import SimConfig

__all__ = ["RESULT_FIELDS", "soa_config"]

#: RunResult fields that must be bit-identical run-to-run for a fixed
#: seed — the differential proof that engine work changed speed, not
#: behaviour.
RESULT_FIELDS = ("injected", "ejected", "avg_latency", "p99_latency",
                 "deadlocked", "cycles")


def soa_config(rows: int, cols: int, engine: str) -> SimConfig:
    """The retired snapshot protocol's windows on a sized mesh."""
    return SimConfig(rows=rows, cols=cols, warmup_cycles=200,
                     measure_cycles=1000, drain_cycles=1500,
                     engine=engine)
