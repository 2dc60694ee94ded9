"""Chaos engineering for the campaign fabric.

The fabric's exactly-once story — at-least-once leases plus idempotent
completion over a deterministic datapath — is only as good as its worst
network day.  This package makes the worst day reproducible:

* :mod:`~repro.chaos.plan` — :class:`ChaosPlan`, a frozen,
  seed-reproducible schedule of transport faults (the fabric analogue
  of :class:`~repro.fault.plan.FaultPlan`);
* :mod:`~repro.chaos.transport` — :class:`ChaosInjector`, which commits
  those faults on the real wire from the worker side: delays, drops,
  resets after delivery, truncated and bit-corrupted payloads,
  duplicated completions;
* :mod:`~repro.chaos.sweep` — the escalating ``chaos sweep`` that
  certifies every point still settles exactly once, bit-identically.
"""

from __future__ import annotations

from repro.chaos.plan import (CHAOS_KINDS, CORRUPT, DELAY, DROP,
                              DUPLICATE, RESET, TRUNCATE, ChaosPlan,
                              mild_chaos)
from repro.chaos.transport import ChaosInjector

__all__ = [
    "CHAOS_KINDS", "CORRUPT", "DELAY", "DROP", "DUPLICATE", "RESET",
    "TRUNCATE", "ChaosInjector", "ChaosPlan", "mild_chaos",
]
