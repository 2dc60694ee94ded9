"""A name ``benchmarks/e2e/ledger.py`` wraps, and nothing else.

This was the opt-in structure-of-arrays cycle engine (``engine="soa"``).
It ran at 0.39-0.95x of the active engine on every point measured and
drove no run of any benchmark workload, so it is deleted (DESIGN §15
keeps the record).  The benchmark's ledger still names
``repro.sim.soa.attach``; its tracer skips an absent attribute, so only
the module has to import.  The next change to the benchmark drops the
ledger row, and then this file goes.
"""
