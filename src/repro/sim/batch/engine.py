"""A name ``benchmarks/e2e/ledger.py`` wraps, and nothing else.

The seed-fold engine that lived here had shared nothing between its
replicas for a long time, so it is deleted: a campaign task is a list of
points, each run alone (DESIGN §12).  The benchmark's ledger still names
``ReplicaBatch.__init__`` and ``ReplicaBatch.run``; its tracer skips
attributes a class does not define, so only the class has to resolve.
The next change to the benchmark drops those rows, and then this file
goes.
"""


class ReplicaBatch:
    """Pinned name; see the module docstring."""
