"""The figure planner: series streamed through one open campaign run.

A figure is a set of *series* — one latency curve, one saturation
search.  The points of a series are only known one *frontier* at a time:
rate r+1 of a sweep is simulated only if rate r did not saturate, the
next probe of a binary search depends on the last one.  Walking the
series one after another leaves every worker but one idle, so
:func:`drive` interleaves them.

A series is a generator that yields its next frontier ``(points, cfg)``
and is sent that frontier's results (a list, in point order); what it
returns is its outcome.  :func:`drive` primes every series, enqueues all
their frontiers into **one** run of the ambient executor
(:func:`~repro.campaign.executor_for`: in-process, the fork pool, or the
fabric session's fleet), and resumes a series the moment *its own*
frontier has settled — there is no wave barrier across series — to
enqueue whatever it yields next.  A series that stops early therefore
never has a point past its stop submitted, and a frontier answered
entirely by the run cache resumes its series without a transport ever
being opened.
"""

from __future__ import annotations

from collections import deque

from repro.campaign import executor_for


class _Series:
    """A series between two frontiers."""

    __slots__ = ("gen", "frontier", "keys", "missing", "outcome")

    def __init__(self, gen):
        self.gen = gen
        self.frontier = None        # (points, cfg) to enqueue next
        self.keys: list[str] = []   # of the frontier now enqueued
        self.missing: set[str] = set()
        self.outcome = None         # what the generator returned

    def resume(self, reply) -> bool:
        """Send ``reply`` in; True if the series yielded another
        frontier, False if it returned."""
        try:
            self.frontier = self.gen.send(reply)
        except StopIteration as stop:
            self.outcome = stop.value
            return False
        return True


def _stream(run, ready: deque) -> None:
    """Feed ``run`` (an :class:`~repro.campaign.executor.OpenRun`) until
    every series has returned."""
    waiting: list[_Series] = []
    results = run.results

    def settled(series: _Series) -> None:
        if series.resume([results[k] for k in series.keys]):
            ready.append(series)

    while ready or waiting:
        while ready:
            series = ready.popleft()
            series.keys = run.enqueue(*series.frontier)
            series.missing = {k for k in series.keys if k not in results}
            if series.missing:
                waiting.append(series)
            else:
                settled(series)             # all hits: resume at once
        if waiting:
            fresh = run.wait()
            still = []
            for series in waiting:
                series.missing.difference_update(fresh)
                if series.missing:
                    still.append(series)
                else:
                    settled(series)
            waiting = still


def drive(series: list, executor=None) -> list:
    """Run every series generator to its end through one open campaign
    run; returns their outcomes in the order given.  The run is
    ``executor``'s — by default the ambient one
    (:func:`~repro.campaign.executor_for`)."""
    every = [_Series(gen) for gen in series]
    ready = deque(s for s in every if s.resume(None))
    if ready:
        if executor is None:
            # The executor's own cfg is what ``run(points)`` runs under;
            # every frontier here carries its own.
            executor = executor_for(ready[0].frontier[1])
        executor.run([], plan=lambda run: _stream(run, ready))
    return [s.outcome for s in every]
