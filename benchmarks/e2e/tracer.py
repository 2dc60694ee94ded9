"""Span tracer installed from outside the program.

The benchmark attributes host time to the repo's own modules without
editing ``src/``: :meth:`Tracer.install` replaces the public entry points
named by a list of :class:`Target` with timing wrappers, and
:meth:`Tracer.uninstall` puts the originals back, so an untraced run in
the same process is clean.  Spans live in memory and are written out by
:meth:`Tracer.dump` when the pass ends.

This module imports nothing from ``repro`` and touches no network, so it
is testable on hand-built spans (``tests/test_e2e_tracer.py``).

A span records name, layer (the module it is charged to), start, end,
parent, thread, the phase of the pass it ran in, and a request id: every
span under one ``run_points`` call (or one directly-run point) shares an
id.  A layer's self time is its span minus the part of that interval its
children cover (:func:`self_times`).
"""

from __future__ import annotations

import importlib
import itertools
import json
import sys
import threading
import time
from contextlib import contextmanager
from typing import Callable, NamedTuple

#: attribute carried by every wrapper; how a second install recognises
#: (and skips) an entry point that is already wrapped
_ORIGINAL = "_e2e_tracer_original"


class Span:
    __slots__ = ("sid", "name", "layer", "start", "end", "parent",
                 "request", "thread", "phase", "counts")

    def __init__(self, sid, name, layer, start, end=None, parent=None,
                 request=0, thread=0, phase="timed", counts=None):
        self.sid = sid
        self.name = name
        self.layer = layer
        self.start = start
        self.end = end
        self.parent = parent
        self.request = request
        self.thread = thread
        self.phase = phase
        self.counts = counts

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_json(self) -> dict:
        return {s: getattr(self, s) for s in self.__slots__}


class Target(NamedTuple):
    """One entry point to wrap.

    ``qualname`` is ``"function"`` or ``"Class.method"`` inside
    ``module``.  ``subclasses`` also wraps every subclass that overrides
    the method (scheme ``build`` hooks, router ``warm_routes``).
    ``request`` starts a new request id at this span.  ``on_exit(args,
    kwargs, result)`` may return a dict of counts to keep on the span.
    """

    name: str
    layer: str
    module: str
    qualname: str
    subclasses: bool = False
    request: bool = False
    on_exit: Callable | None = None


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        #: stamped on every span; the pass sets it between phases
        self.phase = "timed"
        self._ids = itertools.count(1)
        self._requests = itertools.count(1)
        self._local = threading.local()
        self._installed: list[tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------
    def _open(self, name: str, layer: str, request: bool) -> Span:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        parent = stack[-1] if stack else None
        if request or parent is None:
            rid = next(self._requests)
        else:
            rid = parent.request
        span = Span(next(self._ids), name, layer, self.clock(),
                    parent=parent.sid if parent else None, request=rid,
                    thread=threading.get_ident(), phase=self.phase)
        stack.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = self.clock()
        self._local.stack.pop()
        self.spans.append(span)

    @contextmanager
    def span(self, name: str, layer: str, request: bool = False):
        """Record one span around a block of the benchmark's own code."""
        span = self._open(name, layer, request)
        try:
            yield span
        finally:
            self._close(span)

    def wrap(self, fn, name: str, layer: str, request: bool = False,
             on_exit=None):
        tracer = self

        def wrapper(*args, **kwargs):
            span = tracer._open(name, layer, request)
            try:
                result = fn(*args, **kwargs)
                if on_exit is not None:
                    span.counts = on_exit(args, kwargs, result)
                return result
            finally:
                tracer._close(span)

        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        setattr(wrapper, _ORIGINAL, fn)
        return wrapper

    # -- installation ---------------------------------------------------
    def install(self, targets: list[Target]) -> int:
        """Wrap every target; returns the number of attributes replaced.
        Idempotent: an entry point that already carries a wrapper (from
        this or any other tracer) is left alone."""
        replaced = 0
        for t in targets:
            module = importlib.import_module(t.module)
            owner_path, _, attr = t.qualname.rpartition(".")
            owner = module
            for part in filter(None, owner_path.split(".")):
                owner = getattr(owner, part)
            owners = [owner]
            if t.subclasses:
                owners += [c for c in _all_subclasses(owner)
                           if attr in vars(c)]
            for own in owners:
                original = vars(own).get(attr)
                if original is None or hasattr(original, _ORIGINAL):
                    continue
                wrapped = self.wrap(original, t.name, t.layer, t.request,
                                    t.on_exit)
                self._replace(own, attr, original, wrapped)
                replaced += 1
                if own is module:
                    replaced += self._rebind_aliases(module, original,
                                                     wrapped)
        return replaced

    def _replace(self, owner, attr: str, original, wrapped) -> None:
        setattr(owner, attr, wrapped)
        self._installed.append((owner, attr, original))

    def _rebind_aliases(self, home, original, wrapped) -> int:
        """``from x import f`` copies the function into the importer's
        globals; rebind those copies inside the same top-level package so
        the call is traced whichever name it goes through."""
        package = home.__name__.partition(".")[0]
        n = 0
        for name, mod in list(sys.modules.items()):
            if mod is None or mod is home or \
                    name.partition(".")[0] != package:
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._replace(mod, attr, original, wrapped)
                    n += 1
        return n

    def uninstall(self) -> None:
        """Restore every original this tracer replaced."""
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()

    # -- output ---------------------------------------------------------
    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"schema": 1,
                       "spans": [s.to_json() for s in self.spans]}, fh)


def _all_subclasses(cls) -> list:
    out = []
    for sub in cls.__subclasses__():
        out.append(sub)
        out.extend(_all_subclasses(sub))
    return out


# -- analysis -----------------------------------------------------------

def covered(intervals: list[tuple[float, float]], lo: float,
            hi: float) -> float:
    """Length of ``[lo, hi]`` covered by the union of ``intervals``."""
    total = 0.0
    edge = lo
    for start, end in sorted(intervals):
        start = max(start, edge)
        end = min(end, hi)
        if end > start:
            total += end - start
            edge = end
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Self time per span id: duration minus the part of the span's own
    interval that its children cover (children may overlap each other or
    stick out of the parent; neither is counted twice or outside)."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return {s.sid: s.duration - covered(children.get(s.sid, []),
                                        s.start, s.end)
            for s in spans}


def inclusive(spans: list[Span], name: str) -> float:
    """Summed duration of the outermost spans called ``name`` (a method
    that calls its base-class version is one piece of work, not two)."""
    named = [s for s in spans if s.name == name]
    ids = {s.sid for s in named}
    return sum(s.duration for s in named if s.parent not in ids)
