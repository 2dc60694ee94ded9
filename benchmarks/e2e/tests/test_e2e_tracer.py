"""The tracer as a standalone unit: wrapping, restoring, self time."""

import sys
import types

import pytest

from tracer import Span, Target, Tracer, covered, inclusive, self_times


@pytest.fixture
def fake_package():
    """A two-module package: ``fakepkg.core`` defines, ``fakepkg.user``
    holds a ``from ... import`` copy."""
    core = types.ModuleType("fakepkg.core")
    user = types.ModuleType("fakepkg.user")

    def work(x):
        return x + 1

    class Base:
        def build(self):
            return "base"

    class Child(Base):
        def build(self):
            return "child+" + super().build()

    class Quiet(Base):
        pass

    core.work, core.Base, core.Child, core.Quiet = work, Base, Child, Quiet
    user.work = work
    sys.modules["fakepkg.core"] = core
    sys.modules["fakepkg.user"] = user
    yield core, user
    del sys.modules["fakepkg.core"], sys.modules["fakepkg.user"]


TARGETS = [
    Target("work", "core", "fakepkg.core", "work",
           on_exit=lambda args, kwargs, res: {"result": res}),
    Target("build", "core", "fakepkg.core", "Base.build", subclasses=True),
]


def test_install_wraps_functions_aliases_and_overrides(fake_package):
    core, user = fake_package
    tracer = Tracer()
    assert tracer.install(TARGETS) == 4   # work, its alias, two builds
    assert core.work(1) == 2 and user.work(2) == 3
    assert core.Child().build() == "child+base"
    assert core.Quiet().build() == "base"
    names = [s.name for s in tracer.spans]
    assert names.count("work") == 2
    # Child.build calls Base.build: two spans, nested, one request
    builds = [s for s in tracer.spans if s.name == "build"]
    assert len(builds) == 3
    outer = max(builds[:2], key=lambda s: s.duration)
    inner = min(builds[:2], key=lambda s: s.duration)
    assert inner.parent == outer.sid and inner.request == outer.request
    assert tracer.spans[0].counts == {"result": 2}


def test_second_install_does_not_double_wrap(fake_package):
    core, _ = fake_package
    tracer = Tracer()
    tracer.install(TARGETS)
    assert tracer.install(TARGETS) == 0
    assert Tracer().install(TARGETS) == 0     # nor does another tracer
    core.work(1)
    assert len(tracer.spans) == 1


def test_uninstall_restores_the_originals(fake_package):
    core, user = fake_package
    originals = (core.work, user.work, vars(core.Base)["build"],
                 vars(core.Child)["build"])
    tracer = Tracer()
    tracer.install(TARGETS)
    tracer.uninstall()
    assert (core.work, user.work, vars(core.Base)["build"],
            vars(core.Child)["build"]) == originals
    assert "build" not in vars(core.Quiet)
    core.work(1)
    core.Child().build()
    assert tracer.spans == []                 # an untraced run is clean
    tracer.uninstall()                        # and a second one is a no-op


def test_span_closes_and_unwinds_on_error(fake_package):
    core, _ = fake_package

    def boom():
        raise ValueError("x")

    core.boom = boom
    tracer = Tracer()
    tracer.install([Target("boom", "core", "fakepkg.core", "boom")])
    with pytest.raises(ValueError):
        core.boom()
    with tracer.span("after", "bench"):
        pass
    boom_span, after = tracer.spans
    assert boom_span.end is not None and after.parent is None


def test_request_ids_follow_the_request_root():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: next(ticks))
    with tracer.span("figure", "experiments"):
        with tracer.span("run_points", "executor", request=True):
            with tracer.span("get", "cache"):
                pass
        with tracer.span("run_points", "executor", request=True):
            pass
    by_name = {}
    for s in tracer.spans:
        by_name.setdefault(s.name, []).append(s)
    first, second = by_name["run_points"]
    assert by_name["get"][0].request == first.request != second.request
    assert by_name["figure"][0].request not in (first.request,
                                                second.request)


def span(sid, name, start, end, parent=None, layer="x"):
    return Span(sid, name, layer, start, end, parent=parent)


def test_self_time_nested():
    spans = [span(1, "a", 0.0, 10.0),
             span(2, "b", 1.0, 4.0, parent=1),
             span(3, "c", 2.0, 3.0, parent=2),
             span(4, "d", 6.0, 9.0, parent=1)]
    assert self_times(spans) == {1: 4.0, 2: 2.0, 3: 1.0, 4: 3.0}


def test_self_time_overlapping_children_count_once():
    # two children overlap on [3, 5]; one sticks out past the parent
    spans = [span(1, "a", 0.0, 10.0),
             span(2, "b", 2.0, 5.0, parent=1),
             span(3, "c", 3.0, 7.0, parent=1),
             span(4, "d", 9.0, 12.0, parent=1)]
    own = self_times(spans)
    assert own[1] == pytest.approx(10.0 - (5.0 + 1.0))
    assert own[4] == 3.0


def test_covered_clips_and_merges():
    assert covered([], 0, 10) == 0
    assert covered([(-5, 2), (1, 3), (8, 20)], 0, 10) == 5
    assert covered([(2, 3), (2, 3)], 0, 10) == 1


def test_inclusive_counts_an_override_calling_its_base_once():
    spans = [span(1, "build", 0.0, 5.0),
             span(2, "build", 1.0, 4.0, parent=1),
             span(3, "build", 6.0, 7.0),
             span(4, "other", 0.0, 9.0)]
    assert inclusive(spans, "build") == 6.0


def test_dump_round_trips(tmp_path):
    tracer = Tracer()
    with tracer.span("a", "bench"):
        pass
    tracer.dump(tmp_path / "trace.json")
    import json
    data = json.loads((tmp_path / "trace.json").read_text())
    assert data["spans"][0]["name"] == "a"
    assert set(data["spans"][0]) == set(Span.__slots__)
