"""Property tests for the scenario compiler.

For any well-formed spec the phase clock must partition time exactly,
the compiled source must honour the per-phase offered rate, an equal
seed must produce an equal stream, and the JSON form must be lossless.
"""

from types import SimpleNamespace

from hypothesis import given, settings, strategies as st

from repro.network.topology import Mesh
from repro.sim.workload import Scenario
from repro.traffic.spec import BurstSpec, PhaseSpec, ScenarioSpec

bursts = st.builds(
    BurstSpec,
    on_cycles=st.integers(min_value=1, max_value=64),
    off_cycles=st.integers(min_value=1, max_value=256),
    off_scale=st.floats(min_value=0.0, max_value=1.0),
)

hotspot_sets = st.lists(
    st.tuples(st.integers(min_value=0, max_value=15),
              st.floats(min_value=0.1, max_value=8.0)),
    min_size=1, max_size=3).map(tuple)

phases = st.builds(
    PhaseSpec,
    duration=st.integers(min_value=1, max_value=1024),
    pattern=st.sampled_from(["uniform", "transpose", "shuffle"]),
    rate=st.floats(min_value=0.0, max_value=0.5),
    hotspot_frac=st.just(0.0),
    burst=st.none() | bursts,
)

hotspot_phases = st.builds(
    PhaseSpec,
    duration=st.integers(min_value=1, max_value=1024),
    pattern=st.just("uniform"),
    rate=st.floats(min_value=0.0, max_value=0.5),
    hotspot_frac=st.floats(min_value=0.1, max_value=1.0),
    hotspots=hotspot_sets,
    burst=st.none() | bursts,
)

specs = st.builds(
    ScenarioSpec,
    name=st.just("prop"),
    phases=st.lists(phases | hotspot_phases,
                    min_size=1, max_size=4).map(tuple),
)


def _bound(spec, seed):
    t = Scenario(spec).traffic(seed)
    t.bind(SimpleNamespace(mesh=Mesh(4, 4)))
    return t


def _stream(spec, seed, until):
    t = _bound(spec, seed)
    while t._chunk_end < until:
        t._fill(t._chunk_end)
    return dict(t._by_cycle)


@given(spec=specs, cycle=st.integers(min_value=0, max_value=2 ** 20))
@settings(max_examples=60, deadline=None)
def test_phase_windows_partition_time_exactly(spec, cycle):
    """Durations tile the period with no gap or overlap, and every
    cycle falls in exactly one window that contains it."""
    bounds = spec.boundaries()
    assert bounds[0] == 0
    assert bounds[-1] == spec.total_cycles
    assert all(b < a for b, a in zip(bounds, bounds[1:]))
    assert sum(p.duration for p in spec.phases) == spec.total_cycles

    idx, lo, hi = spec.window_at(cycle)
    assert lo <= cycle < hi
    assert hi - lo == spec.phases[idx].duration
    # window edges map back to themselves / the next phase
    assert spec.window_at(lo) == (idx, lo, hi)
    if hi > lo + 1:
        assert spec.window_at(hi - 1) == (idx, lo, hi)
    assert spec.window_at(hi)[1] == hi


@given(seed=st.integers(min_value=0, max_value=2 ** 16),
       rate=st.floats(min_value=0.05, max_value=0.4))
@settings(max_examples=20, deadline=None)
def test_offered_rate_within_tolerance(seed, rate):
    """A long steady uniform phase must offer ~rate packets per node per
    cycle (generous statistical band; 16 nodes x 8192 cycles)."""
    span = 8192
    spec = ScenarioSpec("r", (PhaseSpec(duration=span, rate=rate),))
    events = _stream(spec, seed, span)
    offered = sum(len(v) for v in events.values()) / (span * 16)
    # self-traffic redraws discard ~1/16 of hits before staging
    expect = rate * 15 / 16
    assert abs(offered - expect) < 0.15 * rate + 0.01


@given(spec=specs, seed=st.integers(min_value=0, max_value=2 ** 16))
@settings(max_examples=25, deadline=None)
def test_same_seed_same_stream(spec, seed):
    until = min(2048, 4 * spec.total_cycles)
    assert _stream(spec, seed, until) == _stream(spec, seed, until)


@given(spec=specs)
@settings(max_examples=60, deadline=None)
def test_json_round_trip_lossless(spec):
    assert ScenarioSpec.from_json(spec.to_json()) == spec
    assert ScenarioSpec.from_token(spec.token()) == spec
    assert spec.sha() == ScenarioSpec.from_token(spec.token()).sha()
