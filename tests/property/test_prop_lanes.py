"""Property tests (hypothesis): the lane non-overlap and coverage
invariants hold for every mesh size, phase and slot — the paper's Fig. 1 /
Fig. 4 claims in full generality."""

from hypothesis import given, settings, strategies as st

from repro.core.schedule import TdmSchedule
from repro.network.topology import Mesh
from tests import lemmas

mesh_sizes = st.integers(min_value=2, max_value=9)


@st.composite
def mesh_phase_slot(draw):
    n = draw(mesh_sizes)
    phase = draw(st.integers(min_value=0, max_value=3 * n))
    slot = draw(st.integers(min_value=0, max_value=n - 1))
    return n, phase, slot


@given(mesh_phase_slot())
@settings(max_examples=60, deadline=None)
def test_forward_lanes_pairwise_disjoint(args):
    n, phase, slot = args
    mesh = Mesh(n, n)
    sched = TdmSchedule(n, n, 10)
    primes = sched.primes(phase)
    targets = [sched.target_partition(c, slot) for c in range(n)]
    lemmas.verify_slot_nonoverlap(mesh, primes, targets)


@given(mesh_sizes)
@settings(max_examples=8, deadline=None)
def test_rotation_covers_every_pair(n):
    mesh = Mesh(n, n)
    sched = TdmSchedule(n, n, 10)
    assert lemmas.lanes_cover_network(mesh, sched)


@given(mesh_sizes, st.integers(min_value=0, max_value=50))
@settings(max_examples=40, deadline=None)
def test_primes_form_permutation(n, phase):
    sched = TdmSchedule(n, n, 10)
    primes = sched.primes(phase)
    rows = [p // n for p in primes]
    cols = [p % n for p in primes]
    assert sorted(cols) == list(range(n))
    assert sorted(rows) == list(range(n))


@given(mesh_sizes, st.data())
@settings(max_examples=40, deadline=None)
def test_forward_path_head_advances_one_hop_per_cycle(n, data):
    """Lemma 1 geometry: the k-th link of a forward path starts at the
    router reached after k hops."""
    mesh = Mesh(n, n)
    prime = data.draw(st.integers(0, mesh.n_routers - 1))
    dst = data.draw(st.integers(0, mesh.n_routers - 1))
    if dst == prime:
        return
    path = mesh.xy_path(prime, dst)
    assert len(path) == mesh.hops(prime, dst)
    at = prime
    for rid, port in path:
        assert rid == at
        at = mesh.neighbor(rid, port)
    assert at == dst


@given(mesh_sizes, st.data())
@settings(max_examples=40, deadline=None)
def test_return_path_reverses_reachability(n, data):
    mesh = Mesh(n, n)
    prime = data.draw(st.integers(0, mesh.n_routers - 1))
    dst = data.draw(st.integers(0, mesh.n_routers - 1))
    if dst == prime:
        return
    ret = mesh.yx_path(dst, prime)
    assert len(ret) == mesh.hops(prime, dst)
    at = dst
    for rid, port in ret:
        assert rid == at
        at = mesh.neighbor(rid, port)
    assert at == prime
