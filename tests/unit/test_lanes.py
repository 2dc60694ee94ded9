"""Unit tests for FastPass-Lane geometry and the non-overlap claims."""

import pytest

from repro.config import SimConfig
from repro.core.schedule import TdmSchedule
from repro.network.packet import MessageClass, Packet
from repro.network.topology import Mesh
from repro.schemes import get_scheme
from tests import lemmas
from tests.conftest import make_network


@pytest.fixture
def mesh():
    return Mesh(4, 4)


def _fastflow(mesh):
    cfg = SimConfig(rows=mesh.rows, cols=mesh.cols, fastpass_slot_cycles=64)
    net = make_network(cfg, scheme=get_scheme("fastpass", n_vcs=2))
    return net, net.fastpass.engine


def _reserved(net, since: int) -> dict:
    """``(router, out_port) -> window starts`` of every FastFlow
    reservation starting at or after ``since``."""
    out = {}
    for link in net.links:
        starts = [ws for ws, _we in link.fp_windows if ws >= since]
        if starts:
            out[(link.src, link.src_port)] = starts
    return out


class TestPaths:
    def test_forward_path_is_xy(self, mesh):
        """A launch reserves the XY path, the k-th link k cycles on."""
        net, eng = _fastflow(mesh)
        prime, dst = mesh.rid(0, 0), mesh.rid(2, 2)
        eng.launch_forward(Packet(prime, dst, MessageClass.REQUEST, 0),
                           prime, 0)
        assert _reserved(net, 0) == {
            hop: [k] for k, hop in enumerate(mesh.xy_path(prime, dst))}

    def test_return_path_is_yx(self, mesh):
        """A bounce off a full ejection queue reserves the YX path back
        to the prime."""
        net, eng = _fastflow(mesh)
        prime, dst = mesh.rid(0, 0), mesh.rid(2, 2)
        q = net.nis[dst].ej[MessageClass.REQUEST]
        while len(q.q) < q.cap:
            q.q.append(Packet(dst - 1, dst, MessageClass.REQUEST, 0))
        pkt = Packet(prime, dst, MessageClass.REQUEST, 0)
        eng.launch_forward(pkt, prime, 0)
        dist = mesh.hops(prime, dst)
        eng._arrive_forward(dist, pkt, prime)
        assert eng.bounced == 1
        path = mesh.yx_path(dst, prime)
        ret = _reserved(net, dist)
        start = ret[path[0]][0]
        assert ret == {hop: [start + k] for k, hop in enumerate(path)}

    def test_forward_and_return_disjoint_same_lane(self, mesh):
        """Within one lane, forward and returning paths never share a
        directed link (Fig. 4)."""
        for prime in range(mesh.n_routers):
            for tcol in range(mesh.cols):
                fwd = lemmas.lane_links(mesh, prime, tcol)
                ret = lemmas.return_links(mesh, prime, tcol)
                assert not (fwd & ret)


class TestLaneLinks:
    def test_lane_covers_target_column(self, mesh):
        links = lemmas.lane_links(mesh, mesh.rid(0, 0), 2)
        dsts = {mesh.neighbor(rid, port) for rid, port in links}
        for row in range(4):
            assert mesh.rid(2, row) in dsts

    def test_own_partition_lane_is_column_only(self, mesh):
        prime = mesh.rid(1, 2)
        links = lemmas.lane_links(mesh, prime, 1)
        for rid, port in links:
            x, _y = mesh.xy(rid)
            assert x == 1   # never leaves the column


class TestNonOverlap:
    def test_diagonal_primes_all_slots(self, mesh):
        sched = TdmSchedule(4, 4, 10)
        for phase in range(4):
            primes = sched.primes(phase)
            for slot in range(4):
                targets = [sched.target_partition(c, slot)
                           for c in range(4)]
                lemmas.verify_slot_nonoverlap(mesh, primes, targets)

    def test_same_row_primes_do_overlap(self, mesh):
        """Sanity check that the verifier can fail: primes sharing a row
        produce overlapping lanes."""
        bad_primes = [mesh.rid(c, 0) for c in range(4)]  # all in row 0
        targets = [(c + 1) % 4 for c in range(4)]
        with pytest.raises(AssertionError):
            lemmas.verify_slot_nonoverlap(mesh, bad_primes, targets)

    def test_same_target_columns_do_overlap(self, mesh):
        primes = [mesh.rid(c, c) for c in range(4)]
        with pytest.raises(AssertionError):
            lemmas.verify_slot_nonoverlap(mesh, primes, [0, 0, 1, 2])


class TestCoverage:
    def test_full_rotation_covers_everything(self, mesh):
        sched = TdmSchedule(4, 4, 10)
        assert lemmas.lanes_cover_network(mesh, sched)

    def test_coverage_8x8(self):
        mesh = Mesh(8, 8)
        sched = TdmSchedule(8, 8, 10)
        assert lemmas.lanes_cover_network(mesh, sched)
