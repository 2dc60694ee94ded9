"""Unit tests for FastPass-Lane geometry and the non-overlap claims."""

import pytest

from repro.core import lanes
from repro.core.schedule import TdmSchedule
from repro.network.topology import Mesh
from tests import lemmas


@pytest.fixture
def mesh():
    return Mesh(4, 4)


class TestPaths:
    def test_forward_path_is_xy(self, mesh):
        path = lanes.forward_path(mesh, mesh.rid(0, 0), mesh.rid(2, 2))
        assert path == mesh.xy_path(mesh.rid(0, 0), mesh.rid(2, 2))

    def test_return_path_is_yx(self, mesh):
        path = lanes.return_path(mesh, mesh.rid(2, 2), mesh.rid(0, 0))
        assert path == mesh.yx_path(mesh.rid(2, 2), mesh.rid(0, 0))

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
