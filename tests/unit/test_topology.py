"""Unit tests for the mesh topology."""

import networkx as nx
import pytest

from repro.core.irregular import build_graph
from repro.network.topology import (
    Mesh,
    OPPOSITE,
    PORT_E,
    PORT_LOCAL,
    PORT_N,
    PORT_S,
    PORT_W,
)


class TestCoordinates:
    def test_row_major_ids(self):
        m = Mesh(4, 4)
        assert m.xy(0) == (0, 0)
        assert m.xy(3) == (3, 0)
        assert m.xy(4) == (0, 1)
        assert m.xy(15) == (3, 3)

    def test_rid_roundtrip(self):
        m = Mesh(5, 7)
        for rid in range(m.n_routers):
            x, y = m.xy(rid)
            assert m.rid(x, y) == rid

    def test_n_routers(self):
        assert Mesh(4, 4).n_routers == 16
        assert Mesh(8, 8).n_routers == 64
        assert Mesh(3, 5).n_routers == 15

    def test_too_small_rejected(self):
        with pytest.raises(ValueError):
            Mesh(1, 4)
        with pytest.raises(ValueError):
            Mesh(4, 1)


class TestNeighbors:
    def test_interior_neighbors(self):
        m = Mesh(4, 4)
        rid = m.rid(1, 1)
        assert m.neighbor(rid, PORT_N) == m.rid(1, 2)
        assert m.neighbor(rid, PORT_S) == m.rid(1, 0)
        assert m.neighbor(rid, PORT_E) == m.rid(2, 1)
        assert m.neighbor(rid, PORT_W) == m.rid(0, 1)

    def test_edges_have_no_neighbor(self):
        m = Mesh(4, 4)
        assert m.neighbor(0, PORT_S) is None
        assert m.neighbor(0, PORT_W) is None
        assert m.neighbor(15, PORT_N) is None
        assert m.neighbor(15, PORT_E) is None

    def test_local_port_has_no_neighbor(self):
        m = Mesh(4, 4)
        assert m.neighbor(5, PORT_LOCAL) is None

    def test_ports_of_corner(self):
        m = Mesh(4, 4)
        assert sorted(m.ports_of(0)) == sorted([PORT_N, PORT_E])

    def test_ports_of_interior(self):
        m = Mesh(4, 4)
        assert len(m.ports_of(m.rid(2, 2))) == 4

    def test_opposite_ports(self):
        m = Mesh(4, 4)
        for rid in range(m.n_routers):
            for p in m.ports_of(rid):
                nbr = m.neighbor(rid, p)
                assert m.neighbor(nbr, OPPOSITE[p]) == rid


class TestDistances:
    def test_hops_manhattan(self):
        m = Mesh(8, 8)
        assert m.hops(0, 0) == 0
        assert m.hops(0, 7) == 7
        assert m.hops(0, 63) == 14

    def test_diameter(self):
        assert Mesh(8, 8).diameter == 14
        assert Mesh(4, 4).diameter == 6
        assert Mesh(16, 16).diameter == 30


class TestPaths:
    def test_xy_path_length_is_hops(self):
        m = Mesh(5, 5)
        for src in range(m.n_routers):
            for dst in range(m.n_routers):
                assert len(m.xy_path(src, dst)) == m.hops(src, dst)

    def test_yx_path_length_is_hops(self):
        m = Mesh(5, 5)
        for src, dst in [(0, 24), (7, 3), (12, 12), (4, 20)]:
            assert len(m.yx_path(src, dst)) == m.hops(src, dst)

    def test_xy_path_goes_x_first(self):
        m = Mesh(4, 4)
        path = m.xy_path(m.rid(0, 0), m.rid(2, 2))
        ports = [p for _r, p in path]
        assert ports == [PORT_E, PORT_E, PORT_N, PORT_N]

    def test_yx_path_goes_y_first(self):
        m = Mesh(4, 4)
        path = m.yx_path(m.rid(0, 0), m.rid(2, 2))
        ports = [p for _r, p in path]
        assert ports == [PORT_N, PORT_N, PORT_E, PORT_E]

    def test_paths_are_connected_walks(self):
        m = Mesh(6, 6)
        for src, dst in [(0, 35), (10, 3), (30, 5)]:
            for path in (m.xy_path(src, dst), m.yx_path(src, dst)):
                at = src
                for rid, port in path:
                    assert rid == at
                    at = m.neighbor(rid, port)
                assert at == dst


class TestHamiltonianRing:
    @pytest.mark.parametrize("rows,cols", [(2, 2), (4, 4), (8, 8), (4, 6),
                                           (3, 4), (6, 3)])
    def test_ring_visits_every_router_once(self, rows, cols):
        m = Mesh(rows, cols)
        ring = m.hamiltonian_ring()
        assert sorted(ring) == list(range(m.n_routers))

    @pytest.mark.parametrize("rows,cols", [(2, 2), (4, 4), (8, 8), (4, 6),
                                           (3, 4)])
    def test_ring_steps_are_adjacent(self, rows, cols):
        m = Mesh(rows, cols)
        ring = m.hamiltonian_ring()
        for a, b in zip(ring, ring[1:] + ring[:1]):
            assert m.hops(a, b) == 1

    def test_odd_odd_mesh_rejected(self):
        with pytest.raises(ValueError):
            Mesh(3, 3).hamiltonian_ring()


class TestGraphExport:
    """A mesh's channel graph, as Sec. III-F's segmentation reads it."""

    def test_graph_edge_count(self):
        g = build_graph("mesh:4x4")
        # 2 * rows * cols - rows - cols bidirectional channels in a mesh
        assert g.number_of_edges() == 2 * 4 * 4 - 4 - 4

    def test_graph_connected(self):
        g = build_graph("mesh:5x3")
        assert nx.is_connected(g)
