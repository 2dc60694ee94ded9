"""Unit tests for irregular-topology partition derivation (Sec. III-F)."""

import networkx as nx
import pytest

from repro.core import irregular


def ring_graph(n=8):
    g = nx.Graph()
    nodes = list(range(n))
    g.add_edges_from(zip(nodes, nodes[1:] + nodes[:1]))
    return g


class TestHolisticPath:
    def test_covers_every_directed_link_once(self):
        g = ring_graph(6)
        path = irregular.holistic_path(g)
        assert len(path) == 2 * g.number_of_edges()
        assert len(set(path)) == len(path)

    def test_is_closed_walk(self):
        g = ring_graph(5)
        path = irregular.holistic_path(g)
        for (u1, v1), (u2, _v2) in zip(path, path[1:]):
            assert v1 == u2
        assert path[-1][1] == path[0][0]

    def test_works_on_mesh_graph(self):
        g = irregular.build_graph("mesh:4x4")
        path = irregular.holistic_path(g)
        assert len(path) == 2 * g.number_of_edges()

    def test_disconnected_rejected(self):
        g = ring_graph(4)
        g.add_edge(10, 11)
        with pytest.raises(ValueError):
            irregular.holistic_path(g)

    def test_empty_graph(self):
        assert irregular.holistic_path(nx.Graph()) == []


class TestHolisticPathEdgeCases:
    def test_single_node_graph(self):
        """Connected but edgeless: one router, nothing to walk."""
        g = nx.Graph()
        g.add_node(0)
        assert irregular.holistic_path(g) == []

    def test_two_node_graph(self):
        g = nx.Graph()
        g.add_edge(0, 1)
        path = irregular.holistic_path(g)
        assert sorted(path) == [(0, 1), (1, 0)]

    def test_star_center_repeats_but_links_unique(self):
        g = nx.star_graph(5)
        path = irregular.holistic_path(g)
        assert len(path) == 2 * g.number_of_edges()
        assert len(set(path)) == len(path)


class TestSegmentation:
    def test_segments_partition_the_path(self):
        g = ring_graph(8)
        path = irregular.holistic_path(g)
        segs = irregular.segment_path(path, 4)
        assert sum(len(s) for s in segs) == len(path)
        flat = [l for s in segs for l in s]
        assert flat == path

    def test_near_equal_lengths(self):
        g = ring_graph(8)
        segs = irregular.segment_path(irregular.holistic_path(g), 3)
        lengths = [len(s) for s in segs]
        assert max(lengths) - min(lengths) <= 1

    def test_too_many_segments_rejected(self):
        g = ring_graph(4)
        with pytest.raises(ValueError):
            irregular.segment_path(irregular.holistic_path(g), 100)

    def test_partitions_exceeding_circuit_length_rejected(self):
        """P > circuit length through the full derivation entry point:
        a 3-ring's circuit has 6 directed links, so P=7 cannot give
        every partition at least one."""
        g = ring_graph(3)
        with pytest.raises(ValueError):
            irregular.derive_partitions(g, 7)

    def test_zero_segments_rejected(self):
        with pytest.raises(ValueError):
            irregular.segment_path([(0, 1)], 0)


class TestVerification:
    def test_valid_segments_verify(self):
        g = ring_graph(8)
        segs, _ = irregular.derive_partitions(g, 4)
        irregular.verify_segments(g, segs)   # must not raise

    def test_duplicate_link_detected(self):
        g = ring_graph(4)
        segs, _ = irregular.derive_partitions(g, 2)
        bad = [segs[0] + [segs[0][0]], segs[1]]
        with pytest.raises(AssertionError):
            irregular.verify_segments(g, bad)

    def test_missing_link_detected(self):
        g = ring_graph(4)
        segs, _ = irregular.derive_partitions(g, 2)
        bad = [segs[0][:-1], segs[1]]
        with pytest.raises(AssertionError):
            irregular.verify_segments(g, bad)


class TestChannelCoverage:
    """Cross-check over the topology families the scenario CLI sweeps:
    the derived segments must cover every directed channel exactly once,
    whatever the graph's degree profile."""

    @pytest.mark.parametrize("topology", ["ring:8", "star:6", "mesh:3x5",
                                          "torus:4x4", "hypercube:4"])
    @pytest.mark.parametrize("parts", [1, 2, 4])
    def test_segments_cover_every_directed_channel_once(self, topology,
                                                        parts):
        g = irregular.build_graph(topology)
        segs, routers_of = irregular.derive_partitions(g, parts)
        want = {(u, v) for u, v in g.edges()} \
            | {(v, u) for u, v in g.edges()}
        got = [link for seg in segs for link in seg]
        assert len(got) == len(want), "a channel is missing or doubled"
        assert set(got) == want
        assert len(routers_of) == parts
        irregular.verify_segments(g, segs)


class TestIrregularSchedule:
    def test_covers_all_routers(self):
        # odd mesh: the TDM mesh schedule works,
        g = irregular.build_graph("mesh:3x3")
        sched = irregular.IrregularSchedule(g, 3, slot_cycles=16)
        assert sched.covers_all()

    def test_primes_rotate_through_segment(self):
        g = ring_graph(8)
        sched = irregular.IrregularSchedule(g, 2, slot_cycles=16)
        routers = sched.routers_of[0]
        seen = {sched.prime_of_partition(0, ph)
                for ph in range(len(routers))}
        assert seen == set(routers)

    def test_targets_rotate(self):
        g = ring_graph(8)
        sched = irregular.IrregularSchedule(g, 4, slot_cycles=16)
        assert [sched.target_partition(1, s) for s in range(4)] == \
            [1, 2, 3, 0]

    def test_info(self):
        g = ring_graph(8)
        sched = irregular.IrregularSchedule(g, 2, slot_cycles=10)
        assert sched.info(0) == (0, 0)
        assert sched.info(15) == (0, 1)
        assert sched.info(20) == (1, 0)
