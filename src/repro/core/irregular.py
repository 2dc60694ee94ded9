"""FastPass partitions for irregular topologies (Sec. III-F).

The paper: *"we can leverage algorithms from prior work [DRAIN] that can
find holistic paths that are guaranteed to traverse every physical link in
the network exactly once.  Such algorithms are applicable to any arbitrary
topology as long as all channels between routers are bidirectional.
Segmenting a holistic path is guaranteed to produce a set of
non-overlapping paths, which FastPass can use to derive its partitions."*

With bidirectional channels, the directed channel graph has equal in- and
out-degree at every router, so a directed Eulerian circuit (the *holistic
path*) always exists on each connected component.  Cutting the circuit
into ``P`` contiguous segments yields link-disjoint corridors that jointly
cover every directed channel exactly once — the partitions.
"""

from __future__ import annotations


def holistic_path(graph: "nx.Graph") -> list[tuple[int, int]]:
    """The directed Eulerian circuit over both directions of every channel.

    ``graph`` is the undirected channel graph (each edge = one
    bidirectional channel).  Raises ``ValueError`` for graphs that are not
    connected.
    """
    import networkx as nx    # ~170 ms: kept off every other start-up

    if graph.number_of_nodes() == 0:
        return []
    if not nx.is_connected(graph):
        raise ValueError("topology must be connected")
    if graph.number_of_edges() == 0:
        # A single isolated router is connected but has no channels to
        # traverse; the holistic path is empty rather than an Eulerian
        # failure inside networkx.
        return []
    digraph = graph.to_directed()   # both directions of every channel
    start = min(graph.nodes)
    return [(u, v) for u, v in nx.eulerian_circuit(digraph, source=start)]


def segment_path(path: list[tuple[int, int]],
                 n_segments: int) -> list[list[tuple[int, int]]]:
    """Cut the holistic path into ``n_segments`` contiguous, link-disjoint
    segments of near-equal length."""
    if n_segments < 1:
        raise ValueError("need at least one segment")
    if n_segments > len(path):
        raise ValueError(
            f"cannot cut a {len(path)}-link path into {n_segments} segments")
    total = len(path)
    bounds = [round(i * total / n_segments) for i in range(n_segments + 1)]
    return [path[bounds[i]:bounds[i + 1]] for i in range(n_segments)]


def derive_partitions(graph: "nx.Graph", n_partitions: int):
    """Partitions for FastPass on an arbitrary topology.

    Returns ``(segments, routers_of)`` where ``segments[i]`` is the i-th
    segment's directed link list and ``routers_of[i]`` the ordered routers
    it visits.  Together the segments traverse every directed channel
    exactly once and are pairwise link-disjoint, so at any instant one
    FastPass-Packet per segment can progress with no possible collision.
    """
    path = holistic_path(graph)
    segments = segment_path(path, n_partitions)
    routers_of = []
    for seg in segments:
        routers = [seg[0][0]] + [v for _u, v in seg]
        routers_of.append(routers)
    return segments, routers_of


def verify_segments(graph: "nx.Graph", segments) -> None:
    """Assert the Sec. III-F guarantees:

    1. segments are pairwise link-disjoint (directed),
    2. together they cover every directed channel exactly once,
    3. each segment is a connected walk.
    """
    seen: set[tuple[int, int]] = set()
    for seg in segments:
        for i, (u, v) in enumerate(seg):
            assert (u, v) not in seen, f"link {(u, v)} appears twice"
            seen.add((u, v))
            if i:
                assert seg[i - 1][1] == u, "segment is not a contiguous walk"
    expect = set()
    for u, v in graph.edges:
        expect.add((u, v))
        expect.add((v, u))
    assert seen == expect, (
        f"coverage mismatch: missing {expect - seen}, extra {seen - expect}")


class IrregularSchedule:
    """TDM schedule over segment partitions of an arbitrary topology.

    Mirrors :class:`~repro.core.schedule.TdmSchedule`: each segment has one
    prime router that rotates through the segment's routers phase by phase,
    and in slot ``s`` the prime of segment ``i`` covers the routers of
    segment ``(i + s) mod P``.
    """

    def __init__(self, graph: "nx.Graph", n_partitions: int,
                 slot_cycles: int):
        self.segments, self.routers_of = derive_partitions(graph,
                                                           n_partitions)
        self.P = n_partitions
        self.K = slot_cycles
        self.phase_len = self.P * self.K
        self.max_primes = max(len(r) for r in self.routers_of)
        self.rotation_len = self.max_primes * self.phase_len

    def info(self, cycle: int):
        phase = cycle // self.phase_len
        slot = (cycle % self.phase_len) // self.K
        return phase, slot

    def prime_of_partition(self, partition: int, phase: int) -> int:
        routers = self.routers_of[partition]
        return routers[phase % len(routers)]

    def target_partition(self, partition: int, slot: int) -> int:
        return (partition + slot) % self.P

    def covers_all(self) -> bool:
        """Every router of the topology lies on at least one segment."""
        visited = set()
        for routers in self.routers_of:
            visited.update(routers)
        nodes = set()
        for seg in self.segments:
            for u, v in seg:
                nodes.add(u)
                nodes.add(v)
        return visited == nodes
