"""Irregular-topology scenarios (paper §III-F).

The mesh simulator does not execute arbitrary graphs, but the paper's
§III-F claims live entirely at the *schedule* level: an Eulerian-circuit
holistic path exists, segmenting it yields link-disjoint partitions that
cover every directed channel exactly once, and the resulting TDM schedule
retains FastPass's guaranteed-delivery bound.  An irregular scenario
point therefore runs the full derivation chain in ``core/irregular.py``
(circuit → segments → :class:`IrregularSchedule`), executes
``verify_segments`` as a hard gate, and reports the schedule analytics —
circuit length, segment balance, phase/rotation lengths, and the
Sec. III-C delivery bound ``2 * rotation + phase`` — as a
:class:`RunResult` the campaign layer caches like any other point.
"""

from __future__ import annotations

from repro.config import RunResult
from repro.core.irregular import IrregularSchedule, verify_segments


def build_graph(name: str):
    """A named topology family: ``ring:N``, ``mesh:RxC``, ``torus:RxC``,
    ``hypercube:D``, ``star:N``.  All have bidirectional channels only,
    the §III-F applicability condition."""
    import networkx as nx

    kind, _, arg = name.partition(":")
    try:
        if kind == "ring":
            n = int(arg)
            if n < 3:
                raise ValueError("ring needs >= 3 nodes")
            return nx.cycle_graph(n)
        if kind in ("mesh", "torus"):
            r, c = (int(x) for x in arg.split("x"))
            if r < 2 or c < 2:
                raise ValueError(f"{kind} needs >= 2x2")
            g = nx.grid_2d_graph(r, c, periodic=(kind == "torus"))
            return nx.convert_node_labels_to_integers(g, ordering="sorted")
        if kind == "hypercube":
            d = int(arg)
            if d < 1:
                raise ValueError("hypercube needs dimension >= 1")
            return nx.hypercube_graph(d) if d > 1 else nx.path_graph(2)
        if kind == "star":
            n = int(arg)
            if n < 3:
                raise ValueError("star needs >= 3 nodes")
            return nx.star_graph(n - 1)   # n nodes total, hub = 0
    except (ValueError, TypeError) as e:
        if "needs" in str(e):
            raise
        raise ValueError(f"bad topology spec {name!r}: {e}") from e
    raise ValueError(
        f"unknown topology family {kind!r} in {name!r}; "
        "use ring:N, mesh:RxC, torus:RxC, hypercube:D, star:N")


def run_irregular(topology: str, n_partitions: int,
                  slot_cycles: int = 32) -> RunResult:
    """Derive, verify and characterise FastPass partitions for an
    irregular topology.  Raises if the §III-F guarantees do not hold."""
    graph = build_graph(topology)
    sched = IrregularSchedule(graph, n_partitions, slot_cycles)
    verify_segments(graph, sched.segments)
    if not sched.covers_all():
        raise AssertionError(
            f"{topology}: schedule does not cover every router")
    seg_lens = [len(s) for s in sched.segments]
    res = RunResult(scheme="fastpass")
    res.cycles = sched.rotation_len
    res.extra.update({
        "topology": topology,
        "routers": graph.number_of_nodes(),
        "channels": graph.number_of_edges(),
        "circuit_len": sum(seg_lens),
        "partitions": sched.P,
        "slot_cycles": sched.K,
        "segment_min": min(seg_lens),
        "segment_max": max(seg_lens),
        "phase_len": sched.phase_len,
        "rotation_len": sched.rotation_len,
        # Sec. III-C delivery bound, as certified by the liveness auditor
        # on meshes: any packet is delivered within two full rotations
        # plus one phase.
        "delivery_bound": 2 * sched.rotation_len + sched.phase_len,
        "covers_all": True,
    })
    return res

