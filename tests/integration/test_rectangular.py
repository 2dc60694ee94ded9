"""Integration: non-square meshes.

The baselines must work on rectangular meshes; the mesh TDM schedule of
FastPass requires a square mesh (concurrent primes must avoid sharing
rows) and must say so loudly — the irregular-topology segmentation is the
documented route for everything else (Sec. III-F).  The conformance
matrix (``tests/matrix.py``) has the 4x6 rectangle on its topology axis.
"""

import pytest

from repro.config import SimConfig
from repro.core.irregular import build_graph
from repro.schemes import get_scheme
from repro.sim.engine import Simulation, build_network
from repro.traffic.synthetic import SyntheticTraffic


def rect_cfg(rows=4, cols=6):
    return SimConfig(rows=rows, cols=cols, warmup_cycles=100,
                     measure_cycles=400, drain_cycles=1500)


class TestBaselinesOnRectangles:
    @pytest.mark.parametrize("name", ["escapevc", "swap", "tfc", "minbd",
                                      "pitstop", "baseline"])
    def test_uniform_delivery(self, name):
        sim = Simulation(rect_cfg(), get_scheme(name),
                         SyntheticTraffic("uniform", 0.05, seed=8))
        res = sim.run()
        assert res.extra["undelivered"] == 0
        assert not res.deadlocked

    def test_drain_needs_even_dimension_only(self):
        # 4x6: fine (even rows); 3x4: fine (even cols)
        for rows, cols in [(4, 6), (3, 4)]:
            sim = Simulation(rect_cfg(rows, cols), get_scheme("drain"),
                             SyntheticTraffic("uniform", 0.05, seed=8))
            res = sim.run()
            assert res.extra["undelivered"] == 0

    def test_tall_and_wide(self):
        for rows, cols in [(8, 2), (2, 8)]:
            sim = Simulation(rect_cfg(rows, cols), get_scheme("escapevc"),
                             SyntheticTraffic("uniform", 0.05, seed=8))
            res = sim.run()
            assert res.extra["undelivered"] == 0


class TestFastPassRequiresSquare:
    def test_rectangular_mesh_rejected_clearly(self):
        with pytest.raises(ValueError, match="square"):
            build_network(rect_cfg(4, 6), get_scheme("fastpass", n_vcs=2))

    def test_irregular_module_is_the_documented_alternative(self):
        """The rectangle works through the Sec. III-F segmentation."""
        from repro.core import irregular
        g = build_graph("mesh:4x6")
        segments, _ = irregular.derive_partitions(g, 6)
        irregular.verify_segments(g, segments)
        sched = irregular.IrregularSchedule(g, 6, slot_cycles=64)
        assert sched.covers_all()
