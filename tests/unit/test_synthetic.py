"""Unit tests for synthetic traffic patterns and generation."""

import pytest

from repro.config import SimConfig
from repro.traffic.synthetic import (
    PATTERNS,
    SyntheticTraffic,
    dest_bit_complement,
    dest_bit_rotation,
    dest_bit_reverse,
    dest_shuffle,
    dest_transpose,
)
from tests.conftest import make_network


class TestPatternFunctions:
    def test_transpose_is_involution(self):
        for src in range(64):
            d = dest_transpose(src, 64, 8, 8)
            assert dest_transpose(d, 64, 8, 8) == src

    def test_transpose_swaps_coords(self):
        # src (x=2, y=1) in 8x8 -> id 10; dst (1, 2) -> id 17
        assert dest_transpose(10, 64, 8, 8) == 17

    def test_transpose_requires_square(self):
        with pytest.raises(ValueError):
            dest_transpose(0, 32, 4, 8)

    def test_shuffle_rotates_left(self):
        assert dest_shuffle(0b000001, 64) == 0b000010
        assert dest_shuffle(0b100000, 64) == 0b000001

    def test_bit_rotation_rotates_right(self):
        assert dest_bit_rotation(0b000010, 64) == 0b000001
        assert dest_bit_rotation(0b000001, 64) == 0b100000

    def test_shuffle_rotation_inverse(self):
        for src in range(64):
            assert dest_bit_rotation(dest_shuffle(src, 64), 64) == src

    def test_bit_complement(self):
        assert dest_bit_complement(0, 64) == 63
        assert dest_bit_complement(0b101010, 64) == 0b010101

    def test_bit_reverse(self):
        assert dest_bit_reverse(0b000001, 64) == 0b100000
        assert dest_bit_reverse(0b110000, 64) == 0b000011

    def test_patterns_are_permutations(self):
        for fn in (dest_shuffle, dest_bit_rotation, dest_bit_complement,
                   dest_bit_reverse):
            dsts = {fn(s, 64) for s in range(64)}
            assert dsts == set(range(64))

    def test_power_of_two_required(self):
        with pytest.raises(ValueError):
            dest_shuffle(3, 48)


class TestSyntheticTraffic:
    def test_unknown_pattern_rejected(self):
        """An unknown pattern, and a rate that is not a probability (1.5
        would inject at every node every cycle, -0.1 never), fail at
        construction."""
        for pattern, rate in (("zipf", 0.1), ("uniform", 1.5),
                              ("uniform", -0.1)):
            with pytest.raises(ValueError):
                SyntheticTraffic(pattern, rate)

    def test_all_declared_patterns_construct(self):
        for p in PATTERNS:
            SyntheticTraffic(p, 0.1)

    def _generate(self, pattern, rate, cycles=200, rows=4, cols=4, seed=1):
        cfg = SimConfig(rows=rows, cols=cols)
        net = make_network(cfg)
        tr = SyntheticTraffic(pattern, rate, seed=seed)
        tr.bind(net)
        tr.measure_window(0, cycles)
        net.traffic = tr
        for _ in range(cycles):
            net.step()
        return net, tr

    def test_rate_respected(self):
        net, tr = self._generate("uniform", 0.2, cycles=400)
        expected = 0.2 * 16 * 400
        assert abs(tr.measured_generated - expected) < 0.2 * expected

    def test_zero_rate_generates_nothing(self):
        net, tr = self._generate("uniform", 0.0)
        assert tr.measured_generated == 0

    def test_uniform_never_self(self):
        net, tr = self._generate("uniform", 0.3, cycles=100)
        # all generated packets entered pending or the network; none were
        # locally delivered (src == dst is excluded by construction)
        for ni in net.nis:
            for pkt in ni.pending:
                assert pkt.dst != pkt.src

    def test_deterministic_given_seed(self):
        _n1, t1 = self._generate("uniform", 0.1, seed=42)
        _n2, t2 = self._generate("uniform", 0.1, seed=42)
        assert t1.measured_generated == t2.measured_generated

    def test_seeds_differ(self):
        _n1, t1 = self._generate("uniform", 0.1, seed=1)
        _n2, t2 = self._generate("uniform", 0.1, seed=2)
        assert t1.measured_generated != t2.measured_generated

    def test_measure_window_limits_counting(self):
        cfg = SimConfig(rows=4, cols=4)
        net = make_network(cfg)
        tr = SyntheticTraffic("uniform", 0.2, seed=1)
        tr.bind(net)
        tr.measure_window(50, 100)
        net.traffic = tr
        for _ in range(150):
            net.step()
        full = 0.2 * 16 * 50
        assert 0 < tr.measured_generated < 2 * full

    def test_mix_contains_both_sizes(self):
        net, tr = self._generate("uniform", 0.3, cycles=200)
        sizes = set()
        for ni in net.nis:
            sizes.update(p.size for p in ni.pending)
        for r in net.routers:
            sizes.update(s.pkt.size for s in r.occupied if s.pkt)
        assert {1, 5} <= sizes
