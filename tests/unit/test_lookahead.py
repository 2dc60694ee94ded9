"""Unit tests for the lookahead-signal encoding (Sec. III-C5)."""

import pytest

from repro.core.lookahead import (
    Lookahead,
    dst_bits,
    port_bits,
    signal_width,
    signals_along,
)
from repro.network.topology import Mesh
from tests.lemmas import verify_signals


class TestWidths:
    def test_paper_8x8_is_ten_bits(self):
        """'Assuming an 8x8 mesh, this information requires 10 bits.'"""
        assert signal_width(Mesh(8, 8)) == 10

    def test_dst_bits(self):
        assert dst_bits(Mesh(8, 8)) == 6
        assert dst_bits(Mesh(4, 4)) == 4
        assert dst_bits(Mesh(16, 16)) == 8

    def test_port_bits(self):
        assert port_bits() == 4


class TestEncoding:
    def test_roundtrip(self):
        mesh = Mesh(8, 8)
        for dst in (0, 17, 63):
            for port in range(5):
                sig = Lookahead(dst, port)
                assert Lookahead.decode(sig.encode(mesh), mesh) == sig

    def test_encoded_fits_width(self):
        mesh = Mesh(8, 8)
        sig = Lookahead(dst=63, out_port=4)
        assert sig.encode(mesh) < (1 << signal_width(mesh))


class TestSignalChain:
    @pytest.mark.parametrize("prime,dst", [(0, 63), (9, 14), (56, 7),
                                           (27, 27 + 8)])
    def test_forward_lane_signals_verify(self, prime, dst):
        mesh = Mesh(8, 8)
        path = mesh.xy_path(prime, dst)
        verify_signals(mesh, path, dst)

    def test_return_path_signals_verify(self):
        mesh = Mesh(8, 8)
        path = mesh.yx_path(63, 0)
        verify_signals(mesh, path, 0)

    def test_one_signal_per_hop(self):
        mesh = Mesh(4, 4)
        path = mesh.xy_path(0, 15)
        assert len(signals_along(mesh, path, 15)) == mesh.hops(0, 15)
