"""The lookahead signal (Secs. III-C5, III-E).

One cycle ahead of a FastPass-Packet, each router on the lane receives a
lookahead carrying the *destination id* and the *intended output port*, so
it can set its D0/M2 muxes and suppress regular packets on that port.  For
an 8x8 mesh this is 6 + 4 = 10 bits, carried on the first 10 bits of the
datapath ("FastPass uses the first 10 bits of the datapath as lookahead").

The cycle-level simulator enforces the lookahead's *effect* through link
reservation windows; this module provides the bit-accurate signal itself —
encoding and per-hop update — used by the area model (signal width), the
lane lemma checks (``tests/lemmas.py`` walks every lane by its signals),
and anyone building RTL from this reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.network.topology import Mesh, PORT_NAMES


def dst_bits(mesh: Mesh) -> int:
    """Bits needed to name any router (6 for an 8x8 mesh)."""
    return max(1, math.ceil(math.log2(mesh.n_routers)))


def port_bits() -> int:
    """Bits of the output-port id field.

    The paper budgets 10 bits total on an 8x8 mesh (6 destination bits),
    i.e. a 4-bit port field — one bit per network direction (N/E/S/W),
    with all-zeros meaning Local/eject.
    """
    return 4


def signal_width(mesh: Mesh) -> int:
    """Total lookahead width; 10 bits for the paper's 8x8 mesh."""
    return dst_bits(mesh) + port_bits()


@dataclass(frozen=True)
class Lookahead:
    """A decoded lookahead signal at one router of the lane."""

    dst: int
    out_port: int

    def encode(self, mesh: Mesh) -> int:
        return (self.dst << port_bits()) | self.out_port

    @staticmethod
    def decode(raw: int, mesh: Mesh) -> "Lookahead":
        mask = (1 << port_bits()) - 1
        return Lookahead(dst=raw >> port_bits(), out_port=raw & mask)

    def describe(self) -> str:  # pragma: no cover - debugging aid
        return f"dst={self.dst} via {PORT_NAMES[self.out_port]}"


def signals_along(mesh: Mesh, path: list[tuple[int, int]],
                  dst: int) -> list[Lookahead]:
    """The lookahead each router on ``path`` forwards downstream.

    ``path`` is the directed link list of a lane traversal; the router at
    hop ``k`` sends ``(dst, out_port_at_hop_k+1)`` one cycle before the
    packet arrives there.  Since routing is minimal and deterministic (XY
    forward / YX return), every router can pre-compute the next output
    port from the destination alone — which is what lets the signal be
    updated and forwarded without any routing stage.
    """
    out = []
    for k, (_rid, port) in enumerate(path):
        out.append(Lookahead(dst=dst, out_port=port))
    return out
