"""Synthetic traffic patterns (Table II: Uniform, Transpose, Shuffle, plus
Bit Rotation / Bit Complement used in Fig. 7) with a mix of 1-flit and
5-flit packets.

Injection is an open-loop Bernoulli process per node.  Generation is done
in vectorized chunks (numpy) so the per-cycle cost of the Python simulator
stays low.
"""

from __future__ import annotations

import numpy as np

from repro.network.packet import MessageClass, Packet

#: Message-class mix of the 1-flit / 5-flit synthetic traffic.  The skew
#: follows what coherence protocols actually put on the wire (requests and
#: data responses dominate; the other classes trickle) — this is what makes
#: 6-VN over-provisioning costly for the baselines, the paper's core
#: motivation: most VNs idle while the loaded classes starve for VCs.
_CLASS_MIX = (
    (MessageClass.REQUEST, 0.50),
    (MessageClass.RESPONSE, 0.30),
    (MessageClass.FORWARD, 0.08),
    (MessageClass.WRITEBACK, 0.08),
    (MessageClass.UNBLOCK, 0.03),
    (MessageClass.DMA, 0.01),
)
_MIX_CLASSES = [int(c) for c, _w in _CLASS_MIX]
_MIX_CUM = []
_acc = 0.0
for _c, _w in _CLASS_MIX:
    _acc += _w
    _MIX_CUM.append(_acc)


def _bits(n: int) -> int:
    b = n.bit_length() - 1
    if 1 << b != n:
        raise ValueError(f"pattern needs a power-of-two node count, got {n}")
    return b


def dest_transpose(src: int, n: int, rows: int, cols: int) -> int:
    x, y = src % cols, src // cols
    if rows != cols:
        raise ValueError("transpose requires a square mesh")
    return x * cols + y


def dest_shuffle(src: int, n: int) -> int:
    b = _bits(n)
    return ((src << 1) | (src >> (b - 1))) & (n - 1)


def dest_bit_rotation(src: int, n: int) -> int:
    b = _bits(n)
    return ((src >> 1) | ((src & 1) << (b - 1))) & (n - 1)


def dest_bit_complement(src: int, n: int) -> int:
    return (~src) & (n - 1)


def dest_bit_reverse(src: int, n: int) -> int:
    b = _bits(n)
    out = 0
    for i in range(b):
        out |= ((src >> i) & 1) << (b - 1 - i)
    return out


PATTERNS = ("uniform", "transpose", "shuffle", "bit_rotation",
            "bit_complement", "bit_reverse")


class SyntheticTraffic:
    """Open-loop Bernoulli traffic following a named pattern."""

    CHUNK = 256

    def __init__(self, pattern: str, rate: float, seed: int = 1,
                 stop: int | None = None):
        if pattern not in PATTERNS:
            raise ValueError(f"unknown pattern {pattern!r}")
        self.pattern = pattern
        self.rate = rate
        #: last generation cycle (exclusive); None = open-loop forever.
        #: Fault runs stop generation after the measurement window so a
        #: wedged network stalls globally and the watchdog can fire
        #: instead of background traffic masking the stuck packets.
        self.stop = stop
        self.rng = np.random.default_rng(seed)
        self.measure_start = 1 << 60
        self.measure_end = 1 << 60
        self.measured_generated = 0
        self._by_cycle: dict[int, list] = {}
        self._chunk_end = 0
        self._net = None
        self._fixed_dst: list[int] | None = None

    # ------------------------------------------------------------------
    def bind(self, net) -> None:
        self._net = net
        n = net.mesh.n_routers
        rows, cols = net.mesh.rows, net.mesh.cols
        if self.pattern == "uniform":
            self._fixed_dst = None
        else:
            fn = {
                "transpose": lambda s: dest_transpose(s, n, rows, cols),
                "shuffle": lambda s: dest_shuffle(s, n),
                "bit_rotation": lambda s: dest_bit_rotation(s, n),
                "bit_complement": lambda s: dest_bit_complement(s, n),
                "bit_reverse": lambda s: dest_bit_reverse(s, n),
            }[self.pattern]
            self._fixed_dst = [fn(s) for s in range(n)]

    def measure_window(self, start: int, end: int) -> None:
        self.measure_start = start
        self.measure_end = end

    # ------------------------------------------------------------------
    def _fill(self, start: int) -> None:
        n = self._net.mesh.n_routers
        chunk = self.CHUNK
        hits = self.rng.random((chunk, n)) < self.rate
        cyc_idx, src_idx = np.nonzero(hits)
        k = len(cyc_idx)
        if k:
            cls_pick = np.searchsorted(_MIX_CUM, self.rng.random(k))
            if self.pattern == "uniform":
                dsts = self.rng.integers(0, n - 1, size=k)
        by_cycle = self._by_cycle
        for i in range(k):
            src = int(src_idx[i])
            if self._fixed_dst is not None:
                dst = self._fixed_dst[src]
            else:
                d = int(dsts[i])
                dst = d if d < src else d + 1
            if dst == src:
                continue  # fixed-pattern fixed points do not inject
            cls = _MIX_CLASSES[min(int(cls_pick[i]), 5)]
            cycle = start + int(cyc_idx[i])
            by_cycle.setdefault(cycle, []).append((src, dst, int(cls)))
        self._chunk_end = start + chunk

    def generate(self, net, now: int) -> None:
        if self.stop is not None and now >= self.stop:
            return
        if now >= self._chunk_end:
            self._fill(now)
        events = self._by_cycle.pop(now, None)
        if not events:
            return
        measured = self.measure_start <= now < self.measure_end
        if measured:
            self.measured_generated += len(events)
        # Inlined NI.source fast path: _fill never emits src == dst, so
        # every event goes straight to the source queue.  A test that
        # patches ``source`` onto the NI instance keeps the full call
        # (which then emits 'generated' itself — no double counting).
        nis = net.nis
        exposed = net.fault_exposed
        inj_active = net._inj_active
        obs = net.obs
        queued = 0
        for src, dst, cls in events:
            pkt = Packet(src, dst, cls, now)
            pkt.measured = measured
            ni = nis[src]
            if "source" in ni.__dict__:
                ni.source(pkt)
                continue
            if obs is not None:
                obs.emit("generated", now, pkt.pid,
                         src=src, dst=dst, mclass=cls)
            if exposed:
                pkt.fault_exposed = True
            ni.pending.append(pkt)
            ni._inj_skip = 0
            queued += 1
            inj_active.add(src)
        net.pending_total += queued
