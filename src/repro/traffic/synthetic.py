"""Open-loop traffic: the synthetic patterns (Table II: Uniform,
Transpose, Shuffle, plus Bit Rotation / Bit Complement used in Fig. 7 and
Bit Reverse) with a mix of 1-flit and 5-flit packets, driven by a phase
schedule.

A source runs one :class:`~repro.traffic.spec.ScenarioSpec`.  The
paper's case, ``SyntheticTraffic(pattern, rate)``, is the one-phase
schedule: ``pattern`` at ``rate``, one :attr:`~SyntheticTraffic.CHUNK`
long, repeating.  A scenario passes its own spec to the same constructor.
Injection is an open-loop Bernoulli process per node.  Generation is done
in vectorized chunks (numpy) so the per-cycle cost of the Python
simulator stays low.

Fills are **phase-clamped**: a fill starting at cycle ``s`` spans
``min(CHUNK, occ_end - s)`` cycles, never crossing a phase boundary, so
every generated cycle is governed by exactly one phase and the refill
clock is a pure function of the spec (a one-phase schedule never
clamps).  The RNG draw order within one fill is fixed — burst chain if
the phase bursts; the hit matrix; class picks; uniform destinations if
the phase pattern is uniform; hotspot gate + pick if the phase has
hotspots — so one seed always reproduces the identical stream.
"""

from __future__ import annotations

import numpy as np

from repro.network.packet import MessageClass, Packet
from repro.traffic.spec import PATTERNS, PhaseSpec, ScenarioSpec

__all__ = ["PATTERNS", "SyntheticTraffic", "dest_bit_complement",
           "dest_bit_reverse", "dest_bit_rotation", "dest_shuffle",
           "dest_transpose"]

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
_MIX_CLASSES = np.array([int(c) for c, _w in _CLASS_MIX])
_MIX_CUM = np.cumsum([w for _c, w in _CLASS_MIX])


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


class SyntheticTraffic:
    """Open-loop Bernoulli traffic following a phase schedule.

    ``spec`` is the schedule; None is the one-phase schedule of
    ``pattern`` at ``rate``.  ``pattern`` and ``rate`` are what a run
    records as its ``extra["pattern"]`` / ``extra["rate"]`` — for a
    scenario, ``scenario:<name>`` and the spec's mean rate.
    """

    CHUNK = 256

    def __init__(self, pattern: str, rate: float, seed: int = 1,
                 stop: int | None = None, spec: ScenarioSpec | None = None):
        if spec is None:
            spec = ScenarioSpec(pattern, (PhaseSpec(self.CHUNK, pattern,
                                                    rate),))
        self.spec = spec
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
        #: per phase: (fixed destination per source or None for uniform,
        #: (hotspot nodes, cumulative weights) or None)
        self._tables: list = []
        # Burst chain state persists across fills within one phase
        # occurrence; _burst_occ remembers which occurrence it belongs to.
        self._burst_on = True
        self._burst_occ = -1

    # ------------------------------------------------------------------
    def bind(self, net) -> None:
        self._net = net
        n = net.mesh.n_routers
        rows, cols = net.mesh.rows, net.mesh.cols
        fixed = {
            "transpose": lambda s: dest_transpose(s, n, rows, cols),
            "shuffle": lambda s: dest_shuffle(s, n),
            "bit_rotation": lambda s: dest_bit_rotation(s, n),
            "bit_complement": lambda s: dest_bit_complement(s, n),
            "bit_reverse": lambda s: dest_bit_reverse(s, n),
        }
        self._tables = []
        for i, phase in enumerate(self.spec.phases):
            dst = None
            if phase.pattern != "uniform":
                fn = fixed[phase.pattern]
                dst = np.array([fn(s) for s in range(n)])
            hot = None
            if phase.hotspots:
                bad = [node for node, _w in phase.hotspots if node >= n]
                if bad:
                    raise ValueError(
                        f"scenario {self.spec.name!r} phase {i}: hotspot "
                        f"nodes {bad} out of range for a {rows}x{cols} mesh")
                hot = (np.array([node for node, _w in phase.hotspots]),
                       np.cumsum([w for _n, w in phase.hotspots]))
            self._tables.append((dst, hot))

    def measure_window(self, start: int, end: int) -> None:
        self.measure_start = start
        self.measure_end = end

    # ------------------------------------------------------------------
    def _fill(self, start: int) -> None:
        n = self._net.mesh.n_routers
        idx, occ_start, occ_end = self.spec.window_at(start)
        phase = self.spec.phases[idx]
        fixed, hot = self._tables[idx]
        chunk = min(self.CHUNK, occ_end - start)
        self._chunk_end = start + chunk
        rng = self.rng

        # Draw 1: burst chain (only if this phase bursts).  One uniform
        # per cycle drives the two-state transition; the state at the
        # start of a cycle selects that cycle's rate.
        rate = phase.rate
        if phase.burst is not None:
            if occ_start != self._burst_occ:
                self._burst_on = True       # every occurrence starts on
                self._burst_occ = occ_start
            chain = rng.random(chunk)
            p_off = 1.0 / phase.burst.on_cycles
            p_on = 1.0 / phase.burst.off_cycles
            rate = np.empty((chunk, 1))
            on = self._burst_on
            off_rate = phase.rate * phase.burst.off_scale
            for i in range(chunk):
                rate[i] = phase.rate if on else off_rate
                if on:
                    if chain[i] < p_off:
                        on = False
                elif chain[i] < p_on:
                    on = True
            self._burst_on = on

        # Draw 2: the hit matrix (always drawn, always (chunk, n)).
        cyc, src = np.nonzero(rng.random((chunk, n)) < rate)
        k = len(cyc)
        if not k:
            return
        # Draw 3: message classes.
        cls = _MIX_CLASSES[np.minimum(
            np.searchsorted(_MIX_CUM, rng.random(k)), 5)]
        # Draw 4: uniform destinations (only for uniform phases), drawn
        # from the n - 1 nodes other than the source.
        if fixed is None:
            dst = rng.integers(0, n - 1, size=k)
            dst += dst >= src
        else:
            dst = fixed[src]
        # Draw 5: hotspot gate + pick (only for hotspot phases).
        if hot is not None:
            gate = rng.random(k)
            nodes, cum = hot
            pick = nodes[np.searchsorted(cum, rng.random(k) * cum[-1])]
            dst = np.where(gate < phase.hotspot_frac, pick, dst)
        # Self-traffic (fixed-pattern fixed points, hotspot hits on the
        # source) does not inject.
        keep = dst != src
        by_cycle = self._by_cycle
        for cycle, s, d, c in zip((cyc[keep] + start).tolist(),
                                  src[keep].tolist(), dst[keep].tolist(),
                                  cls[keep].tolist()):
            by_cycle.setdefault(cycle, []).append((s, d, c))

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
        # every event goes straight to the source queue.
        nis = net.nis
        exposed = net.fault_exposed
        inj_active = net._inj_active
        obs = net.obs
        queued = 0
        for src, dst, cls in events:
            pkt = Packet(src, dst, cls, now)
            pkt.measured = measured
            ni = nis[src]
            if obs is not None:
                obs.emit("generated", now, pkt.pid,
                         src=src, dst=dst, mclass=cls)
            if exposed:
                pkt.fault_exposed = True
            pending = ni.pending
            if not pending:
                # Only a packet at the head of ``pending`` can refill, so
                # only it wakes the NI; one queued behind a blocked head
                # finds its NI inject-active already.
                ni.retry_at = 0
                inj_active.add(src)
            pending.append(pkt)
            queued += 1
        net.pending_total += queued
