"""Compile a :class:`ScenarioSpec` into a first-class traffic source.

:class:`ScenarioTraffic` subclasses :class:`SyntheticTraffic` and
overrides only construction, ``bind`` and ``_fill`` — the inlined
``generate`` fast path (NI pending queue, obs ``generated`` emit,
injection active-set bookkeeping) is inherited verbatim, so scenario
sources ride the exact seam every engine (naive/active/soa) and the
seed fold already consume.

The one structural difference is that fills are **phase-clamped**: a
fill starting at cycle ``s`` spans ``min(CHUNK, occ_end - s)`` cycles,
never crossing a phase boundary.  That keeps every generated cycle
governed by exactly one :class:`PhaseSpec` (the partition-exactness
property) and makes the refill clock a pure function of the spec.

RNG draw order within one fill is fixed and documented (burst chain if
the phase bursts; the hit matrix; class picks; uniform destinations if
the phase pattern is uniform; hotspot gate + pick if the phase has
hotspots), so one seed always reproduces the identical stream.
"""

from __future__ import annotations

import numpy as np

from repro.scenario.spec import ScenarioSpec
from repro.traffic.synthetic import (
    _MIX_CLASSES, _MIX_CUM, SyntheticTraffic, dest_bit_complement,
    dest_bit_rotation, dest_bit_reverse, dest_shuffle, dest_transpose)


class ScenarioTraffic(SyntheticTraffic):
    """Open-loop traffic following a phased :class:`ScenarioSpec`."""

    def __init__(self, spec: ScenarioSpec, seed: int = 1,
                 stop: int | None = None):
        super().__init__("uniform", spec.mean_rate(), seed=seed, stop=stop)
        self.spec = spec
        # The pattern string is the point identity the campaign layer and
        # ReplicaBatch.run record in extras; rate stays the long-run
        # mean so saturation helpers keep a meaningful x-axis.
        self.pattern = f"scenario:{spec.name}"
        self._phase_dst: list = []   # per phase: fixed-dst table or None
        self._phase_hot: list = []   # per phase: (nodes, cumweights) or None
        # Burst chain state persists across fills within one phase
        # occurrence; _burst_occ remembers which occurrence it belongs to.
        self._burst_on = True
        self._burst_occ = -1

    # ------------------------------------------------------------------
    def bind(self, net) -> None:
        self._net = net
        self._fixed_dst = None
        n = net.mesh.n_routers
        rows, cols = net.mesh.rows, net.mesh.cols
        fns = {
            "transpose": lambda s: dest_transpose(s, n, rows, cols),
            "shuffle": lambda s: dest_shuffle(s, n),
            "bit_rotation": lambda s: dest_bit_rotation(s, n),
            "bit_complement": lambda s: dest_bit_complement(s, n),
            "bit_reverse": lambda s: dest_bit_reverse(s, n),
        }
        self._phase_dst = []
        self._phase_hot = []
        for i, phase in enumerate(self.spec.phases):
            if phase.pattern == "uniform":
                self._phase_dst.append(None)
            else:
                fn = fns[phase.pattern]
                self._phase_dst.append([fn(s) for s in range(n)])
            if phase.hotspots:
                bad = [node for node, _w in phase.hotspots if node >= n]
                if bad:
                    raise ValueError(
                        f"scenario {self.spec.name!r} phase {i}: hotspot "
                        f"nodes {bad} out of range for a {rows}x{cols} mesh")
                nodes = np.array([node for node, _w in phase.hotspots])
                weights = np.array([w for _n, w in phase.hotspots])
                self._phase_hot.append((nodes, np.cumsum(weights)))
            else:
                self._phase_hot.append(None)

    # ------------------------------------------------------------------
    def _fill(self, start: int) -> None:
        n = self._net.mesh.n_routers
        idx, occ_start, occ_end = self.spec.window_at(start)
        phase = self.spec.phases[idx]
        # Phase-clamped: never generate across a phase boundary.
        chunk = min(self.CHUNK, occ_end - start)

        # Draw 1: burst chain (only if this phase bursts).  One uniform
        # per cycle drives the two-state transition; the state at the
        # start of a cycle selects that cycle's rate.
        if phase.burst is not None:
            if occ_start != self._burst_occ:
                self._burst_on = True       # every occurrence starts on
                self._burst_occ = occ_start
            chain = self.rng.random(chunk)
            p_off = 1.0 / phase.burst.on_cycles
            p_on = 1.0 / phase.burst.off_cycles
            rates = np.empty(chunk)
            on = self._burst_on
            on_rate = phase.rate
            off_rate = phase.rate * phase.burst.off_scale
            for i in range(chunk):
                rates[i] = on_rate if on else off_rate
                if on:
                    if chain[i] < p_off:
                        on = False
                elif chain[i] < p_on:
                    on = True
            self._burst_on = on
            hits = self.rng.random((chunk, n)) < rates[:, None]
        else:
            # Draw 2: the hit matrix (always drawn, always (chunk, n)).
            hits = self.rng.random((chunk, n)) < phase.rate

        cyc_idx, src_idx = np.nonzero(hits)
        k = len(cyc_idx)
        if k:
            # Draw 3: message classes.
            cls_pick = np.searchsorted(_MIX_CUM, self.rng.random(k))
            # Draw 4: uniform destinations (only for uniform phases).
            if self._phase_dst[idx] is None:
                dsts = self.rng.integers(0, n - 1, size=k)
            # Draw 5: hotspot gate + pick (only for hotspot phases).
            hot = self._phase_hot[idx]
            if hot is not None:
                gate = self.rng.random(k)
                nodes, cum = hot
                hot_dst = nodes[np.searchsorted(
                    cum, self.rng.random(k) * cum[-1])]
        fixed = self._phase_dst[idx]
        frac = phase.hotspot_frac
        by_cycle = self._by_cycle
        for i in range(k):
            src = int(src_idx[i])
            if hot is not None and gate[i] < frac:
                dst = int(hot_dst[i])
            elif fixed is not None:
                dst = fixed[src]
            else:
                d = int(dsts[i])
                dst = d if d < src else d + 1
            if dst == src:
                continue  # self-traffic does not inject
            cls = _MIX_CLASSES[min(int(cls_pick[i]), 5)]
            cycle = start + int(cyc_idx[i])
            by_cycle.setdefault(cycle, []).append((src, dst, int(cls)))
        self._chunk_end = start + chunk
