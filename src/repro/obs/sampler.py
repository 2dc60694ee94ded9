"""Periodic time-series sampling of gauge metrics.

The sampler is invoked at the tail of the network's cycle every
``sample_every`` cycles (see :meth:`repro.network.network.Network.step`)
and appends the current reading of each registered scalar
gauge to an in-memory series.

Result neutrality: a sample is a pure *read* — it consults the network's
incrementally maintained counters and queue *lengths*, never
occupied-list order, and mutates nothing, so a run with sampling on is
bit-identical to one with it off.
"""

from __future__ import annotations

from repro.obs.registry import Gauge, MetricsRegistry


class TimeSeriesSampler:
    """Fixed-cadence series of ``(cycle, value)`` per tracked gauge."""

    def __init__(self, registry: MetricsRegistry,
                 max_samples: int = 100000):
        self.registry = registry
        self.max_samples = max_samples
        #: gauge name -> ([cycles], [values])
        self.series: dict[str, tuple[list, list]] = {}
        self._tracked: list[Gauge] = []
        self.dropped_samples = 0

    def track(self, gauge: Gauge) -> None:
        """Add a scalar gauge to the sampled set."""
        self._tracked.append(gauge)
        self.series[gauge.name] = ([], [])

    def track_all_gauges(self) -> None:
        for m in self.registry:
            if isinstance(m, Gauge):
                self.track(m)

    def sample(self, now: int) -> None:
        for g in self._tracked:
            cycles, values = self.series[g.name]
            if len(cycles) >= self.max_samples:
                # Bounded memory: silently capping would misread as "the
                # run ended here", so the drop count is exported too.
                self.dropped_samples += 1
                continue
            cycles.append(now)
            values.append(g.read())

    def to_json(self) -> dict:
        return {
            "series": {name: {"cycles": c, "values": v}
                       for name, (c, v) in self.series.items()},
            "dropped_samples": self.dropped_samples,
        }
