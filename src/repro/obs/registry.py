"""The metrics registry: named counters, gauges and histograms.

Prometheus-flavoured but dependency-free.  Metrics are registered once
(usually by :class:`repro.obs.setup.Observability` at attach time) and
read at export/sampling time; nothing here touches simulation state, and
gauges are *callback-backed* — they read the network's incrementally
maintained counters (``buffered``, ``inj_total``, …) or queue lengths,
never occupied-list order, so collecting them leaves results
bit-identical.
"""

from __future__ import annotations

import math


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("name", "help", "labels", "value")

    def __init__(self, name: str, help: str = "", labels: tuple = ()):
        self.name = name
        self.help = help
        #: ((label_name, label_value), ...) for family children, () else
        self.labels = labels
        self.value = 0

    def inc(self, n: int = 1) -> None:
        self.value += n


class CounterFamily:
    """A counter per label-value combination (e.g. upgrades per lane)."""

    __slots__ = ("name", "help", "label_names", "_children")

    def __init__(self, name: str, help: str, label_names: tuple):
        self.name = name
        self.help = help
        self.label_names = tuple(label_names)
        self._children: dict[tuple, Counter] = {}

    def labels(self, *values) -> Counter:
        key = tuple(str(v) for v in values)
        child = self._children.get(key)
        if child is None:
            if len(key) != len(self.label_names):
                raise ValueError(
                    f"{self.name}: expected labels {self.label_names}, "
                    f"got {values!r}")
            child = self._children[key] = Counter(
                self.name, self.help,
                tuple(zip(self.label_names, key)))
        return child

    def children(self) -> list[Counter]:
        return [self._children[k] for k in sorted(self._children)]

    def total(self) -> int:
        return sum(c.value for c in self._children.values())


class Gauge:
    """A point-in-time reading backed by a zero-argument callback."""

    __slots__ = ("name", "help", "fn")

    def __init__(self, name: str, help: str, fn):
        self.name = name
        self.help = help
        self.fn = fn

    def read(self):
        return self.fn()


class MultiGauge:
    """A labelled gauge whose callback yields ``(label_value, value)``
    pairs — e.g. per-router VC occupancy without 64 separate closures."""

    __slots__ = ("name", "help", "label_name", "fn")

    def __init__(self, name: str, help: str, label_name: str, fn):
        self.name = name
        self.help = help
        self.label_name = label_name
        self.fn = fn

    def read(self) -> list[tuple[str, float]]:
        return [(str(k), v) for k, v in self.fn()]


#: default latency buckets (cycles), roughly powers of two up to the
#: guaranteed-delivery regime; the +Inf bucket is implicit.
DEFAULT_BUCKETS = (8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096)


class Histogram:
    """Fixed-bucket histogram with Prometheus cumulative-``le`` export."""

    __slots__ = ("name", "help", "buckets", "counts", "sum", "count")

    def __init__(self, name: str, help: str = "",
                 buckets: tuple = DEFAULT_BUCKETS):
        self.name = name
        self.help = help
        self.buckets = tuple(sorted(buckets))
        self.counts = [0] * (len(self.buckets) + 1)   # last = +Inf
        self.sum = 0
        self.count = 0

    def observe(self, v) -> None:
        self.sum += v
        self.count += 1
        for i, b in enumerate(self.buckets):
            if v <= b:
                self.counts[i] += 1
                return
        self.counts[-1] += 1

    def cumulative(self) -> list[tuple[float, int]]:
        """``(le, cumulative_count)`` pairs, ending with (+Inf, count)."""
        out = []
        acc = 0
        for b, c in zip(self.buckets, self.counts):
            acc += c
            out.append((float(b), acc))
        out.append((math.inf, self.count))
        return out

    def mean(self) -> float:
        return self.sum / self.count if self.count else float("nan")

    def quantile(self, q: float) -> float:
        """Bucket-resolution quantile estimate (upper bucket bound)."""
        if not self.count:
            return float("nan")
        rank = q * self.count
        acc = 0
        for b, c in zip(self.buckets, self.counts):
            acc += c
            if acc >= rank:
                return float(b)
        return math.inf


class MetricsRegistry:
    """Flat namespace of metrics; the export surface walks it in
    registration order."""

    def __init__(self):
        self._metrics: dict[str, object] = {}

    # -- registration ---------------------------------------------------
    def _add(self, metric):
        if metric.name in self._metrics:
            raise ValueError(f"metric {metric.name!r} already registered")
        self._metrics[metric.name] = metric
        return metric

    def counter(self, name: str, help: str = "") -> Counter:
        return self._add(Counter(name, help))

    def counter_family(self, name: str, help: str = "",
                       labels: tuple = ()) -> CounterFamily:
        return self._add(CounterFamily(name, help, labels))

    def gauge(self, name: str, help: str, fn) -> Gauge:
        return self._add(Gauge(name, help, fn))

    def multi_gauge(self, name: str, help: str, label_name: str,
                    fn) -> MultiGauge:
        return self._add(MultiGauge(name, help, label_name, fn))

    def histogram(self, name: str, help: str = "",
                  buckets: tuple = DEFAULT_BUCKETS) -> Histogram:
        return self._add(Histogram(name, help, buckets))

    # -- access ---------------------------------------------------------
    def get(self, name: str):
        return self._metrics[name]

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def __iter__(self):
        return iter(self._metrics.values())

    def names(self) -> list[str]:
        return list(self._metrics)

    # -- snapshots ------------------------------------------------------
    def to_json(self) -> dict:
        """A JSON-serializable snapshot of every metric's current state."""
        counters: dict[str, object] = {}
        gauges: dict[str, object] = {}
        histograms: dict[str, object] = {}
        for m in self:
            if isinstance(m, Counter):
                counters[m.name] = m.value
            elif isinstance(m, CounterFamily):
                counters[m.name] = {
                    ",".join(f"{k}={v}" for k, v in c.labels): c.value
                    for c in m.children()}
            elif isinstance(m, Gauge):
                gauges[m.name] = m.read()
            elif isinstance(m, MultiGauge):
                gauges[m.name] = dict(m.read())
            elif isinstance(m, Histogram):
                histograms[m.name] = {
                    "buckets": list(m.buckets),
                    "counts": list(m.counts),
                    "sum": m.sum,
                    "count": m.count,
                    "mean": None if m.count == 0 else m.mean(),
                }
        return {"counters": counters, "gauges": gauges,
                "histograms": histograms}
