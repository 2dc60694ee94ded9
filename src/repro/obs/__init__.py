"""Observability: event bus, metrics registry, sampling, exporters.

The public surface:

* :class:`~repro.obs.bus.EventBus` — per-kind subscriber lists with an
  allocation-light emit; the datapath's emit points are guarded by one
  ``net.obs is None`` test, so an unattached network pays nothing.
* :class:`~repro.obs.registry.MetricsRegistry` — named counters, gauges,
  histograms (Prometheus-flavoured, dependency-free).
* :class:`~repro.obs.sampler.TimeSeriesSampler` — periodic gauge series.
* :class:`~repro.obs.setup.Observability` /
  :func:`~repro.obs.setup.attach_observability` — the per-network bundle
  that wires the standard NoC metric set;
  :func:`~repro.obs.setup.attach_for_run` /
  :meth:`~repro.obs.setup.Observability.archive_run` are what the point
  runners' ``metrics=`` argument goes through.
* :mod:`repro.obs.exporters` — JSON snapshot, Prometheus text format,
  and the per-run ``results/metrics/`` artifact.

See DESIGN §11 for the architecture and the overhead methodology.
"""

from repro.obs.bus import KINDS, EventBus
from repro.obs.exporters import (
    metrics_dir,
    snapshot_json,
    to_prometheus,
    write_metrics,
)
from repro.obs.registry import (
    Counter,
    CounterFamily,
    Gauge,
    Histogram,
    MetricsRegistry,
    MultiGauge,
)
from repro.obs.sampler import TimeSeriesSampler
from repro.obs.setup import (
    Observability,
    attach_for_run,
    attach_observability,
)

__all__ = [
    "KINDS",
    "EventBus",
    "Counter",
    "CounterFamily",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "MultiGauge",
    "TimeSeriesSampler",
    "Observability",
    "attach_for_run",
    "attach_observability",
    "metrics_dir",
    "snapshot_json",
    "to_prometheus",
    "write_metrics",
]
