"""Metric exporters: JSON snapshots, Prometheus text format, and the
per-run ``results/metrics/`` artifact.

The Prometheus exporter emits the text exposition format (``# HELP`` /
``# TYPE`` lines, ``name{label="value"} value`` samples, cumulative
``_bucket``/``_sum``/``_count`` histogram series) so a scrape of a
long-running service built on this simulator — or a one-shot
``repro-experiments obs export`` — is directly ingestible.
"""

from __future__ import annotations

import json
import math
import os
import re
from pathlib import Path

from repro.obs.registry import (
    Counter,
    CounterFamily,
    Gauge,
    Histogram,
    MetricsRegistry,
    MultiGauge,
)


def _fmt_value(v) -> str:
    if isinstance(v, float):
        if math.isinf(v):
            return "+Inf" if v > 0 else "-Inf"
        if math.isnan(v):
            return "NaN"
    return repr(v) if isinstance(v, float) else str(v)


def _labels(pairs) -> str:
    if not pairs:
        return ""
    body = ",".join(f'{k}="{v}"' for k, v in pairs)
    return "{" + body + "}"


def to_prometheus(registry: MetricsRegistry) -> str:
    """Render every metric in the Prometheus text exposition format."""
    lines: list[str] = []
    for m in registry:
        if isinstance(m, Counter):
            lines.append(f"# HELP {m.name} {m.help}")
            lines.append(f"# TYPE {m.name} counter")
            lines.append(f"{m.name}{_labels(m.labels)} {m.value}")
        elif isinstance(m, CounterFamily):
            lines.append(f"# HELP {m.name} {m.help}")
            lines.append(f"# TYPE {m.name} counter")
            for c in m.children():
                lines.append(f"{m.name}{_labels(c.labels)} {c.value}")
        elif isinstance(m, Gauge):
            lines.append(f"# HELP {m.name} {m.help}")
            lines.append(f"# TYPE {m.name} gauge")
            lines.append(f"{m.name} {_fmt_value(m.read())}")
        elif isinstance(m, MultiGauge):
            lines.append(f"# HELP {m.name} {m.help}")
            lines.append(f"# TYPE {m.name} gauge")
            for label_value, v in m.read():
                lines.append(
                    f"{m.name}"
                    f"{_labels(((m.label_name, label_value),))} "
                    f"{_fmt_value(v)}")
        elif isinstance(m, Histogram):
            lines.append(f"# HELP {m.name} {m.help}")
            lines.append(f"# TYPE {m.name} histogram")
            for le, acc in m.cumulative():
                lines.append(
                    f'{m.name}_bucket{{le="{_fmt_value(le)}"}} {acc}')
            lines.append(f"{m.name}_sum {m.sum}")
            lines.append(f"{m.name}_count {m.count}")
    return "\n".join(lines) + "\n"


def snapshot_json(obs, label: str | None = None) -> dict:
    """A full JSON snapshot of an :class:`~repro.obs.setup.Observability`
    instance: metrics, time series, and run identity."""
    net = obs.net
    payload = {
        "kind": "repro-metrics",
        "label": label,
        "cycle": net.cycle if net is not None else None,
        "scheme": (net.scheme.label
                   if net is not None and net.scheme is not None else None),
        "mesh": ([net.cfg.rows, net.cfg.cols] if net is not None else None),
        "seed": net.cfg.seed if net is not None else None,
        "sample_every": obs.sample_every,
        "events_emitted": obs.bus.emitted,
        "metrics": obs.registry.to_json(),
    }
    payload.update(obs.sampler.to_json())
    return payload


# -- artifacts -----------------------------------------------------------

def metrics_dir() -> Path:
    """``<results>/metrics`` (:func:`~repro.campaign.context.results_dir`)."""
    from repro.campaign.context import results_dir
    return results_dir() / "metrics"


def write_metrics(obs, name: str, label: str | None = None) -> Path:
    """Write the JSON snapshot under ``results/metrics/`` and return the
    path.  The filename encodes ``name`` and the pid so concurrent
    campaign workers never collide."""
    out = metrics_dir()
    out.mkdir(parents=True, exist_ok=True)
    safe = re.sub(r"[^A-Za-z0-9._-]+", "-", name).strip("-") or "run"
    base = f"metrics_{safe}_p{os.getpid()}"
    path = out / f"{base}.json"
    n = 1
    while path.exists():
        path = out / f"{base}_{n}.json"
        n += 1
    payload = snapshot_json(obs, label=label or name)
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    tmp.rename(path)
    return path
