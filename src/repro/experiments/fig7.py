"""Fig. 7: average packet latency vs injection rate for synthetic traffic
(8x8 mesh, FastPass with 4 VCs, all eight schemes).

The paper sweeps Transpose, Shuffle and Bit Rotation; each series stops
when a scheme saturates (its curve leaves the plot), exactly as the sweep
runner does here.
"""

from __future__ import annotations

from repro.campaign.plan import drive
from repro.experiments.common import (
    FIG7_SCHEMES,
    fnum,
    sweep_series,
    synthetic_config,
)

PATTERNS = ("transpose", "shuffle", "bit_rotation")

QUICK_RATES = [0.02, 0.06, 0.10, 0.12, 0.14, 0.16, 0.18, 0.22]
FULL_RATES = [round(0.02 * i, 2) for i in range(1, 16)]


def run(quick: bool = True, patterns=PATTERNS, schemes=None,
        rates=None, seeds=None) -> dict:
    """Every (pattern, scheme) curve is one planner series; all of them
    stream through one open campaign run (:mod:`repro.campaign.plan`),
    each stopping at its own saturation.  ``seeds`` repeats every point
    under those seeds (averaged curves)."""
    cfg = synthetic_config(quick)
    rates = rates or (QUICK_RATES if quick else FULL_RATES)
    schemes = schemes or FIG7_SCHEMES
    curves = [(pattern, label, sweep_series(name, kwargs, pattern, rates,
                                            cfg, seeds))
              for pattern in patterns for label, name, kwargs in schemes]
    series: dict[str, dict[str, list]] = {p: {} for p in patterns}
    for (pattern, label, _), results in zip(
            curves, drive([gen for _, _, gen in curves])):
        series[pattern][label] = [
            (r.extra["rate"], r.avg_latency, r.deadlocked)
            for r in results
        ]
    return {"rates": rates, "series": series}


def saturation_of(points: list, zero_load: float | None = None) -> float:
    """Largest swept rate whose latency stayed under 3x zero-load."""
    if not points:
        return 0.0
    zl = zero_load if zero_load is not None else points[0][1]
    sat = points[0][0]
    for rate, lat, deadlocked in points:
        if deadlocked or lat != lat or lat > 3 * zl:
            break
        sat = rate
    return sat


def format_result(result: dict) -> str:
    lines = []
    for pattern, per_scheme in result["series"].items():
        lines.append(f"--- {pattern} (avg packet latency by injection rate)")
        header = f"{'rate':>6}" + "".join(
            f"{label:>12}" for label in per_scheme)
        lines.append(header)
        for i, rate in enumerate(result["rates"]):
            row = [f"{rate:>6.2f}"]
            for label, pts in per_scheme.items():
                if i < len(pts):
                    row.append(f"{fnum(pts[i][1]):>12}")
                else:
                    row.append(f"{'sat':>12}")
            lines.append("".join(row))
        sats = {label: saturation_of(pts)
                for label, pts in per_scheme.items()}
        lines.append("saturation: " + "  ".join(
            f"{label}={sat:.2f}" for label, sat in sats.items()))
        fp = sats.get("FastPass", 0.0)
        for other in ("SPIN", "TFC", "SWAP", "MinBD"):
            if other in sats and sats[other] > 0:
                lines.append(f"  FastPass vs {other}: "
                             f"{fp / sats[other]:.2f}x")
        # Matched-load latency: the clearest view of the bypass benefit —
        # compare every scheme at the highest rate where all still deliver.
        common = min(len(pts) for pts in per_scheme.values())
        if common and "FastPass" in per_scheme:
            idx = common - 1
            lats = {label: pts[idx][1] for label, pts in per_scheme.items()
                    if pts[idx][1] == pts[idx][1]}
            rate = result["rates"][idx]
            if len(lats) > 1:
                best_other = min(v for k, v in lats.items()
                                 if k != "FastPass")
                fp_lat = lats.get("FastPass", float("nan"))
                lines.append(
                    f"  latency @ {rate:.2f}: FastPass={fp_lat:.1f} vs "
                    f"best baseline={best_other:.1f} "
                    f"({100 * (1 - fp_lat / best_other):+.0f}%)")
    return "\n".join(lines)
