"""Fig. 8: saturation throughput vs network size (Transpose, 4 VCs).

The paper's claim: FastPass's advantage *grows* with network size (more
partitions = more concurrent FastPass-Packets) — 17% over SWAP at 4x4,
67% at 8x8, 78% at 16x16.
"""

from __future__ import annotations

from repro.campaign.plan import drive
from repro.experiments.common import (
    FIG8_SCHEMES,
    saturation_series,
    synthetic_config,
)

QUICK_SIZES = (4, 8)
FULL_SIZES = (4, 8, 16)


def run(quick: bool = True, sizes=None, schemes=None,
        iters: int | None = None) -> dict:
    """Every (scheme, size) saturation search is one planner series; the
    probes of all of them share one open campaign run."""
    sizes = sizes or (QUICK_SIZES if quick else FULL_SIZES)
    schemes = schemes or FIG8_SCHEMES
    iters = iters if iters is not None else (4 if quick else 7)
    searches = [(label, n, saturation_series(
        name, kwargs, "transpose", synthetic_config(quick, rows=n, cols=n),
        lo=0.01, hi=0.4, iters=iters))
        for label, name, kwargs in schemes for n in sizes]
    table: dict[str, dict[int, float]] = {s[0]: {} for s in schemes}
    for (label, n, _), sat in zip(
            searches, drive([gen for _, _, gen in searches])):
        table[label][n] = sat
    return {"sizes": list(sizes), "table": table}


def format_result(result: dict) -> str:
    sizes = result["sizes"]
    lines = [f"{'scheme':<10}" +
             "".join(f"{f'{n}x{n}':>10}" for n in sizes)]
    for label, row in result["table"].items():
        lines.append(f"{label:<10}" +
                     "".join(f"{row[n]:>10.3f}" for n in sizes))
    if "FastPass" in result["table"] and "SWAP" in result["table"]:
        gains = []
        for n in sizes:
            sw = result["table"]["SWAP"][n]
            fp = result["table"]["FastPass"][n]
            gains.append(f"{n}x{n}: {100 * (fp - sw) / sw:+.0f}%"
                         if sw > 0 else f"{n}x{n}: n/a")
        lines.append("FastPass over SWAP: " + ", ".join(gains))
    return "\n".join(lines)
