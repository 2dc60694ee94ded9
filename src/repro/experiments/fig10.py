"""Fig. 10: average packet latency and normalized execution time for the
application workloads (PARSEC/SPLASH-2 substitutes, see DESIGN.md §5).

Execution time is normalized to EscapeVC, as in the paper.
"""

from __future__ import annotations

from repro.experiments.common import (FIG10_SCHEMES, app_config, app_point,
                                      cached_points, fnum)

BENCHMARKS = ("Radix", "Canneal", "FFT", "FMM", "Lu_cb", "Streamcluster",
              "Volrend")


def run_apps(schemes, benchmarks, quick: bool) -> dict:
    """The benchmark x scheme application grid as one batch of points:
    ``{bench: {label: RunResult}}``."""
    grid = [(bench, label, app_point(name, kwargs, bench, quick))
            for bench in benchmarks for label, name, kwargs in schemes]
    results = cached_points([p for _, _, p in grid], app_config(quick))
    out: dict[str, dict] = {bench: {} for bench in benchmarks}
    for (bench, label, _), res in zip(grid, results):
        out[bench][label] = res
    return out


def run(quick: bool = True, benchmarks=BENCHMARKS, schemes=None) -> dict:
    schemes = schemes or FIG10_SCHEMES
    apps = run_apps(schemes, benchmarks, quick)
    latency = {b: {lbl: r.avg_latency for lbl, r in row.items()}
               for b, row in apps.items()}
    exec_time = {b: {lbl: r.cycles for lbl, r in row.items()}
                 for b, row in apps.items()}
    p99 = {b: {lbl: r.p99_latency for lbl, r in row.items()}
           for b, row in apps.items()}
    # Normalize execution time to the first scheme (EscapeVC).
    base_label = schemes[0][0]
    norm: dict[str, dict[str, float]] = {}
    for bench in benchmarks:
        base = exec_time[bench][base_label]
        norm[bench] = {lbl: t / base for lbl, t in exec_time[bench].items()}
    return {
        "benchmarks": list(benchmarks),
        "schemes": [s[0] for s in schemes],
        "latency": latency,
        "exec_norm": norm,
        "exec_cycles": exec_time,
        "p99": p99,
    }


def _avg(d: dict, benches, label) -> float:
    vals = [d[b][label] for b in benches if d[b][label] == d[b][label]]
    return sum(vals) / len(vals) if vals else float("nan")


def format_result(result: dict) -> str:
    benches = result["benchmarks"]
    labels = result["schemes"]
    lines = ["--- average packet latency (cycles)"]
    head = f"{'benchmark':<14}" + "".join(f"{lbl:>22}" for lbl in labels)
    lines.append(head)
    for b in benches:
        lines.append(f"{b:<14}" + "".join(
            f"{fnum(result['latency'][b][lbl]):>22}" for lbl in labels))
    lines.append(f"{'Average':<14}" + "".join(
        f"{fnum(_avg(result['latency'], benches, lbl)):>22}"
        for lbl in labels))
    lines.append("--- normalized execution time (to EscapeVC)")
    lines.append(head)
    for b in benches:
        lines.append(f"{b:<14}" + "".join(
            f"{fnum(result['exec_norm'][b][lbl], 3):>22}" for lbl in labels))
    lines.append(f"{'Average':<14}" + "".join(
        f"{fnum(_avg(result['exec_norm'], benches, lbl), 3):>22}"
        for lbl in labels))
    return "\n".join(lines)
