"""One pass of one workload, in a process of its own.

``run.py`` starts this file once per pass, because a user pays a cold
process per CLI invocation: imports, route tables and the process-level
structure cache would otherwise be warm from the second pass on.  The pass
prints one JSON object as its last line of standard output.

With ``--trace-out`` the pass installs the tracer before set-up, runs the
timed region under it, runs the workload's extra phases and cross-checks,
and adds the per-layer metrics and the ledger columns to its report.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from pathlib import Path


def _cpu_seconds() -> float:
    """CPU seconds of this process and the children it has waited for."""
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


def _peak_rss_mb() -> float:
    """Peak resident set of this process plus that of its largest
    child (Linux reports kilobytes)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--work-dir", type=Path, required=True)
    ap.add_argument("--nproc", type=int, required=True)
    ap.add_argument("--spawned-at", type=float, required=True,
                    help="time.time() of the parent just before it "
                         "started this process")
    ap.add_argument("--trace-out", type=Path, default=None)
    args = ap.parse_args(argv)

    t_import = time.perf_counter()
    import workloads
    from repro import campaign
    import_s = time.perf_counter() - t_import

    workload = workloads.WORKLOADS[args.workload]
    env = workloads.Env(seed=args.seed, work_dir=args.work_dir,
                        nproc=args.nproc)
    tracer = None
    if args.trace_out is not None:
        import ledger
        from tracer import Tracer
        tracer = Tracer()
        tracer.install(ledger.targets())
        tracer.phase = "setup"
    try:
        state = workload.setup(env)
        setup_s = time.time() - args.spawned_at
        if tracer is not None:
            tracer.phase = "timed"
        cpu0 = _cpu_seconds()
        t0 = time.perf_counter()
        raw = workload.run(state, tracer)
        t1 = time.perf_counter()
        cpu_s = _cpu_seconds() - cpu0
        peak_rss_mb = _peak_rss_mb()
        wall_s = t1 - t0
        if tracer is not None:
            tracer.phase = "post"
        outcome = workload.finish(state, raw)
        report = {
            "workload": args.workload, "seed": args.seed,
            "wall_s": wall_s, "setup_s": setup_s,
            "kcycles_per_s": outcome.cycles / wall_s / 1000.0,
            "peak_rss_mb": peak_rss_mb, "cycles": outcome.cycles,
            "attempted": outcome.attempted, "failed": outcome.failed,
            "digest": outcome.digest, "notes": outcome.notes,
        }
        if tracer is not None:
            extras: dict = {}
            if hasattr(workload, "traced_extras"):
                extras.update(workload.traced_extras(
                    state, raw, outcome, tracer, env))
            tracer.uninstall()
            if hasattr(workload, "untraced_extras"):
                extras.update(workload.untraced_extras(state, raw, env))
            walls = {"timed": wall_s, **extras.get("phase_walls", {})}
            per_layer = ledger.layer_metrics(tracer.spans, walls,
                                             args.nproc, extras)
            per_layer["process.import_s"] = import_s
            per_layer["process.cpu_s"] = cpu_s
            per_layer["process.cpu_to_wall"] = cpu_s / wall_s
            notes = extras.get("crosscheck_notes", [])
            report["attempted"] += extras.get("crosscheck_attempted", 0)
            report["failed"] += len(notes)
            report["notes"] = report["notes"] + notes
            report["per_layer"] = per_layer
            report["walls"] = walls
            report["ledger"] = {
                phase: ledger.layer_self_seconds(tracer.spans, phase)
                for phase in ("timed", "inproc") if phase in walls}
            report["attributed_share"] = ledger.attributed_share(
                tracer.spans, t0, t1)
            report["spans"] = len(tracer.spans)
            tracer.dump(args.trace_out)
    finally:
        if tracer is not None:
            tracer.uninstall()
        campaign.reset()
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
