"""End-to-end benchmark of the reproduction: six workloads from the cycle
kernel to the loopback fabric, and a per-layer ledger.

Two ways to run it.

The driver's contract, one workload per invocation::

    python3 benchmarks/e2e/run.py --workload fig7_cold --seed 7 \\
        --seconds 20 --trace 0

runs fresh-process passes of that workload until ``--seconds`` are used,
prints every end-to-end metric by name with its unit (median, min, max,
sample count) and, as the last line, one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--trace 1`` instead runs one
untraced and one traced pass and reports every per-layer metric, the
ledger and the top three layers.

The whole set, for people::

    python3 benchmarks/e2e/run.py [--seed N] [--repeats R] [--workload W]
                                  [--traced] [--selfcheck] [--json-out F]

runs ``--repeats`` passes of every workload, round-robin so machine drift
spreads evenly, then (``--traced``) one traced pass each and the ledger
table.  ``--selfcheck`` runs two sets back to back and fails if any
median moved by more than its bound in BENCHMARK.json.

Load shape: closed loop, one client.  One pass runs at a time; pool and
fabric workloads use ``jobs = workers = nproc``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

import hygiene
import ledger

WORKLOAD_NAMES = ["kernel_sparse", "kernel_dense", "apps_closed",
                  "fig7_cold", "fig7_warm", "fig7_fabric"]
#: end-to-end metric -> (unit, direction); bounds live in BENCHMARK.json
END_TO_END = {"wall_s": ("s", "lower"),
              "kcycles_per_s": ("kcycles/s", "higher"),
              "setup_s": ("s", "lower"),
              "peak_rss_mb": ("MB", "lower")}
DEFAULT_SEED = 7
DEFAULT_REPEATS = 3
PASS_TIMEOUT_S = 150


class PassFailed(RuntimeError):
    pass


def run_pass(workload: str, seed: int, nproc: int,
             trace_out: Path | None = None) -> dict:
    """One pass in a fresh process with a neutralised environment and a
    scratch directory of its own; returns the pass's report."""
    with hygiene.pass_dir() as work_dir:
        cmd = [sys.executable, str(hygiene.HERE / "one_pass.py"),
               "--workload", workload, "--seed", str(seed),
               "--work-dir", str(work_dir), "--nproc", str(nproc),
               "--spawned-at", repr(time.time())]
        if trace_out is not None:
            cmd += ["--trace-out", str(trace_out)]
        try:
            proc = subprocess.run(
                cmd, env=hygiene.pass_env(work_dir / "results"),
                cwd=hygiene.ROOT, capture_output=True, text=True,
                timeout=PASS_TIMEOUT_S)
        except subprocess.TimeoutExpired as exc:
            raise PassFailed(f"{workload}: pass exceeded "
                             f"{PASS_TIMEOUT_S} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise PassFailed(f"{workload}: pass exited {proc.returncode}\n"
                         f"{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def summarise(passes: list[dict]) -> dict:
    """Median, min, max and sample count of every end-to-end metric."""
    out = {}
    for name in END_TO_END:
        values = [p[name] for p in passes]
        out[name] = {"median": statistics.median(values),
                     "min": min(values), "max": max(values),
                     "n": len(values)}
    return out


def verdict(passes_by_workload: dict[str, list[dict]]) -> dict:
    """Failures over attempts, plus the cross-checks between passes: the
    same seed must give the same digest every time, and the fabric must
    return what the local pool returns."""
    attempted = failed = 0
    notes: list[str] = []
    digests: dict[str, str] = {}
    for workload, passes in passes_by_workload.items():
        for p in passes:
            attempted += p["attempted"]
            failed += p["failed"]
            notes += [f"{workload}: {n}" for n in p["notes"]]
        seen = {p["digest"] for p in passes}
        digests[workload] = passes[0]["digest"]
        if len(seen) > 1:
            failed += len(seen) - 1
            notes.append(f"{workload}: result_digest changed between "
                         f"passes of one seed: {sorted(seen)}")
    if "fig7_cold" in digests and "fig7_fabric" in digests:
        attempted += 1
        if digests["fig7_cold"] != digests["fig7_fabric"]:
            failed += 1
            notes.append("fig7_fabric digest differs from fig7_cold "
                         "(local != fabric)")
    return {"attempted": attempted, "failed": failed, "notes": notes,
            "failed_share": failed / attempted if attempted else 1.0,
            "digests": digests}


def print_summary(workload: str, summary: dict, digest: str) -> None:
    for name, (unit, _better) in END_TO_END.items():
        s = summary[name]
        print(f"{workload:<14} {name:<14} median {s['median']:.6g} {unit}"
              f"  min {s['min']:.6g}  max {s['max']:.6g}  n={s['n']}")
    print(f"{workload:<14} result_digest  {digest}")


# -- the traced pass ------------------------------------------------------

def traced_pass(workload: str, seed: int, nproc: int,
                untraced_wall: float) -> dict:
    """Run one pass under the tracer; the overhead is its timed wall over
    an untraced pass's."""
    hygiene.WORK.mkdir(exist_ok=True)
    trace_out = hygiene.WORK / f"trace-{workload}.json"
    report = run_pass(workload, seed, nproc, trace_out=trace_out)
    report["per_layer"]["trace.overhead_share"] = \
        report["wall_s"] / untraced_wall - 1.0
    report["trace_file"] = str(trace_out.relative_to(hygiene.ROOT))
    return report


def per_layer_units() -> dict[str, str]:
    """Per-layer metric -> unit, in the order BENCHMARK.json lists them
    (the one place the names and units are written down)."""
    return {m["name"]: m["unit"] for m in load_spec()["per_layer"]}


def print_traced(reports: dict[str, dict]) -> None:
    units = per_layer_units()
    for workload, report in reports.items():
        for name, unit in units.items():
            print(f"{workload:<14} {name:<32} "
                  f"{report['per_layer'][name]:.6g} {unit}")
        print(f"{workload:<14} attributed to repo modules: "
              f"{100 * report['attributed_share']:.1f}% of the traced "
              f"wall, {report['spans']} spans -> {report['trace_file']}")
    columns = {}
    for workload, report in reports.items():
        for phase, per_layer in report["ledger"].items():
            heading = workload if phase == "timed" else \
                f"{workload}/jobs=1"
            columns[heading] = (per_layer, report["walls"][phase])
    ledger.print_ledger(columns)


# -- modes ----------------------------------------------------------------

def contract_mode(args, nproc: int) -> int:
    """One workload for ``--seconds``; last line is the driver's JSON."""
    workload = args.workload
    if args.trace:
        plain = run_pass(workload, args.seed, nproc)
        report = traced_pass(workload, args.seed, nproc, plain["wall_s"])
        print_traced({workload: report})
        result = verdict({workload: [plain, report]})
        metrics = {name: {"value": report["per_layer"][name], "unit": unit}
                   for name, unit in per_layer_units().items()}
    else:
        passes = []
        started = time.monotonic()
        while True:
            t = time.monotonic()
            passes.append(run_pass(workload, args.seed, nproc))
            now = time.monotonic()
            if now - started + (now - t) > args.seconds:
                break
        by_workload = {workload: passes}
        if workload == "fig7_fabric":
            # local == fabric: one pass of the local counterpart
            by_workload["fig7_cold"] = [
                run_pass("fig7_cold", args.seed, nproc)]
        result = verdict(by_workload)
        summary = summarise(passes)
        print_summary(workload, summary, passes[0]["digest"])
        metrics = {name: {"value": summary[name]["median"], "unit": unit}
                   for name, (unit, _better) in END_TO_END.items()}
    for note in result["notes"]:
        print(f"FAILED {note}")
    print(json.dumps({"correct": result["failed"] == 0,
                      "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


def measure_set(names: list[str], seed: int, repeats: int,
                nproc: int) -> dict[str, list[dict]]:
    """``repeats`` passes of every workload, round-robin."""
    passes: dict[str, list[dict]] = {name: [] for name in names}
    for rep in range(repeats):
        for name in names:
            p = run_pass(name, seed, nproc)
            passes[name].append(p)
            print(f"  pass {rep + 1}/{repeats} {name:<14} "
                  f"wall {p['wall_s']:.3f} s  setup {p['setup_s']:.3f} s",
                  flush=True)
    return passes


def load_spec() -> dict:
    with open(hygiene.ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def selfcheck(names: list[str], sets: list[dict]) -> tuple[bool, dict]:
    """Two sets of the same code must agree within the bounds, and on
    every digest.  Returns (ok, gap observed per metric)."""
    bounds = {m["name"]: m["bound"] for m in load_spec()["end_to_end"]}
    first, second = (verdict(s) for s in sets)
    ok = first["failed"] == 0 and second["failed"] == 0
    observed: dict[str, float] = {}
    print(f"{'workload':<14} {'metric':<14} {'set 1':>12} {'set 2':>12} "
          f"{'gap':>8} {'bound':>7}")
    for name in names:
        a, b = summarise(sets[0][name]), summarise(sets[1][name])
        for metric in END_TO_END:
            ma, mb = a[metric]["median"], b[metric]["median"]
            gap = abs(mb - ma) / ma
            observed[metric] = max(observed.get(metric, 0.0), gap)
            flag = "" if gap <= bounds[metric] else "  EXCEEDS"
            ok = ok and not flag
            print(f"{name:<14} {metric:<14} {ma:12.6g} {mb:12.6g} "
                  f"{100 * gap:7.2f}% {100 * bounds[metric]:6.1f}%{flag}")
        if first["digests"][name] != second["digests"][name]:
            ok = False
            print(f"{name:<14} result_digest differs between the sets")
    for note in first["notes"] + second["notes"]:
        print(f"FAILED {note}")
    return ok, observed


def full_mode(args, nproc: int) -> int:
    names = [args.workload] if args.workload else WORKLOAD_NAMES
    prov = hygiene.provenance()
    print("provenance: " + json.dumps(prov))
    record: dict = {"seed": args.seed, "repeats": args.repeats,
                    "workloads": {}}
    sets = []
    for i in range(2 if args.selfcheck else 1):
        print(f"set {i + 1}: {args.repeats} passes x {len(names)} "
              f"workloads, seed {args.seed}")
        sets.append(measure_set(names, args.seed, args.repeats, nproc))
    ok = True
    if args.selfcheck:
        ok, observed = selfcheck(names, sets)
        record["selfcheck"] = {"ok": ok, "observed_gap": observed}
        print("observed gap per metric (largest over workloads): "
              + json.dumps(observed))
    passes = sets[-1]
    result = verdict(passes)
    for name in names:
        summary = summarise(passes[name])
        print_summary(name, summary, result["digests"][name])
        record["workloads"][name] = {"end_to_end": summary,
                                     "result_digest":
                                     result["digests"][name]}
    print(f"failed_share {result['failed_share']:.6g} "
          f"({result['failed']} of {result['attempted']})")
    for note in result["notes"]:
        print(f"FAILED {note}")
    if args.traced:
        reports = {}
        for name in names:
            wall = statistics.median(p["wall_s"] for p in passes[name])
            reports[name] = traced_pass(name, args.seed, nproc, wall)
            record["workloads"][name]["per_layer"] = \
                reports[name]["per_layer"]
        print_traced(reports)
        traced = verdict({n: [r] for n, r in reports.items()})
        for note in traced["notes"]:
            print(f"FAILED {note}")
        ok = ok and traced["failed"] == 0
    record["provenance"] = hygiene.close_provenance(prov)
    record["failed_share"] = result["failed_share"]
    if prov["noisy"]:
        print(f"noisy: 1-min load {prov['load_1min_start']:.2f} -> "
              f"{prov['load_1min_end']:.2f} exceeds nproc {prov['nproc']}")
    if args.json_out:
        with open(args.json_out, "w") as fh:
            json.dump(record, fh, indent=1, sort_keys=True)
    return 0 if ok and result["failed"] == 0 else 1


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOAD_NAMES, default=None)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED,
                    help="derives every traffic seed (default 7)")
    ap.add_argument("--seconds", type=float, default=None,
                    help="driver contract: measure one workload for this "
                         "long and end with the result JSON")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="with --seconds: 1 reports the per-layer metrics")
    ap.add_argument("--repeats", type=int, default=DEFAULT_REPEATS)
    ap.add_argument("--traced", action="store_true",
                    help="after the set, one traced pass per workload "
                         "and the ledger")
    ap.add_argument("--selfcheck", action="store_true",
                    help="two sets back to back must agree within the "
                         "bounds of BENCHMARK.json")
    ap.add_argument("--json-out", type=Path, default=None)
    args = ap.parse_args(argv)
    if args.seconds is not None and args.workload is None:
        ap.error("--seconds needs --workload")
    if not (hygiene.SRC / "repro" / "__init__.py").is_file():
        print(f"run.py: {hygiene.SRC / 'repro'} is missing: the benchmark "
              "measures the repository it sits in", file=sys.stderr)
        return 2
    try:
        with hygiene.exclusive_lock():
            if args.seconds is not None:
                return contract_mode(args, hygiene.nproc())
            return full_mode(args, hygiene.nproc())
    except hygiene.Busy as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 3
    except PassFailed as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
