"""Performance-regression harness: ``repro-experiments perf snapshot``.

Runs a fixed micro-sweep (low-load and moderate-load uniform-random points
for FastPass and EscapeVC on the paper's 8x8 mesh), times each point, and
writes a ``BENCH_<n>.json`` snapshot with cycles/sec per point.  With
``--compare BASELINE.json`` it prints per-point speedup ratios and exits
non-zero when any point regresses by more than the allowed fraction
(default: ratio < 0.75, i.e. >25% slower).

The comparison also cross-checks the *simulation results* of each point
(injected/ejected/latency/deadlock) against the baseline: the engine is
required to stay bit-identical across optimisation work, so any drift is
reported as a hard failure unless ``--allow-result-drift`` is given.

Points run directly through :class:`repro.sim.engine.Simulation` — never
through the campaign cache — so the measured wall time is always a real
execution.

``--soa`` adds an interleaved A/B (:func:`_run_ab`; result drift exits
2) of the active-set engine against the SoA kernel on the saturated
:data:`SOA_POINTS` (``BENCH_soa.json``).  The speedups are recorded, not
gated: since the scalar engine waits for credits instead of polling for
them the kernel no longer wins the blocked regime (DESIGN.md section 15),
and what the A/B still guards is that the two engines agree.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from pathlib import Path

from repro.config import SimConfig

#: Workload of one snapshot.  ``(scheme, scheme_kwargs, pattern, rate)`` —
#: the low-load (0.02-0.10) points are the regime the acceptance gate
#: watches; the 0.30 points keep the loaded-mesh path honest.
SNAPSHOT_POINTS = [
    ("fastpass", {"n_vcs": 4}, "uniform", 0.02),
    ("fastpass", {"n_vcs": 4}, "uniform", 0.05),
    ("fastpass", {"n_vcs": 4}, "uniform", 0.10),
    ("fastpass", {"n_vcs": 4}, "uniform", 0.30),
    ("escapevc", {}, "uniform", 0.02),
    ("escapevc", {}, "uniform", 0.05),
    ("escapevc", {}, "uniform", 0.10),
    ("escapevc", {}, "uniform", 0.30),
]

SNAPSHOT_SEED = 7
DEFAULT_FAIL_UNDER = 0.75

#: Saturated-regime A/B workload for the SoA kernel:
#: ``(scheme, scheme_kwargs, pattern, rate, rows, cols)``.  Rates 0.2
#: and 0.3 put every point past (or at) saturation — the regime the SoA
#: kernel targets — on the paper's 8x8 mesh plus a 16x16 scaling point.
SOA_POINTS = [
    ("fastpass", {}, "uniform", 0.2, 8, 8),
    ("fastpass", {}, "uniform", 0.3, 8, 8),
    ("fastpass", {}, "transpose", 0.2, 8, 8),
    ("fastpass", {}, "transpose", 0.3, 8, 8),
    ("escapevc", {}, "uniform", 0.2, 8, 8),
    ("escapevc", {}, "uniform", 0.3, 8, 8),
    ("fastpass", {}, "uniform", 0.2, 16, 16),
    ("fastpass", {}, "uniform", 0.3, 16, 16),
]

#: RunResult fields that must be bit-identical run-to-run for a fixed
#: seed — the differential proof that engine work changed speed, not
#: behaviour.  (NaN != NaN, so the check treats two NaNs as equal.)
RESULT_FIELDS = ("injected", "ejected", "avg_latency", "p99_latency",
                 "deadlocked", "cycles")


def soa_config(rows: int, cols: int, engine: str) -> SimConfig:
    """The snapshot protocol (windows, seed) on a sized mesh."""
    return SimConfig(rows=rows, cols=cols, warmup_cycles=200,
                     measure_cycles=1000, drain_cycles=1500,
                     engine=engine)


def snapshot_config(engine: str = "active") -> SimConfig:
    return soa_config(8, 8, engine)


def point_key(scheme: str, kwargs: dict, pattern: str, rate: float) -> str:
    kw = ",".join(f"{k}={v}" for k, v in sorted(kwargs.items()))
    return f"{scheme}({kw})/{pattern}@{rate:g}"


def _point_info(scheme: str, kwargs: dict, pattern: str, rate: float,
                suffix: str = "") -> dict:
    return {"key": point_key(scheme, kwargs, pattern, rate) + suffix,
            "scheme": scheme, "scheme_kwargs": kwargs,
            "pattern": pattern, "rate": rate}


def _timed_sim(cfg: SimConfig, scheme: str, kwargs: dict, pattern: str,
               rate: float):
    """Build one snapshot-seeded simulation and time its ``run`` alone
    (construction excluded); returns ``(wall_s, result, engine_used)``."""
    from repro.schemes import get_scheme
    from repro.sim.engine import Simulation
    from repro.traffic.synthetic import SyntheticTraffic

    sim = Simulation(cfg, get_scheme(scheme, **kwargs),
                     SyntheticTraffic(pattern, rate, seed=SNAPSHOT_SEED))
    t0 = time.perf_counter()
    res = sim.run()
    return time.perf_counter() - t0, res, sim.engine_used


def _run_one(scheme_name: str, kwargs: dict, pattern: str, rate: float,
             repeat: int, engine: str = "active") -> dict:
    best = None
    for _ in range(max(1, repeat)):
        wall, res, used = _timed_sim(snapshot_config(engine), scheme_name,
                                     kwargs, pattern, rate)
        if best is None or wall < best:
            best = wall
    return dict(
        _point_info(scheme_name, kwargs, pattern, rate),
        engine=used, wall_s=best,
        cycles_per_sec=res.cycles / best if best else float("inf"),
        # the fields compare() cross-checks against the baseline
        **{f: getattr(res, f) for f in RESULT_FIELDS})


def _header(kind: str, repeat: int, **extra) -> dict:
    return {"kind": kind,
            "created": time.strftime("%Y-%m-%dT%H:%M:%S"),
            "python": sys.version.split()[0],
            "machine": platform.machine(),
            "seed": SNAPSHOT_SEED, "repeat": repeat, **extra}


def run_snapshot(repeat: int = 1, label: str | None = None,
                 engine: str = "active") -> dict:
    points = []
    for scheme, kwargs, pattern, rate in SNAPSHOT_POINTS:
        pt = _run_one(scheme, kwargs, pattern, rate, repeat, engine)
        print(f"  {pt['key']:40s} {pt['cycles']:>6d} cycles  "
              f"{pt['wall_s'] * 1e3:8.1f} ms  "
              f"{pt['cycles_per_sec']:10.0f} cyc/s")
        points.append(pt)
    total_wall = sum(p["wall_s"] for p in points)
    total_cycles = sum(p["cycles"] for p in points)
    return _header(
        "repro-perf-snapshot", repeat, label=label, engine=engine,
        total_wall_s=total_wall,
        total_cycles_per_sec=(total_cycles / total_wall
                              if total_wall else float("inf")),
        points=points)


# -- interleaved A/B -----------------------------------------------------

class ResultDrift(RuntimeError):
    """Two execution paths produced different simulation results for one
    seed — the bit-identity contract is broken, which is always a hard
    error (exit 2), never a perf number."""


def _run_ab(points, names: tuple[str, str], repeat: int) -> list[dict]:
    """The one interleaved A/B protocol behind every gate here.

    ``points`` holds ``(info, side_a, side_b)``: ``info`` is the point's
    record (with its ``key``), each side a callable returning ``(wall_s,
    [RunResult, ...])`` — it times itself, so a side decides whether
    construction counts.  Per repeat A then B run back to back so
    machine noise hits both equally, and B's results must equal A's
    field by field or :class:`ResultDrift` is raised.  Best-of-N wall
    per side; ``speedup`` is A over B.
    """
    a, b = names
    out = []
    for info, *sides in points:
        key = info["key"]
        best = dict.fromkeys(names)
        for _ in range(max(1, repeat)):
            got = {}
            for name, side in zip(names, sides):
                wall, got[name] = side()
                if best[name] is None or wall < best[name]:
                    best[name] = wall
            for i, (ra, rb) in enumerate(zip(got[a], got[b])):
                fa = {f: getattr(ra, f) for f in RESULT_FIELDS}
                fb = {f: getattr(rb, f) for f in RESULT_FIELDS}
                if any(not _same(fa[f], fb[f]) for f in RESULT_FIELDS):
                    raise ResultDrift(
                        f"{b} drifted from {a} at {key} "
                        f"(replica {i}): {fa} != {fb}")
        cycles = sum(r.cycles for r in got[b])
        pt = dict(info, cycles=cycles, speedup=best[a] / best[b],
                  identical=True)
        for name in names:
            pt[f"{name}_wall_s"] = best[name]
            pt[f"{name}_cycles_per_sec"] = cycles / best[name]
        print(f"  {key:46s} {a} {best[a] * 1e3:8.1f} ms  "
              f"{b} {best[b] * 1e3:8.1f} ms  {pt['speedup']:5.2f}x")
        out.append(pt)
    return out


def run_soa_snapshot(repeat: int = 3) -> dict:
    """A/B: active-set scalar engine vs the SoA kernel, per saturated
    point, timing ``Simulation.run`` only (construction excluded).

    The SoA side must actually run on the kernel: a silent fallback to
    the scalar path would make the A/B meaningless, so it raises.
    """
    from repro.sim import soa

    soa.require_numpy()

    def ab_point(scheme, kwargs, pattern, rate, rows, cols):
        info = _point_info(scheme, kwargs, pattern, rate,
                           suffix=f"/{rows}x{cols}")
        key = info["key"]

        def side(engine):
            wall, res, used = _timed_sim(soa_config(rows, cols, engine),
                                         scheme, kwargs, pattern, rate)
            if used != engine:
                raise RuntimeError(
                    f"{engine} side of {key} ran as {used!r}; the A/B "
                    "would compare the scalar engine against itself")
            return wall, [res]

        return (dict(info, rows=rows, cols=cols),
                lambda: side("active"), lambda: side("soa"))

    points = _run_ab([ab_point(*p) for p in SOA_POINTS],
                     ("active", "soa"), repeat)
    speedups = [p["speedup"] for p in points]
    snap = _header("repro-soa-snapshot", repeat, points=points,
                   min_speedup=min(speedups), max_speedup=max(speedups))
    print(f"  soa over active: {snap['min_speedup']:.2f}x - "
          f"{snap['max_speedup']:.2f}x (recorded, not gated)")
    return snap


# -- snapshot files ------------------------------------------------------

def perf_dir() -> Path:
    root = Path(os.environ.get("REPRO_RESULTS_DIR", "results"))
    return root / "perf"


def next_snapshot_path(directory: Path) -> Path:
    """First free ``BENCH_<n>.json`` in ``directory``."""
    taken = set()
    for p in directory.glob("BENCH_*.json"):
        stem = p.stem.split("_", 1)[1]
        if stem.isdigit():
            taken.add(int(stem))
    n = 1
    while n in taken:
        n += 1
    return directory / f"BENCH_{n}.json"


def write_snapshot(snap: dict, out: str | None) -> Path:
    path = Path(out) if out else next_snapshot_path(perf_dir())
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(snap, indent=2) + "\n")
    return path


# -- snapshot history (the perf trajectory) ------------------------------

def history_path() -> Path:
    return perf_dir() / "history.jsonl"


def append_history(snap: dict, path: Path | str | None = None) -> Path:
    """Append one compact line per snapshot to ``history.jsonl``.

    The full ``BENCH_<n>.json`` files remain the archival record; the
    history file is the cheap append-only trajectory ``perf trend``
    plots, so regressions show up as a drift over time instead of only
    pairwise against one baseline.
    """
    path = Path(path) if path is not None else history_path()
    path.parent.mkdir(parents=True, exist_ok=True)
    entry = {
        "created": snap.get("created", ""),
        "label": snap.get("label"),
        # The engine id travels with every row: cycles/sec trajectories
        # from different engines are different experiments, and the
        # trend printer refuses to compare them silently.
        "engine": snap.get("engine", "active"),
        "total_cycles_per_sec": snap.get("total_cycles_per_sec", 0.0),
        "points": {p["key"]: p["cycles_per_sec"] for p in snap["points"]},
    }
    with open(path, "a") as fh:
        fh.write(json.dumps(entry) + "\n")
    return path


def load_history(path: Path | str | None = None) -> list[dict]:
    path = Path(path) if path is not None else history_path()
    if not path.exists():
        return []
    return [json.loads(line) for line in path.read_text().splitlines()
            if line.strip()]


def print_trend(entries: list[dict], base: dict | None) -> None:
    """Per-engine cycles/sec trajectories, normalised to the baseline.

    Rows whose engine matches the baseline snapshot's normalise against
    it.  Rows recorded under another engine are a different experiment
    — a scalar-engine baseline says nothing about an SoA-engine row's
    regression — so instead of refusing them outright, each such engine
    normalises against its own first recorded row (marked ``*``): every
    engine gets a trajectory, and a cross-engine ratio is never printed
    (rows without an engine id predate the field and were all
    scalar-engine runs).
    """
    if not entries:
        print("  no snapshots recorded yet "
              f"(history: {history_path()})")
        return
    base_engine = base.get("engine", "active") if base else None
    base_total = base["total_cycles_per_sec"] if base else None
    base_points = {p["key"]: p["cycles_per_sec"]
                   for p in base["points"]} if base else {}
    #: first row seen per engine — the self-baseline for engines the
    #: snapshot baseline cannot normalise
    self_base: dict[str, dict] = {}
    flagged: set[str] = set()
    print(f"  {'created':20s} {'label':16s} {'engine':8s} "
          f"{'total cyc/s':>12s} {'vs base':>8s} {'worst point':>12s}")
    for e in entries:
        total = e["total_cycles_per_sec"]
        engine = e.get("engine", "active")
        if base_total and engine == base_engine:
            ref_total, ref_points = base_total, base_points
            mark = " "
        else:
            ref = self_base.setdefault(engine, e)
            ref_total = ref["total_cycles_per_sec"]
            ref_points = ref.get("points", {})
            if base_total:
                mark = "*"
                flagged.add(engine)
            else:
                mark = " "
        ratio = (f"{total / ref_total:6.2f}x{mark}" if ref_total
                 else "      -")
        worst = min((cps / ref_points[k]
                     for k, cps in e["points"].items()
                     if k in ref_points and ref_points[k]),
                    default=None) if ref_total else None
        worst_s = f"{worst:10.2f}x" if worst is not None else "         -"
        label = (e.get("label") or "-")[:16]
        print(f"  {e['created']:20s} {label:16s} {engine:8s} "
              f"{total:12.0f} {ratio:>8s} {worst_s:>12s}")
    if flagged:
        names = ", ".join(sorted(flagged))
        print(f"  (* {names} rows ran a different engine than the "
              f"{base_engine!r} baseline; each is normalised to its own "
              "engine's first recorded row — cross-engine ratios are "
              "never compared)")


# -- profiling -----------------------------------------------------------

def run_profile(top: int = 30) -> tuple[Path, Path]:
    """Profile one untimed pass of the micro-sweep with cProfile.

    Writes ``results/perf/profile/snapshot.prof`` (loadable by pstats,
    snakeviz, flameprof, or any other flamegraph renderer) plus a
    ``snapshot_top.txt`` with the top-``top`` functions by cumulative
    time.  Runs *after* the timed snapshot, so the regression gate's
    numbers never include profiler overhead.
    """
    import cProfile
    import pstats
    from io import StringIO

    out = perf_dir() / "profile"
    out.mkdir(parents=True, exist_ok=True)
    prof = cProfile.Profile()
    prof.enable()
    for scheme, kwargs, pattern, rate in SNAPSHOT_POINTS:
        _run_one(scheme, kwargs, pattern, rate, repeat=1)
    prof.disable()
    prof_path = out / "snapshot.prof"
    prof.dump_stats(prof_path)
    buf = StringIO()
    stats = pstats.Stats(prof, stream=buf)
    stats.sort_stats("cumulative").print_stats(top)
    stats.sort_stats("tottime").print_stats(top)
    txt_path = out / "snapshot_top.txt"
    txt_path.write_text(buf.getvalue())
    return prof_path, txt_path


# -- comparison gate -----------------------------------------------------

def _same(a, b) -> bool:
    if isinstance(a, float) and isinstance(b, float) \
            and a != a and b != b:      # NaN == NaN for our purposes
        return True
    return a == b


def compare(new: dict, base: dict, fail_under: float,
            allow_result_drift: bool = False) -> int:
    """Print per-point ratios; return a non-zero exit code on regression
    (any point slower than ``fail_under`` x baseline) or result drift."""
    base_by_key = {p["key"]: p for p in base["points"]}
    worst = float("inf")
    drift = []
    base_engine = base.get("engine", "active")
    new_engine = new.get("engine", "active")
    if base_engine != new_engine:
        # Deliberate cross-engine comparisons (e.g. --engine soa vs the
        # scalar baseline) are allowed, but never silent.
        print(f"\n  NOTE: cross-engine comparison — baseline engine "
              f"{base_engine!r}, new {new_engine!r}")
    print(f"\n  {'point':40s} {'base cyc/s':>12s} {'new cyc/s':>12s} "
          f"{'ratio':>7s}")
    for pt in new["points"]:
        ref = base_by_key.get(pt["key"])
        if ref is None:
            print(f"  {pt['key']:40s} {'-':>12s} "
                  f"{pt['cycles_per_sec']:12.0f}   (new point)")
            continue
        ratio = pt["cycles_per_sec"] / ref["cycles_per_sec"]
        worst = min(worst, ratio)
        print(f"  {pt['key']:40s} {ref['cycles_per_sec']:12.0f} "
              f"{pt['cycles_per_sec']:12.0f} {ratio:6.2f}x")
        for field in RESULT_FIELDS:
            if field in ref and not _same(pt.get(field), ref.get(field)):
                drift.append((pt["key"], field,
                              ref.get(field), pt.get(field)))
    if worst is not float("inf"):
        print(f"  worst ratio: {worst:.2f}x "
              f"(gate: >= {fail_under:.2f}x of baseline)")
    rc = 0
    if drift:
        print("\n  RESULT DRIFT vs baseline (engine no longer "
              "bit-identical):")
        for key, field, old, cur in drift:
            print(f"    {key}: {field} {old!r} -> {cur!r}")
        if not allow_result_drift:
            rc = 2
    if worst < fail_under:
        print(f"\n  PERF REGRESSION: worst point at {worst:.2f}x of "
              f"baseline (< {fail_under:.2f}x)")
        rc = rc or 1
    return rc


# -- CLI -----------------------------------------------------------------

def _soa_ab(out: str | None, repeat: int) -> int:
    """Run the SoA A/B and write its snapshot: 0 when the engines agree,
    2 on result drift (nothing written)."""
    try:
        snap = run_soa_snapshot(repeat=repeat)
    except ResultDrift as exc:
        print(f"\n  SOA RESULT DRIFT: {exc}")
        return 2
    path = write_snapshot(snap, out or str(perf_dir() / "BENCH_soa.json"))
    print(f"  SoA snapshot written to {path}")
    return 0


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-experiments perf",
        description="Fixed micro-sweep timing snapshots and the "
                    "perf-regression gate.")
    sub = parser.add_subparsers(dest="cmd", required=True)
    p_snap = sub.add_parser("snapshot",
                            help="time the micro-sweep and write "
                                 "BENCH_<n>.json")
    p_snap.add_argument("--out", default=None, metavar="PATH",
                        help="snapshot path (default: results/perf/"
                             "BENCH_<n>.json)")
    p_snap.add_argument("--compare", default=None, metavar="BASELINE",
                        help="compare against a baseline snapshot and "
                             "fail on regression")
    p_snap.add_argument("--repeat", type=int, default=1, metavar="N",
                        help="time each point N times, keep the best "
                             "(default: 1)")
    p_snap.add_argument("--label", default=None,
                        help="free-form label stored in the snapshot")
    p_snap.add_argument("--fail-under", type=float,
                        default=DEFAULT_FAIL_UNDER, metavar="R",
                        help="minimum acceptable new/baseline cycles/sec "
                             f"ratio (default: {DEFAULT_FAIL_UNDER})")
    p_snap.add_argument("--allow-result-drift", action="store_true",
                        help="demote simulation-result mismatches vs the "
                             "baseline from errors to warnings")
    p_snap.add_argument("--profile", action="store_true",
                        help="after the timed runs, cProfile one extra "
                             "pass of the sweep into results/perf/"
                             "profile/ (.prof + top-N text)")
    p_snap.add_argument("--profile-top", type=int, default=30,
                        metavar="N", help="functions to keep in the "
                                          "profile text summary")
    p_snap.add_argument("--no-history", action="store_true",
                        help="do not append this snapshot to "
                             "results/perf/history.jsonl")
    p_snap.add_argument("--engine", default="active",
                        choices=("active", "naive", "soa"),
                        help="cycle engine for the micro-sweep; the id "
                             "is recorded in the snapshot and every "
                             "history row (default: active)")
    p_snap.add_argument("--soa", action="store_true",
                        help="also run the SoA-kernel A/B (active-set "
                             "vs soa engine on the saturated points) "
                             "and write BENCH_soa.json")
    p_snap.add_argument("--soa-out", default=None, metavar="PATH",
                        help="SoA snapshot path (default: results/perf/"
                             "BENCH_soa.json)")

    p_trend = sub.add_parser("trend",
                             help="print the cycles/sec trajectory from "
                                  "history.jsonl vs the baseline")
    p_trend.add_argument("--baseline", default="BENCH_baseline.json",
                         metavar="PATH",
                         help="baseline snapshot to normalise against "
                              "(default: BENCH_baseline.json)")
    p_trend.add_argument("--history", default=None, metavar="PATH",
                         help="history file (default: results/perf/"
                              "history.jsonl)")
    p_trend.add_argument("--run", action="store_true",
                         help="time a fresh snapshot and append it to "
                              "the history before printing")
    p_trend.add_argument("--label", default=None,
                         help="label for the fresh snapshot (with --run)")
    p_trend.add_argument("--url", default=None, metavar="URL",
                         help="fetch the history from a fabric results "
                              "service (GET <url>/perf/trend) instead of "
                              "the local history.jsonl")
    args = parser.parse_args(argv)

    if args.cmd == "trend":
        if args.run:
            if args.url:
                parser.error("--run records locally; it cannot be "
                             "combined with --url")
            print("perf trend: timing a fresh snapshot")
            snap = run_snapshot(repeat=1, label=args.label)
            append_history(snap, args.history)
        if args.url:
            import urllib.error

            from repro.fabric.httpd import http_json
            try:
                remote = http_json(
                    "GET", args.url.rstrip("/") + "/perf/trend")
            except (urllib.error.URLError, ConnectionError,
                    OSError) as exc:
                reason = getattr(exc, "reason", None) or exc
                print(f"coordinator not reachable at {args.url}: "
                      f"{reason}", file=sys.stderr)
                return 2
            print(f"  history served by {args.url} "
                  f"({remote.get('history')})")
            entries = remote.get("entries", [])
        else:
            entries = load_history(args.history)
        base = None
        if args.baseline and Path(args.baseline).exists():
            base = json.loads(Path(args.baseline).read_text())
        elif args.baseline:
            print(f"  (baseline {args.baseline} not found; "
                  "printing raw trajectory)")
        print_trend(entries, base)
        return 0

    print("perf snapshot: "
          f"{len(SNAPSHOT_POINTS)} points, seed {SNAPSHOT_SEED}, "
          f"engine {args.engine}")
    snap = run_snapshot(repeat=args.repeat, label=args.label,
                        engine=args.engine)
    path = write_snapshot(snap, args.out)
    print(f"  snapshot written to {path}")
    if not args.no_history:
        append_history(snap)
    if args.profile:
        prof_path, txt_path = run_profile(top=args.profile_top)
        print(f"  profile written to {prof_path} "
              f"(summary: {txt_path})")
    rc = 0
    if args.soa:
        print(f"SoA A/B: {len(SOA_POINTS)} saturated points, "
              f"best of {args.repeat + 2}")
        rc = _soa_ab(args.soa_out, args.repeat + 2)
    if rc == 2 or not args.compare:
        return rc
    base = json.loads(Path(args.compare).read_text())
    return compare(snap, base, args.fail_under,
                   allow_result_drift=args.allow_result_drift) or rc
