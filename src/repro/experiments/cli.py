"""Command-line entry point: regenerate any table/figure of the paper.

Usage::

    repro-experiments table1 fig7 --full
    repro-experiments all --jobs 8       # everything, quick mode, 8 workers
    repro-experiments campaign run fig7 fig8 --full
    repro-experiments campaign status
    repro-experiments campaign clean --cache
    repro-experiments fig7 --fabric 4        # loopback fabric, 4 workers
    repro-experiments fabric serve fig7 fig8 --port 8750
    repro-experiments fabric work http://coordinator:8750
    repro-experiments fabric status http://coordinator:8750
    repro-experiments faults sweep --modes cut --rates 0.05
    repro-experiments scenarios run bursty --topologies ring:8,mesh:16x16
    repro-experiments scenarios sweep bursty --scales 0.5,1,2
    repro-experiments scenarios record bursty --out trace.jsonl
    repro-experiments scenarios replay trace.jsonl --scheme escapevc
    repro-experiments obs report --scheme fastpass --rate 0.1
    repro-experiments obs export --format prometheus --out metrics.prom
    python -m repro.experiments.cli fig11

Every experiment runs through the campaign layer: each simulation point is
content-addressed and cached under ``results/cache/``, so a rerun (or a
resume after an interruption) only recomputes points whose inputs — or the
simulator source — changed.  ``campaign run`` additionally records
per-point status in ``results/campaigns/<name>.sqlite`` and prints live
progress/ETA; ``campaign status`` inspects those stores; ``campaign
clean`` deletes them (and, with ``--cache``, the run cache).
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from repro.campaign import context as campaign_context
from repro.experiments import ALL


def _add_common_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--full", action="store_true",
                        help="paper-scale parameters (slow) instead of the "
                             "quick defaults")
    parser.add_argument("--jobs", type=int, metavar="N", default=None,
                        help="tasks to run at once, one forked worker "
                             "each; a figure's series share them "
                             "(default: one per core this process may "
                             "use; 1 runs everything in-process)")
    parser.add_argument("--no-cache", action="store_true",
                        help="recompute every point, ignoring the run "
                             "cache")
    parser.add_argument("--json", metavar="PATH", default=None,
                        help="also dump every raw result dict to a JSON "
                             "file")
    parser.add_argument("--fabric", type=int, metavar="N", default=None,
                        help="execute through a loopback campaign fabric: "
                             "a coordinator on localhost plus N pull "
                             "workers (differentially bit-identical to "
                             "the local executor)")


def _resolve_names(parser, experiments) -> list[str]:
    names = list(ALL) if "all" in experiments else list(experiments)
    unknown = [n for n in names if n not in ALL]
    if unknown:
        parser.error(f"unknown experiments: {unknown}")
    return names


def _run_experiments(names: list[str], args,
                     track_campaign: bool = False,
                     progress=None) -> int:
    ctx = campaign_context.get_context()
    if args.jobs is not None:
        ctx.jobs = args.jobs
    if args.no_cache:
        ctx.enabled = False
    collected = {}
    for name in names:
        module = ALL[name]
        print(f"=== {name} " + "=" * (70 - len(name)))
        t0 = time.time()
        ctx.campaign = name if track_campaign else None
        try:
            result = module.run(quick=not args.full)
        finally:
            ctx.campaign = None
        print(module.format_result(result))
        print(f"--- {name} done in {time.time() - t0:.1f}s\n")
        collected[name] = result
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(collected, fh, indent=2, default=_jsonable)
        print(f"raw results written to {args.json}")
    return 0


# -- campaign subcommands ----------------------------------------------

def _progress_printer():
    last = {"t": 0.0}

    def progress(p):
        now = time.monotonic()
        if now - last["t"] < 1.0 and p.finished < p.total:
            return
        last["t"] = now
        eta = f"{p.eta_s:.0f}s" if p.eta_s is not None else "?"
        print(f"  [{p.finished}/{p.total}] cached={p.cached} "
              f"computed={p.done} failed={p.failed} "
              f"running={p.running} ETA {eta}", file=sys.stderr)

    return progress


def _with_fabric(args, fn) -> int:
    """Run ``fn`` inside a loopback fabric session when ``--fabric N``
    was given; otherwise run it directly."""
    workers = getattr(args, "fabric", None)
    if not workers:
        return fn()
    ctx = campaign_context.get_context()
    if args.no_cache:
        ctx.enabled = False
    from repro.fabric.executor import FabricSession
    session = FabricSession(cache=ctx.cache(), workers=workers)
    print(f"loopback fabric: coordinator {session.url}, "
          f"{workers} workers", file=sys.stderr)
    ctx.fabric_session = session
    try:
        return fn()
    finally:
        ctx.fabric_session = None
        session.close()


def _campaign_run(parser, args) -> int:
    names = _resolve_names(parser, args.experiments)
    ctx = campaign_context.get_context()
    ctx.progress = _progress_printer()
    try:
        return _with_fabric(
            args, lambda: _run_experiments(names, args,
                                           track_campaign=True))
    finally:
        ctx.progress = None


def _print_live_status(url: str) -> int:
    """Live view from a fabric coordinator's results service."""
    import urllib.error

    from repro.fabric.httpd import http_json
    try:
        s = http_json("GET", url.rstrip("/") + "/status")
    except (urllib.error.URLError, ConnectionError, OSError) as exc:
        reason = getattr(exc, "reason", None) or exc
        print(f"coordinator not reachable at {url}: {reason}",
              file=sys.stderr)
        print("is the fabric serving?  start one with: "
              "repro-experiments fabric serve <experiments>",
              file=sys.stderr)
        return 2
    counts = s.get("counts", {})
    eta = s.get("eta_s")
    print(f"{s.get('campaign') or 'fabric'}: state={s.get('state')} "
          f"drained={s.get('drained')} elapsed={s.get('elapsed_s')}s")
    print("  points: " + ", ".join(
        f"{k}={v}" for k, v in counts.items() if v))
    print(f"  throughput: {s.get('points_per_s', 0)} pts/s, "
          f"ETA {'?' if eta is None else f'{eta:.0f}s'}")
    q = s.get("queue", {})
    print("  queue: " + ", ".join(f"{k}={v}" for k, v in q.items() if v))
    chaos = s.get("chaos") or {}
    if chaos:
        print("  chaos injected: " + ", ".join(
            f"{k}={v}" for k, v in chaos.items()))
    quarantine = s.get("quarantine") or {}
    if quarantine.get("total"):
        print(f"  quarantined: {quarantine['total']}")
        for event in quarantine.get("events", [])[-5:]:
            liars = ",".join(event.get("liars") or []) or "?"
            print(f"    {event.get('task', '?')[:12]}… "
                  f"verdict={event.get('verdict')} liars={liars} "
                  f"({event.get('path')})")
    workers = s.get("workers", {})
    if workers:
        print(f"  {'worker':28s} {'leases':>7s} {'points':>7s} "
              f"{'fail':>5s} {'pts/s':>8s} {'seen':>8s}")
        for wid in sorted(workers):
            w = workers[wid]
            print(f"  {wid[:28]:28s} {w['leases']:7d} {w['points']:7d} "
                  f"{w['failures']:5d} {w['points_per_s']:8.2f} "
                  f"{w['last_seen_s_ago']:7.1f}s")
    return 0


def _campaign_status(args) -> int:
    if getattr(args, "url", None):
        return _print_live_status(args.url)
    ctx = campaign_context.get_context()
    names = args.names or sorted(
        p.stem for p in ctx.campaign_dir.glob("*.sqlite"))
    if not names:
        print("no campaigns recorded "
              f"(looked in {ctx.campaign_dir})")
    for name in names:
        path = ctx.campaign_dir / f"{name}.sqlite"
        if not path.exists():
            print(f"{name}: no store at {path}")
            continue
        store = ctx.store(name)
        counts = store.counts()
        total = sum(counts.values())
        print(f"{name}: {total} points — " + ", ".join(
            f"{status}={n}" for status, n in counts.items() if n))
        # ETA from the store's own completion transitions: correct no
        # matter who is executing — the local pool or remote fabric
        # workers holding leases ('running' counts them in-flight).
        remaining = counts["pending"] + counts["running"]
        finished, span = store.throughput()
        if remaining and finished:
            rate = finished / span
            print(f"    ETA {remaining / rate:.0f}s at {rate:.2f} pts/s "
                  f"({counts['running']} in flight)")
        elif remaining:
            print(f"    ETA unknown — {remaining} points remaining, "
                  "no recent completions")
        for key, error, attempts in store.failures()[:10]:
            print(f"    failed {key[:12]}… after {attempts} attempts: "
                  f"{error}")
    cache = ctx.cache()
    if cache is not None:
        print(f"run cache: {len(cache)} entries at {cache.root} "
              f"(salt {cache.salt})")
        engines = cache.engine_counts()
        if engines:
            parts = ", ".join(f"{name}: {n}" for name, n in
                              sorted(engines.items()))
            print(f"    by engine: {parts}")
    return 0


def _campaign_clean(args) -> int:
    ctx = campaign_context.get_context()
    names = args.names
    if not names and not args.cache:
        names = sorted(p.stem for p in ctx.campaign_dir.glob("*.sqlite"))
    ctx.close()
    for name in names:
        path = ctx.campaign_dir / f"{name}.sqlite"
        if path.exists():
            path.unlink()
            print(f"removed campaign store {path}")
    if args.cache:
        from repro.campaign.cache import RunCache
        n = RunCache(ctx.cache_dir).clear()
        print(f"cleared {n} cached results from {ctx.cache_dir}")
    return 0


def _campaign_main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-experiments campaign",
        description="Resumable, cache-first experiment campaigns.")
    sub = parser.add_subparsers(dest="cmd", required=True)

    p_run = sub.add_parser("run", help="run experiments as campaigns "
                                       "(status tracked, resumable)")
    p_run.add_argument("experiments", nargs="+",
                       help=f"experiment ids ({', '.join(ALL)}) or 'all'")
    _add_common_flags(p_run)

    p_status = sub.add_parser("status",
                              help="show per-campaign point status")
    p_status.add_argument("names", nargs="*",
                          help="campaign names (default: all recorded)")
    p_status.add_argument("--url", default=None, metavar="URL",
                          help="query a live fabric coordinator instead "
                               "of local stores (per-worker throughput, "
                               "lease-aware ETA)")

    p_clean = sub.add_parser("clean", help="delete campaign stores "
                                           "(and optionally the cache)")
    p_clean.add_argument("names", nargs="*",
                         help="campaign names (default: all)")
    p_clean.add_argument("--cache", action="store_true",
                         help="also clear the content-addressed run cache")

    args = parser.parse_args(argv)
    if args.cmd == "run":
        return _campaign_run(parser, args)
    if args.cmd == "status":
        return _campaign_status(args)
    return _campaign_clean(args)


# -- fabric subcommands -------------------------------------------------

def _fabric_serve(parser, args) -> int:
    import os
    from pathlib import Path

    names = _resolve_names(parser, args.experiments)
    ctx = campaign_context.get_context()
    if args.no_cache:
        ctx.enabled = False
    from repro.campaign.executor import RetryPolicy
    from repro.fabric.executor import FabricSession
    session = FabricSession(
        cache=ctx.cache(),
        retry=RetryPolicy(max_attempts=args.max_attempts),
        lease_ttl_s=args.lease_ttl,
        host=args.host, port=args.port, workers=args.workers,
        redundancy=args.redundancy, resume=args.resume)
    print(f"fabric coordinator serving on {session.url} "
          f"with {args.workers} local workers")
    if args.resume:
        print("  resume: adopting journaled leases from campaign stores")
    if args.redundancy:
        print(f"  redundancy: {args.redundancy:.0%} of tasks "
              "double-executed and cross-checked")
    print(f"  pull work:   repro-experiments fabric work {session.url}")
    print(f"  live status: repro-experiments fabric status {session.url}")
    ctx.fabric_session = session
    ctx.progress = _progress_printer()
    try:
        return _run_experiments(names, args, track_campaign=True)
    finally:
        ctx.fabric_session = None
        ctx.progress = None
        status = session.coordinator.status()
        session.close()
        out = Path(os.environ.get("REPRO_RESULTS_DIR",
                                  "results")) / "fabric"
        out.mkdir(parents=True, exist_ok=True)
        path = out / "status_final.json"
        path.write_text(json.dumps(status, indent=2, sort_keys=True)
                        + "\n")
        print(f"final fabric status written to {path}", file=sys.stderr)


def _fabric_work(args) -> int:
    from repro.fabric.worker import FabricWorker
    worker = FabricWorker(args.url, worker_id=args.id,
                          poll_s=args.poll, max_tasks=args.max_tasks)
    print(f"worker {worker.worker_id} pulling from {worker.url}")
    stats = worker.run()
    print("coordinator shut down; worker exiting — " + ", ".join(
        f"{k}={v}" for k, v in stats.items()))
    return 0


def _fabric_main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-experiments fabric",
        description="Distributed campaign fabric: serve experiments as a "
                    "leased work queue; pull-based workers execute the "
                    "unchanged datapath and POST results back.")
    sub = parser.add_subparsers(dest="cmd", required=True)

    p_serve = sub.add_parser(
        "serve", help="run experiments as a fabric coordinator "
                      "(workers pull points over HTTP)")
    p_serve.add_argument("experiments", nargs="+",
                         help=f"experiment ids ({', '.join(ALL)}) or "
                              "'all'")
    p_serve.add_argument("--host", default="127.0.0.1",
                         help="bind address (default: 127.0.0.1; use "
                              "0.0.0.0 for multi-host fleets)")
    p_serve.add_argument("--port", type=int, default=0,
                         help="port (default: OS-assigned, printed at "
                              "startup)")
    p_serve.add_argument("--workers", type=int, default=0, metavar="N",
                         help="also spawn N local loopback workers "
                              "(default: 0 — remote workers only)")
    p_serve.add_argument("--lease-ttl", type=float, default=120.0,
                         metavar="S",
                         help="lease deadline; an unfinished lease is "
                              "re-queued after this long (default: 120)")
    p_serve.add_argument("--max-attempts", type=int, default=3,
                         help="retry budget per task, counting expired "
                              "leases (default: 3)")
    p_serve.add_argument("--resume", action="store_true",
                         help="adopt leases journaled by a previous "
                              "coordinator that crashed mid-campaign "
                              "(use the same --port so surviving "
                              "workers reconnect)")
    p_serve.add_argument("--redundancy", type=float, default=0.0,
                         metavar="F",
                         help="fraction of tasks leased to two workers "
                              "and cross-checked field-by-field; "
                              "mismatches are quarantined (default: 0)")
    _add_common_flags(p_serve)

    p_work = sub.add_parser(
        "work", help="pull and execute leased points from a coordinator")
    p_work.add_argument("url", help="coordinator base URL "
                                    "(e.g. http://host:8750)")
    p_work.add_argument("--id", default=None,
                        help="worker id (default: <hostname>-<pid>)")
    p_work.add_argument("--poll", type=float, default=0.25, metavar="S",
                        help="idle polling interval (default: 0.25s)")
    p_work.add_argument("--max-tasks", type=int, default=1, metavar="N",
                        help="tasks per lease request (default: 1)")

    p_stat = sub.add_parser(
        "status", help="live status of a running coordinator")
    p_stat.add_argument("url", help="coordinator base URL")

    args = parser.parse_args(argv)
    if args.cmd == "serve":
        return _fabric_serve(parser, args)
    if args.cmd == "work":
        return _fabric_work(args)
    return _print_live_status(args.url)


# -- chaos subcommands --------------------------------------------------

def _chaos_main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-experiments chaos",
        description="Transport-chaos certification for the campaign "
                    "fabric: run a small real campaign under an "
                    "escalating seeded ChaosPlan and prove every point "
                    "settles exactly once, bit-identically.")
    sub = parser.add_subparsers(dest="cmd", required=True)

    p_sweep = sub.add_parser(
        "sweep", help="escalating chaos levels vs. a local baseline; "
                      "prints a survival table")
    p_sweep.add_argument("--seed", type=int, default=0,
                         help="chaos plan seed (default: 0) — the same "
                              "seed reproduces the same fault streams")
    p_sweep.add_argument("--levels", default=None,
                         help="comma-separated intensity multipliers of "
                              "the base plan (default: 0,0.5,1,2)")
    p_sweep.add_argument("--workers", type=int, default=2, metavar="N",
                         help="loopback workers per level (default: 2)")
    p_sweep.add_argument("--redundancy", type=float, default=0.0,
                         metavar="F",
                         help="fraction of tasks double-executed and "
                              "cross-checked (default: 0)")
    p_sweep.add_argument("--json", default=None, metavar="PATH",
                         help="also dump the survival table as JSON")

    args = parser.parse_args(argv)
    from repro.chaos.sweep import format_table, run_sweep
    levels = [float(x) for x in _csv(args.levels)] if args.levels \
        else None
    report = run_sweep(seed=args.seed, levels=levels,
                       workers=args.workers,
                       redundancy=args.redundancy)
    print(format_table(report))
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(report, fh, indent=2, default=_jsonable)
        print(f"raw survival table written to {args.json}")
    ok = all(row["survived"] for row in report["levels"])
    print("chaos sweep: " + ("SURVIVED — every point settled exactly "
                             "once, bit-identical to the local baseline"
                             if ok else "FAILED — see table"))
    return 0 if ok else 1


# -- scenario subcommands -----------------------------------------------

def _cache_summary(ctx) -> str:
    cache = ctx.cache()
    if cache is None:
        return "run cache disabled"
    return (f"run cache: {cache.hits} hits, {cache.misses} misses "
            f"({len(cache)} entries at {cache.root})")


def _scenarios_run(parser, args) -> int:
    from repro.experiments import scenarios
    from repro.scenario.spec import SCENARIOS

    names = args.scenarios or None
    if names and any(n not in SCENARIOS and not n.endswith(".json")
                     for n in names):
        known = sorted(SCENARIOS)
        bad = [n for n in names
               if n not in SCENARIOS and not n.endswith(".json")]
        parser.error(f"unknown scenarios: {bad} (library: {known}, "
                     "or pass a spec .json path)")
    topologies = _csv(args.topologies) if args.topologies else None
    seeds = [int(s) for s in _csv(args.seeds)] if args.seeds else None

    ctx = campaign_context.get_context()
    if args.jobs is not None:
        ctx.jobs = args.jobs
    if args.no_cache:
        ctx.enabled = False
    ctx.campaign = "scenarios"
    t0 = time.time()
    try:
        result = scenarios.run(quick=not args.full, scenarios=names,
                               topologies=topologies, seeds=seeds)
    finally:
        ctx.campaign = None
    print(scenarios.format_result(result))
    print(f"--- scenarios done in {time.time() - t0:.1f}s")
    print(_cache_summary(ctx))
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(result, fh, indent=2, default=_jsonable)
        print(f"raw results written to {args.json}")
    return 0


def _scenarios_sweep(args) -> int:
    from repro.experiments import scenarios
    scales = [float(x) for x in _csv(args.scales)] if args.scales else None
    seeds = [int(s) for s in _csv(args.seeds)] if args.seeds else None
    ctx = campaign_context.get_context()
    if args.jobs is not None:
        ctx.jobs = args.jobs
    if args.no_cache:
        ctx.enabled = False
    ctx.campaign = "scenarios"
    t0 = time.time()
    try:
        result = scenarios.sweep(quick=not args.full,
                                 scenario=args.scenario, scales=scales,
                                 seeds=seeds)
    finally:
        ctx.campaign = None
    print(scenarios.format_sweep(result))
    print(f"--- scenario sweep done in {time.time() - t0:.1f}s")
    print(_cache_summary(ctx))
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(result, fh, indent=2, default=_jsonable)
        print(f"raw results written to {args.json}")
    return 0


def _scenarios_record(args) -> int:
    from repro.experiments.common import synthetic_config
    from repro.scenario import get_scenario, record_scenario
    spec = get_scenario(args.scenario)
    cfg = synthetic_config(quick=not args.full)
    out = args.out or f"trace_{spec.name}_{spec.sha()}.jsonl"
    res, path = record_scenario(args.scheme, spec, cfg, out,
                                seed=args.seed)
    print(f"recorded {spec.name} ({args.scheme}, seed {args.seed}) "
          f"to {path}")
    print(f"  events={len(open(path).readlines()) - 1} "
          f"delivered={res.ejected} avg_latency={res.avg_latency:.2f}")
    print(f"  replay with: repro-experiments scenarios replay {path}")
    return 0


def _scenarios_replay(args) -> int:
    from repro.experiments.common import synthetic_config
    from repro.scenario import replay_trace
    from repro.scenario.trace import TraceSchemaError
    cfg = synthetic_config(quick=not args.full)
    try:
        res = replay_trace(args.scheme, args.trace, cfg)
    except (TraceSchemaError, OSError) as exc:
        print(f"cannot replay: {exc}", file=sys.stderr)
        return 2
    print(f"replayed {args.trace} under {args.scheme}: "
          f"delivered={res.ejected} avg_latency={res.avg_latency:.2f} "
          f"throughput={res.throughput:.4f}")
    return 0


def _scenarios_main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-experiments scenarios",
        description="Declarative scenario workloads: phased/bursty "
                    "traffic specs, irregular-topology partition sweeps, "
                    "and deterministic trace record/replay — all through "
                    "the campaign cache (the scenario content token is "
                    "part of every cache key).")
    sub = parser.add_subparsers(dest="cmd", required=True)

    p_run = sub.add_parser(
        "run", help="run scenario specs + the irregular-topology sweep")
    p_run.add_argument("scenarios", nargs="*",
                       help="library scenario names or spec .json paths "
                            "(default: the whole library)")
    p_run.add_argument("--topologies", default=None,
                       help="comma-separated irregular topologies, e.g. "
                            "ring:8,torus:4x4,mesh:16x16")
    p_run.add_argument("--seeds", default=None,
                       help="comma-separated replica seeds")
    _add_common_flags(p_run)

    p_sweep = sub.add_parser(
        "sweep", help="load-scale sweep of one scenario")
    p_sweep.add_argument("scenario", nargs="?", default="bursty",
                         help="scenario name or .json path "
                              "(default: bursty)")
    p_sweep.add_argument("--scales", default=None,
                         help="comma-separated rate multipliers "
                              "(default: 0.5,1,1.5,2)")
    p_sweep.add_argument("--seeds", default=None,
                         help="comma-separated replica seeds")
    _add_common_flags(p_sweep)

    p_rec = sub.add_parser(
        "record", help="run a scenario once, recording its generation "
                       "stream to a versioned trace artifact")
    p_rec.add_argument("scenario", help="scenario name or .json path")
    p_rec.add_argument("--out", default=None,
                       help="trace path (default: "
                            "trace_<name>_<sha>.jsonl)")
    p_rec.add_argument("--scheme", default="fastpass")
    p_rec.add_argument("--seed", type=int, default=1)
    p_rec.add_argument("--full", action="store_true",
                       help="paper-scale windows")

    p_rep = sub.add_parser(
        "replay", help="replay a recorded trace as the traffic source")
    p_rep.add_argument("trace", help="trace .jsonl path")
    p_rep.add_argument("--scheme", default="fastpass")
    p_rep.add_argument("--full", action="store_true",
                       help="paper-scale windows")

    args = parser.parse_args(argv)
    if args.cmd == "run":
        return _scenarios_run(parser, args)
    if args.cmd == "sweep":
        return _scenarios_sweep(args)
    if args.cmd == "record":
        return _scenarios_record(args)
    return _scenarios_replay(args)


# -- faults subcommands -------------------------------------------------

def _csv(text: str) -> list[str]:
    return [t for t in (s.strip() for s in text.split(",")) if t]


def _faults_sweep(parser, args) -> int:
    from repro.experiments import faults

    schemes = faults.SCHEMES
    if args.schemes:
        wanted = _csv(args.schemes)
        by_name = {name: (label, name, kw)
                   for label, name, kw in faults.SCHEMES}
        unknown = [n for n in wanted if n not in by_name]
        if unknown:
            parser.error(f"unknown fault-sweep schemes: {unknown} "
                         f"(choose from {sorted(by_name)})")
        schemes = [by_name[n] for n in wanted]
    modes = _csv(args.modes) if args.modes else list(faults.MODES)
    bad = [m for m in modes if m not in faults.MODES]
    if bad:
        parser.error(f"unknown fault modes: {bad} "
                     f"(choose from {list(faults.MODES)})")
    rates = [float(r) for r in _csv(args.rates)] if args.rates else None
    fault_rates = [float(r) for r in _csv(args.fault_rates)] \
        if args.fault_rates else None

    ctx = campaign_context.get_context()
    if args.jobs is not None:
        ctx.jobs = args.jobs
    if args.no_cache:
        ctx.enabled = False
    ctx.campaign = "faults"
    t0 = time.time()
    try:
        result = faults.run(quick=not args.full, schemes=schemes,
                            rates=rates, fault_rates=fault_rates,
                            modes=modes)
    finally:
        ctx.campaign = None
    print(faults.format_result(result))
    print(f"--- faults sweep done in {time.time() - t0:.1f}s")
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(result, fh, indent=2, default=_jsonable)
        print(f"raw results written to {args.json}")
    return 0


def _faults_main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-experiments faults",
        description="Fault-injection robustness sweeps (fault rate x "
                    "load), certifying graceful degradation and the "
                    "guaranteed-delivery bound.")
    sub = parser.add_subparsers(dest="cmd", required=True)

    p_sweep = sub.add_parser(
        "sweep", help="sweep fault modes x load through the campaign "
                      "layer")
    p_sweep.add_argument("--schemes", default=None,
                         help="comma-separated scheme names "
                              "(default: fastpass,escapevc,spin,baseline)")
    p_sweep.add_argument("--rates", default=None,
                         help="comma-separated injection rates "
                              "(default: 0.05,0.15)")
    p_sweep.add_argument("--fault-rates", default=None,
                         help="comma-separated storm event rates per "
                              "cycle (default: 0.002,0.01)")
    p_sweep.add_argument("--modes", default=None,
                         help="comma-separated fault modes from "
                              "none,cut,storm (default: all)")
    _add_common_flags(p_sweep)

    args = parser.parse_args(argv)
    return _faults_sweep(parser, args)


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] == "campaign":
        return _campaign_main(argv[1:])
    if argv and argv[0] == "faults":
        return _faults_main(argv[1:])
    if argv and argv[0] == "fabric":
        return _fabric_main(argv[1:])
    if argv and argv[0] == "chaos":
        return _chaos_main(argv[1:])
    if argv and argv[0] == "scenarios" and len(argv) > 1 and \
            argv[1] in ("run", "sweep", "record", "replay"):
        return _scenarios_main(argv[1:])
    if argv and argv[0] == "obs":
        from repro.experiments import obs
        return obs.main(argv[1:])
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description="Regenerate the tables/figures of the FastPass paper "
                    "(HPCA 2022).")
    parser.add_argument("experiments", nargs="+",
                        help=f"experiment ids ({', '.join(ALL)}) or 'all'")
    _add_common_flags(parser)
    args = parser.parse_args(argv)
    names = _resolve_names(parser, args.experiments)
    return _with_fabric(args, lambda: _run_experiments(names, args))


def _jsonable(obj):
    """Best-effort JSON coercion for result payloads."""
    if isinstance(obj, (set, frozenset, tuple)):
        return sorted(obj) if isinstance(obj, (set, frozenset)) else \
            list(obj)
    return str(obj)


if __name__ == "__main__":
    sys.exit(main())
