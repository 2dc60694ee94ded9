"""Command-line entry point: regenerate any table/figure of the paper.

Usage (``python -m repro.experiments.cli`` is the same entry)::

    repro-experiments table1 fig7 --full     # or `all`; --jobs N | --fabric N
    repro-experiments campaign run|status|clean ...
    repro-experiments fabric serve|work|status ...  # serve --resume adopts
                                                    # a crashed run's leases
    repro-experiments scenarios run|sweep|record|replay ...
    repro-experiments faults sweep --modes cut --rates 0.05
    repro-experiments obs report|export --scheme fastpass --rate 0.1

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
import contextlib
import functools
import importlib
import json
import sys
import time

from repro.campaign import context as campaign_context
from repro.experiments import ALL


def _csv(cast=str):
    """argparse ``type`` for a comma-separated list of ``cast`` values
    (None when empty, so the default applies)."""
    def parse(text: str) -> list | None:
        return [cast(t) for t in (s.strip() for s in text.split(","))
                if t] or None
    parse.__name__ = f"comma-separated {cast.__name__}"
    return parse


def _add_run_flags(parser: argparse.ArgumentParser,
                   local: bool = True) -> None:
    """Flags of a subcommand that runs experiments; ``fabric serve`` (not
    ``local``) has no ``--jobs``/``--fabric``, its ``--workers`` are."""
    parser.add_argument("--full", action="store_true",
                        help="paper-scale parameters (slow) instead of the "
                             "quick defaults")
    if local:
        where = parser.add_mutually_exclusive_group()
        where.add_argument("--jobs", type=int, metavar="N", default=None,
                           help="tasks to run at once, one forked worker "
                                "each; a figure's series share them "
                                "(default: one per core this process may "
                                "use; 1 runs everything in-process)")
    parser.add_argument("--no-cache", action="store_true",
                        help="recompute every point, ignoring the run cache")
    parser.add_argument("--json", metavar="PATH", default=None,
                        help="also dump every raw result dict to a JSON file")
    if local:
        where.add_argument("--fabric", type=int, metavar="N", default=None,
                           help="run through a loopback fabric: a local "
                                "coordinator plus N pulling workers, "
                                "bit-identical to the local executor")


def _write_json(path: str, payload, what: str = "raw results") -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, default=_jsonable)
    print(f"{what} written to {path}")


def _jsonable(obj):
    """Best-effort JSON coercion for result payloads."""
    return sorted(obj) if isinstance(obj, (set, frozenset)) else str(obj)


def _kv(mapping, sep: str = "=", every: bool = False) -> str:
    """``k=v, ...`` over a mapping's non-zero entries (all if ``every``)."""
    return ", ".join(f"{k}{sep}{v}" for k, v in mapping.items()
                     if v or every)


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


def _cache_summary(ctx) -> str:
    cache = ctx.cache()
    if cache is None:
        return "run cache disabled"
    return (f"run cache: {cache.hits} hits, {cache.misses} misses "
            f"({len(cache)} entries at {cache.root})")


# -- the run body --------------------------------------------------------

@contextlib.contextmanager
def _session(ctx, args):
    """Route the campaign layer through a fabric session for the span of
    a run: the coordinator of ``fabric serve`` (which also writes its
    final status), the loopback fleet of ``--fabric N``, or none."""
    serve = getattr(args, "cmd", None) == "serve"
    if not serve and not args.fabric:
        yield
        return
    from repro.fabric.executor import FabricSession
    if serve:
        from repro.campaign.executor import RetryPolicy
        session = FabricSession(
            cache=ctx.cache(),
            retry=RetryPolicy(max_attempts=args.max_attempts),
            lease_ttl_s=args.lease_ttl,
            host=args.host, port=args.port, workers=args.workers,
            resume=args.resume)
        url = session.url
        print(f"fabric coordinator serving on {url} "
              f"with {args.workers} local workers")
        if args.resume:
            print("  resume: adopting journaled leases from campaign stores")
        print(f"  pull work:   repro-experiments fabric work {url}\n"
              f"  live status: repro-experiments fabric status {url}")
    else:
        session = FabricSession(cache=ctx.cache(), workers=args.fabric)
        print(f"loopback fabric: coordinator {session.url}, "
              f"{args.fabric} workers", file=sys.stderr)
    ctx.fabric_session = session
    try:
        yield
    finally:
        ctx.fabric_session = None
        status = session.coordinator.status() if serve else None
        session.close()
        if serve:
            path = campaign_context.results_dir() / "fabric" \
                / "status_final.json"
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(json.dumps(status, indent=2, sort_keys=True)
                            + "\n")
            print(f"final fabric status written to {path}", file=sys.stderr)


def _run(args, runs, *, keyed: bool = True, progress: bool = False,
         footer=None) -> int:
    """The one body of every subcommand that runs experiments: each of
    ``runs``, ``(label, campaign, run, format)``, is ``run(quick=...)``
    under ``campaign`` (None: untracked), printed, timed and followed by
    ``footer(ctx)`` if given.  ``--json`` gets ``{label: result}``, or
    the one result itself when not ``keyed``."""
    ctx = campaign_context.get_context()
    if getattr(args, "jobs", None) is not None:
        ctx.jobs = args.jobs
    if args.no_cache:
        ctx.enabled = False
    ctx.progress = _progress_printer() if progress else None
    collected = {}
    try:
        with _session(ctx, args):
            for label, campaign, run, fmt in runs:
                print(f"=== {label} " + "=" * (70 - len(label)))
                t0 = time.time()
                ctx.campaign = campaign
                try:
                    result = run(quick=not args.full)
                finally:
                    ctx.campaign = None
                print(fmt(result))
                print(f"--- {label} done in {time.time() - t0:.1f}s")
                if footer is not None:
                    print(footer(ctx))
                collected[label] = result
    finally:
        ctx.progress = None
    if args.json:
        _write_json(args.json, collected if keyed else result)
    return 0


def _experiments(parser, args) -> int:
    """``X ...``, ``campaign run`` and ``fabric serve``: the paper's
    regenerators, each tracked as its own campaign unless ad hoc."""
    names = list(ALL) if "all" in args.experiments else args.experiments
    unknown = [n for n in names if n not in ALL]
    if unknown:
        parser.error(f"unknown experiments: {unknown}")
    modules = [importlib.import_module(f"repro.experiments.{n}")
               for n in names]
    runs = [(n, n if args.track else None, m.run, m.format_result)
            for n, m in zip(names, modules)]
    return _run(args, runs, progress=args.track, footer=lambda ctx: "")


def _add_experiments(parser) -> None:
    parser.add_argument("experiments", nargs="+",
                        help=f"experiment ids ({', '.join(ALL)}) or 'all'")


# -- campaign -----------------------------------------------------------

def _campaign_names(ctx, args) -> list[str]:
    """The named campaigns, or every recorded one."""
    return args.names or sorted(
        p.stem for p in ctx.campaign_dir.glob("*.sqlite"))


def _campaign_status(parser, args) -> int:
    ctx = campaign_context.get_context()
    names = _campaign_names(ctx, args)
    if not names:
        print(f"no campaigns recorded (looked in {ctx.campaign_dir})")
    for name in names:
        path = ctx.campaign_dir / f"{name}.sqlite"
        if not path.exists():
            print(f"{name}: no store at {path}")
            continue
        store = ctx.store(name)
        counts = store.counts()
        print(f"{name}: {sum(counts.values())} points — {_kv(counts)}")
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
            print(f"    failed {key[:12]}… after {attempts} attempts: {error}")
    cache = ctx.cache()
    if cache is not None:
        print(f"run cache: {len(cache)} entries at {cache.root} "
              f"(salt {cache.salt})")
        engines = cache.engine_counts()
        if engines:
            print("    by engine: " + _kv(dict(sorted(engines.items())), ": "))
    return 0


def _campaign_clean(parser, args) -> int:
    ctx = campaign_context.get_context()
    names = _campaign_names(ctx, args)
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


def _campaign_commands(sub) -> None:
    p_run = sub.add_parser("run", help="run experiments as campaigns "
                                       "(status tracked, resumable)")
    _add_experiments(p_run)
    _add_run_flags(p_run)
    p_run.set_defaults(func=_experiments, track=True)

    p_status = sub.add_parser("status",
                              help="show per-campaign point status "
                                   "(live fabric: `fabric status URL`)")
    p_status.add_argument("names", nargs="*",
                          help="campaign names (default: all recorded)")
    p_status.set_defaults(func=_campaign_status)

    p_clean = sub.add_parser("clean", help="delete campaign stores "
                                           "(and optionally the cache)")
    p_clean.add_argument("names", nargs="*",
                         help="campaign names (default: all)")
    p_clean.add_argument("--cache", action="store_true",
                         help="also clear the content-addressed run cache")
    p_clean.set_defaults(func=_campaign_clean)


# -- fabric -------------------------------------------------------------

def _print_live_status(parser, args) -> int:
    """Live view from a fabric coordinator's results service."""
    import urllib.error

    from repro.fabric.httpd import http_json
    try:
        s = http_json("GET", args.url.rstrip("/") + "/status")
    except (urllib.error.URLError, ConnectionError, OSError) as exc:
        reason = getattr(exc, "reason", None) or exc
        print(f"coordinator not reachable at {args.url}: {reason}\n"
              "is the fabric serving?  start one with: "
              "repro-experiments fabric serve <experiments>",
              file=sys.stderr)
        return 2
    eta = s.get("eta_s")
    print(f"{s.get('campaign') or 'fabric'}: state={s.get('state')} "
          f"drained={s.get('drained')} elapsed={s.get('elapsed_s')}s")
    print(f"  points: {_kv(s.get('counts', {}))}")
    print(f"  throughput: {s.get('points_per_s', 0)} pts/s, "
          f"ETA {'?' if eta is None else f'{eta:.0f}s'}")
    print(f"  queue: {_kv(s.get('queue', {}))}")
    workers = s.get("workers", {})
    if workers:
        print(f"  {'worker':28s} {'leases':>7s} {'points':>7s} "
              f"{'fail':>5s} {'pts/s':>8s} {'seen':>8s}")
        for wid, w in sorted(workers.items()):
            print(f"  {wid[:28]:28s} {w['leases']:7d} {w['points']:7d} "
                  f"{w['failures']:5d} {w['points_per_s']:8.2f} "
                  f"{w['last_seen_s_ago']:7.1f}s")
    return 0


def _fabric_work(parser, args) -> int:
    from repro.fabric.httpd import HttpError
    from repro.fabric.worker import FabricWorker
    worker = FabricWorker(args.url, worker_id=args.id,
                          poll_s=args.poll, max_tasks=args.max_tasks)
    print(f"worker {worker.worker_id} pulling from {worker.url}")
    try:
        stats = worker.run()
    except HttpError as exc:
        if exc.status != 409:
            raise
        print(f"coordinator at {worker.url} refused this worker: {exc}",
              file=sys.stderr)
        return 2
    print("coordinator shut down; worker exiting — "
          + _kv(stats, every=True))
    return 0


def _fabric_commands(sub) -> None:
    p_serve = sub.add_parser(
        "serve", help="run experiments as a fabric coordinator "
                      "(workers pull points over HTTP)")
    _add_experiments(p_serve)
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
    _add_run_flags(p_serve, local=False)
    p_serve.set_defaults(func=_experiments, track=True)

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
    p_work.set_defaults(func=_fabric_work)

    p_stat = sub.add_parser(
        "status", help="live status of a running coordinator")
    p_stat.add_argument("url", help="coordinator base URL")
    p_stat.set_defaults(func=_print_live_status)


# -- scenarios ----------------------------------------------------------

def _scenarios_run(parser, args) -> int:
    from repro.experiments import scenarios
    from repro.traffic.spec import SCENARIOS

    bad = [n for n in args.scenarios
           if n not in SCENARIOS and not n.endswith(".json")]
    if bad:
        parser.error(f"unknown scenarios: {bad} (library: "
                     f"{sorted(SCENARIOS)}, or pass a spec .json path)")
    run = functools.partial(scenarios.run, scenarios=args.scenarios or None,
                            topologies=args.topologies, seeds=args.seeds)
    return _run(args, [("scenarios", "scenarios", run,
                        scenarios.format_result)],
                keyed=False, footer=_cache_summary)


def _scenarios_sweep(parser, args) -> int:
    from repro.experiments import scenarios
    run = functools.partial(scenarios.sweep, scenario=args.scenario,
                            scales=args.scales, seeds=args.seeds)
    return _run(args, [("scenario sweep", "scenarios", run,
                        scenarios.format_sweep)],
                keyed=False, footer=_cache_summary)


def _scenarios_record(parser, args) -> int:
    from repro.experiments.common import synthetic_config
    from repro.sim.runner import record_scenario
    from repro.traffic.spec import get_scenario
    spec = get_scenario(args.scenario)
    cfg = synthetic_config(quick=not args.full)
    out = args.out or f"trace_{spec.name}_{spec.sha()}.jsonl"
    res, path, events = record_scenario(args.scheme, spec, cfg, out,
                                        seed=args.seed)
    print(f"recorded {spec.name} ({args.scheme}, seed {args.seed}) "
          f"to {path}")
    print(f"  events={len(events)} "
          f"delivered={res.ejected} avg_latency={res.avg_latency:.2f}")
    print(f"  replay with: repro-experiments scenarios replay {path}")
    return 0


def _scenarios_replay(parser, args) -> int:
    from repro.experiments.common import synthetic_config
    from repro.sim.runner import replay_trace
    from repro.traffic.trace import TraceSchemaError
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


def _scenarios_commands(sub) -> None:
    p_run = sub.add_parser(
        "run", help="run scenario specs + the irregular-topology sweep")
    p_run.add_argument("scenarios", nargs="*",
                       help="library scenario names or spec .json paths "
                            "(default: the whole library)")
    p_run.add_argument("--topologies", type=_csv(), default=None,
                       help="comma-separated irregular topologies, e.g. "
                            "ring:8,torus:4x4,mesh:16x16")
    p_run.set_defaults(func=_scenarios_run)

    p_sweep = sub.add_parser(
        "sweep", help="load-scale sweep of one scenario")
    p_sweep.add_argument("scenario", nargs="?", default="bursty",
                         help="scenario name or .json path "
                              "(default: bursty)")
    p_sweep.add_argument("--scales", type=_csv(float), default=None,
                         help="comma-separated rate multipliers "
                              "(default: 0.5,1,1.5,2)")
    p_sweep.set_defaults(func=_scenarios_sweep)
    for p in (p_run, p_sweep):
        p.add_argument("--seeds", type=_csv(int), default=None,
                       help="comma-separated replica seeds")
        _add_run_flags(p)

    p_rec = sub.add_parser(
        "record", help="run a scenario once, recording its generation "
                       "stream to a versioned trace artifact")
    p_rec.add_argument("scenario", help="scenario name or .json path")
    p_rec.add_argument("--out", default=None,
                       help="trace path (default: "
                            "trace_<name>_<sha>.jsonl)")
    p_rec.add_argument("--seed", type=int, default=1)
    p_rec.set_defaults(func=_scenarios_record)

    p_rep = sub.add_parser(
        "replay", help="replay a recorded trace as the traffic source")
    p_rep.add_argument("trace", help="trace .jsonl path")
    p_rep.set_defaults(func=_scenarios_replay)
    for p in (p_rec, p_rep):
        p.add_argument("--scheme", default="fastpass")
        p.add_argument("--full", action="store_true",
                       help="paper-scale windows")


# -- faults -------------------------------------------------------------

def _faults_sweep(parser, args) -> int:
    from repro.experiments import faults

    by_name = {name: (label, name, kw)
               for label, name, kw in faults.SCHEMES}
    unknown = [n for n in args.schemes or () if n not in by_name]
    if unknown:
        parser.error(f"unknown fault-sweep schemes: {unknown} "
                     f"(choose from {sorted(by_name)})")
    schemes = [by_name[n] for n in args.schemes] if args.schemes \
        else faults.SCHEMES
    modes = args.modes or list(faults.MODES)
    bad = [m for m in modes if m not in faults.MODES]
    if bad:
        parser.error(f"unknown fault modes: {bad} "
                     f"(choose from {list(faults.MODES)})")
    run = functools.partial(faults.run, schemes=schemes, rates=args.rates,
                            fault_rates=args.fault_rates, modes=modes)
    return _run(args, [("faults sweep", "faults", run,
                        faults.format_result)], keyed=False)


def _faults_commands(sub) -> None:
    p_sweep = sub.add_parser(
        "sweep", help="sweep fault modes x load through the campaign "
                      "layer")
    p_sweep.add_argument("--schemes", type=_csv(), default=None,
                         help="comma-separated scheme names "
                              "(default: fastpass,escapevc,spin,baseline)")
    p_sweep.add_argument("--rates", type=_csv(float), default=None,
                         help="comma-separated injection rates "
                              "(default: 0.05,0.15)")
    p_sweep.add_argument("--fault-rates", type=_csv(float), default=None,
                         help="comma-separated storm event rates per "
                              "cycle (default: 0.002,0.01)")
    p_sweep.add_argument("--modes", type=_csv(), default=None,
                         help="comma-separated fault modes from "
                              "none,cut,storm (default: all)")
    _add_run_flags(p_sweep)
    p_sweep.set_defaults(func=_faults_sweep)


#: ``repro-experiments <group> <cmd> ...``: (description, function adding
#: the group's subcommands, each of which sets ``func(parser, args)``).
#: Anything else is a list of experiments.
GROUPS = {
    "campaign": ("Resumable, cache-first experiment campaigns.",
                 _campaign_commands),
    "fabric": ("Distributed campaign fabric: a leased work queue that "
               "pulling workers execute over HTTP.", _fabric_commands),
    "scenarios": ("Declarative scenario workloads, irregular-topology "
                  "sweeps and trace record/replay, all through the "
                  "campaign cache.", _scenarios_commands),
    "faults": ("Fault-injection robustness sweeps (fault rate x load).",
               _faults_commands),
    "obs": ("Observability: run one instrumented point and report or "
            "export its metrics.", lambda sub: importlib.import_module(
                "repro.experiments.obs").add_commands(sub)),
}


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    group = argv[0] if argv else None
    # bare `scenarios` is the experiment; the group needs a subcommand
    if group == "scenarios" and argv[1:2] not in (
            ["run"], ["sweep"], ["record"], ["replay"]):
        group = None
    if group in GROUPS:
        description, add_commands = GROUPS[group]
        parser = argparse.ArgumentParser(
            prog=f"repro-experiments {group}", description=description)
        add_commands(parser.add_subparsers(dest="cmd", required=True))
        argv = argv[1:]
    else:
        parser = argparse.ArgumentParser(
            prog="repro-experiments",
            description="Regenerate the tables/figures of the FastPass "
                        "paper (HPCA 2022).")
        _add_experiments(parser)
        _add_run_flags(parser)
        parser.set_defaults(func=_experiments, track=False)
    args = parser.parse_args(argv)
    return args.func(parser, args)


if __name__ == "__main__":
    sys.exit(main())
