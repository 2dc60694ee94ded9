"""``repro-experiments obs``: run one instrumented point and report or
export its metrics.

``obs report`` prints the counters, end-state gauges, latency histogram
and per-lane upgrade split of a single run; ``obs export`` renders the
same run's metric registry in Prometheus text format or as a JSON
snapshot (including the gauge time series) to stdout or a file.  Both
also leave the standard ``results/metrics/`` artifact behind.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.config import SimConfig
from repro.schemes import get_scheme
from repro.sim.engine import Simulation
from repro.traffic.synthetic import PATTERNS, SyntheticTraffic


def _add_run_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--scheme", default="fastpass",
                        help="scheme name (default: fastpass)")
    parser.add_argument("--pattern", default="uniform", choices=PATTERNS)
    parser.add_argument("--rate", type=float, default=0.10,
                        help="injection rate, packets/node/cycle")
    parser.add_argument("--rows", type=int, default=8)
    parser.add_argument("--cols", type=int, default=8)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--warmup", type=int, default=500)
    parser.add_argument("--measure", type=int, default=2000)
    parser.add_argument("--sample-every", type=int, default=100,
                        metavar="N",
                        help="gauge time-series cadence in cycles "
                             "(0 = no sampling; default 100)")


def _run_instrumented(args):
    from repro.obs import attach_observability, write_metrics
    cfg = SimConfig(rows=args.rows, cols=args.cols, seed=args.seed,
                    warmup_cycles=args.warmup,
                    measure_cycles=args.measure)
    sim = Simulation(cfg, get_scheme(args.scheme),
                     SyntheticTraffic(args.pattern, args.rate,
                                      seed=args.seed))
    obs = attach_observability(sim.net, sample_every=args.sample_every)
    res = sim.run()
    name = f"{args.scheme}_{args.pattern}_r{args.rate:g}"
    artifact = write_metrics(obs, name)
    return sim, obs, res, artifact


def _report(parser, args) -> int:
    sim, obs, res, artifact = _run_instrumented(args)
    reg = obs.registry
    counters = reg.to_json()["counters"]
    print(f"== {args.scheme} {args.pattern} rate={args.rate:g} "
          f"{args.rows}x{args.cols} seed={args.seed} "
          f"({res.cycles} cycles) ==")
    print(f"avg latency {res.avg_latency:.1f}  p99 {res.p99_latency:.1f}  "
          f"throughput {res.throughput:.4f}"
          + ("  DEADLOCKED" if res.deadlocked else ""))
    print("\ncounters:")
    for name, value in counters.items():
        if isinstance(value, dict):
            total = sum(value.values())
            print(f"  {name:<28} {total}")
            for label, v in value.items():
                print(f"    {label:<26} {v}")
        else:
            print(f"  {name:<28} {value}")
    hist = reg.get("noc_packet_latency_cycles")
    if hist.count:
        print(f"\nlatency histogram ({hist.count} measured packets):")
        print(f"  mean {hist.mean():.1f}  p50 ~{hist.quantile(0.5):g}  "
              f"p99 ~{hist.quantile(0.99):g}")
        for le, acc in hist.cumulative():
            print(f"  le={le:<8g} {acc}")
    print("\nend-state gauges:")
    for gname in ("noc_packets_in_flight", "noc_total_backlog",
                  "noc_inj_queue_depth", "noc_limbo"):
        print(f"  {gname:<28} {reg.get(gname).read()}")
    print(f"\nevents emitted: {obs.bus.emitted}")
    print(f"metrics artifact: {artifact}")
    return 0


def _export(parser, args) -> int:
    from repro.obs import snapshot_json, to_prometheus
    sim, obs, res, artifact = _run_instrumented(args)
    if args.format == "prometheus":
        text = to_prometheus(obs.registry)
    else:
        text = json.dumps(snapshot_json(obs, label=args.scheme),
                          indent=2, sort_keys=True) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
        print(f"wrote {args.format} export to {args.out}",
              file=sys.stderr)
    else:
        sys.stdout.write(text)
    return 0


def add_commands(sub) -> None:
    """The ``obs`` group's subcommands, for the CLI's dispatch table."""
    p_report = sub.add_parser(
        "report", help="run one point and print a metrics report")
    _add_run_flags(p_report)
    p_report.set_defaults(func=_report)

    p_export = sub.add_parser(
        "export", help="run one point and export its metric registry")
    _add_run_flags(p_export)
    p_export.add_argument("--format", default="prometheus",
                          choices=("prometheus", "json"))
    p_export.add_argument("--out", default=None, metavar="PATH",
                          help="write to a file instead of stdout")
    p_export.set_defaults(func=_export)
