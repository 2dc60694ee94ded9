"""Shared experiment infrastructure: configurations, campaign-backed
execution helpers, and table formatting.

Every figure/table script runs its simulation points through the
``cached_*`` helpers below, which route execution through the campaign
layer (:mod:`repro.campaign`): points are content-addressed, results are
cached under ``results/cache/``, and reruns after an interruption (or
after touching only one scheme) recompute only what changed.
"""

from __future__ import annotations

from repro.config import RunResult, SimConfig
from repro.sim.parallel import Point

#: Fig. 7 comparison set (8x8, synthetic, 4 VCs for FastPass)
FIG7_SCHEMES = [
    ("EscapeVC", "escapevc", {}),
    ("SPIN", "spin", {}),
    ("SWAP", "swap", {}),
    ("DRAIN", "drain", {}),
    ("Pitstop", "pitstop", {}),
    ("MinBD", "minbd", {}),
    ("TFC", "tfc", {}),
    ("FastPass", "fastpass", {"n_vcs": 4}),
]

#: Fig. 8 comparison set (scaling study)
FIG8_SCHEMES = [
    ("SPIN", "spin", {}),
    ("SWAP", "swap", {}),
    ("DRAIN", "drain", {}),
    ("Pitstop", "pitstop", {}),
    ("FastPass", "fastpass", {"n_vcs": 4}),
]

#: Fig. 10 comparison set (applications)
FIG10_SCHEMES = [
    ("EscapeVC(VN=6, VC=2)", "escapevc", {}),
    ("SPIN(VN=6, VC=2)", "spin", {}),
    ("SWAP(VN=6, VC=2)", "swap", {}),
    ("DRAIN(VN=6, VC=2)", "drain", {}),
    ("Pitstop(VN=0, VC=2)", "pitstop", {}),
    ("TFC(VN=6, VC=2)", "tfc", {}),
    ("FastPass(VN=0, VC=2)", "fastpass", {"n_vcs": 2}),
    ("FastPass(VN=0, VC=4)", "fastpass", {"n_vcs": 4}),
]


def synthetic_config(quick: bool, rows: int = 8, cols: int = 8) -> SimConfig:
    """Open-loop synthetic-run configuration."""
    if quick:
        return SimConfig(rows=rows, cols=cols, warmup_cycles=300,
                         measure_cycles=1200, drain_cycles=2000)
    return SimConfig(rows=rows, cols=cols, warmup_cycles=1000,
                     measure_cycles=5000, drain_cycles=8000)


def app_config(quick: bool) -> SimConfig:
    """Closed-loop application-run configuration.

    Applications run on the 8x8 (64-core) mesh as in the paper; quick mode
    uses 4x4 so the whole Fig. 10/12/13 sweep stays fast.  The DRAIN period
    is scaled down so the number of drain events *per benchmark run* stays
    comparable to the paper's: their 64K-cycle period fires thousands of
    times over a full-system benchmark, while our runs retire in 5K-60K
    cycles — an unscaled period would simply never fire (DESIGN.md §5).
    """
    if quick:
        return SimConfig(rows=4, cols=4, drain_period_cycles=800)
    return SimConfig(rows=8, cols=8, drain_period_cycles=2000)


def app_txns(quick: bool) -> int:
    return 100 if quick else 400


# -- campaign-backed execution -----------------------------------------

def cached_points(points: list[Point], cfg: SimConfig,
                  jobs: int | None = None) -> list[RunResult]:
    """Run a batch of points through the campaign layer (cache-first)."""
    from repro.campaign import run_points
    return run_points(points, cfg, processes=jobs)


def mean_result(replicas: list[RunResult]) -> RunResult:
    """Collapse seed replicas into one summary result.

    Latencies are averaged over the replicas that delivered packets
    (NaN-aware); counters are summed; ``deadlocked`` is true if any
    replica deadlocked.  The ``extra`` early-stop keys
    (``measured_generated``/``undelivered``) are summed so sweep
    early-stop logic keeps working on the summary.
    """
    lats = [r.avg_latency for r in replicas
            if r.avg_latency == r.avg_latency]
    p99s = [r.p99_latency for r in replicas
            if r.p99_latency == r.p99_latency]
    res = RunResult(
        scheme=replicas[0].scheme,
        injected=sum(r.injected for r in replicas),
        ejected=sum(r.ejected for r in replicas),
        dropped=sum(r.dropped for r in replicas),
        avg_latency=sum(lats) / len(lats) if lats else float("nan"),
        p99_latency=max(p99s) if p99s else float("nan"),
        throughput=sum(r.throughput for r in replicas) / len(replicas),
        deadlocked=any(r.deadlocked for r in replicas),
        cycles=max(r.cycles for r in replicas),
    )
    res.extra["rate"] = replicas[0].extra.get("rate")
    res.extra["pattern"] = replicas[0].extra.get("pattern")
    res.extra["replicas"] = len(replicas)
    res.extra["measured_generated"] = sum(
        r.extra.get("measured_generated", 0) for r in replicas)
    res.extra["undelivered"] = sum(
        r.extra.get("undelivered", 0) for r in replicas)
    return res


def rule_series(rule, scheme_name: str, scheme_kwargs: dict, pattern: str,
                cfg: SimConfig, seeds=None):
    """A planner series (:mod:`repro.campaign.plan`) from a rule of
    :mod:`repro.sim.runner`: every rate the rule yields becomes one
    frontier — the synthetic point at that rate, or, with ``seeds``, its
    repeat under every seed (built with :meth:`Point.make_seeded`, so
    the uncached repeats fold into replica batches while each keeps its
    own cache key — DESIGN §12) — and the rule is sent that rate's
    result (the :func:`mean_result` over the repeats).  Returns what the
    rule returns."""
    try:
        rate = next(rule)
        while True:
            if seeds:
                res = mean_result((yield [
                    Point.make_seeded(scheme_name, pattern, rate, seed=s,
                                      **scheme_kwargs) for s in seeds], cfg))
            else:
                (res,) = yield [Point.make(scheme_name, pattern, rate,
                                           **scheme_kwargs)], cfg
            rate = rule.send(res)
    except StopIteration as stop:
        return stop.value


def sweep_series(scheme_name: str, scheme_kwargs: dict, pattern: str,
                 rates, cfg: SimConfig, seeds=None):
    """One latency-vs-rate curve as a planner series: a frontier is one
    rate (every seed of it), the early stop is
    :func:`repro.sim.runner.sweep_rule`, the outcome the list of
    per-rate results up to the stop."""
    from repro.sim.runner import sweep_rule
    return rule_series(sweep_rule(rates), scheme_name, scheme_kwargs,
                       pattern, cfg, seeds)


def saturation_series(scheme_name: str, scheme_kwargs: dict, pattern: str,
                      cfg: SimConfig, lo: float, hi: float, iters: int):
    """One saturation search as a planner series: a frontier is the next
    probe of :func:`repro.sim.runner.saturation_rule` (the probe rates
    are deterministic, so reruns are served from the cache), the outcome
    the saturation rate."""
    from repro.sim.runner import saturation_rule
    return rule_series(saturation_rule(lo, hi, iters), scheme_name,
                       scheme_kwargs, pattern, cfg)


def cached_sweep_latency(scheme_name: str, scheme_kwargs: dict,
                         pattern: str, rates, cfg: SimConfig,
                         seeds=None) -> list[RunResult]:
    """Cache-first latency-vs-rate sweep: :func:`sweep_series` driven on
    its own.  With ``seeds`` every rate repeats under each seed and each
    returned result is the :func:`mean_result` over the repeats."""
    from repro.campaign.plan import drive
    return drive([sweep_series(scheme_name, scheme_kwargs, pattern, rates,
                               cfg, seeds)])[0]


def app_point(scheme_name: str, scheme_kwargs: dict, benchmark: str,
              quick: bool, seed: int = 1,
              max_cycles: int = 400000) -> Point:
    """One closed-loop application point (Fig. 10/12/13b); runs under
    :func:`app_config`."""
    return Point.make_app(scheme_name, benchmark, txns=app_txns(quick),
                          seed=seed, max_cycles=max_cycles,
                          **scheme_kwargs)


def fmt_table(headers: list[str], rows: list[list], widths=None) -> str:
    """Plain-text aligned table."""
    if widths is None:
        widths = [max(len(str(h)), *(len(str(r[i])) for r in rows)) + 1
                  if rows else len(str(h)) + 1
                  for i, h in enumerate(headers)]
    out = ["".join(str(h).rjust(w) for h, w in zip(headers, widths))]
    for r in rows:
        out.append("".join(str(c).rjust(w) for c, w in zip(r, widths)))
    return "\n".join(out)


def fnum(x: float, nd: int = 1) -> str:
    if x != x:  # NaN
        return "-"
    return f"{x:.{nd}f}"
