"""Robustness sweep: fault rate x load across the scheme set.

Not a paper figure — this is the certification harness for the paper's
guaranteed-delivery claim under adversity (Sec. III-C).  Three fault
modes per (scheme, load):

* ``none``  — healthy network, liveness audit armed: FastPass must show
  zero violations of the delivery bound;
* ``cut``   — one permanent directed-link failure at mid-measurement on
  a central link.  Schemes that declare ``reroutes`` must deliver every
  measured packet around the cut; schemes without it (the plain
  baseline) are expected to wedge, terminate via the watchdog, and leave
  a JSON post-mortem under ``<results>/diagnostics/``;
* ``storm`` — a Poisson storm of transient faults (flaps, port stalls,
  ejection freezes, lookahead drops/corruptions) over the measurement
  window at each requested event rate.

Traffic generation stops at the end of the measurement window so a
wedged network stalls *globally* — otherwise ongoing background traffic
would keep resetting the watchdog and a stuck packet could hide forever.

Invoked via ``repro-experiments faults sweep``; every point runs through
the campaign layer, so reruns and resumes only recompute what changed.
"""

from __future__ import annotations

from repro.experiments.common import (
    cached_points,
    fmt_table,
    fnum,
    synthetic_config,
)
from repro.fault.plan import fault_storm, link_cut
from repro.network.topology import PORT_E
from repro.sim.parallel import Point
from repro.sim.workload import Synthetic

MODES = ("none", "cut", "storm")

#: robustness comparison set: the headline scheme, the two reroute-capable
#: baselines, and the plain baseline that is expected to wedge on a cut
SCHEMES = [
    ("FastPass", "fastpass", {"n_vcs": 4}),
    ("EscapeVC", "escapevc", {}),
    ("SPIN", "spin", {}),
    ("Baseline", "baseline", {}),
]

DEFAULT_RATES = (0.05, 0.15)
DEFAULT_FAULT_RATES = (0.002, 0.01)
STORM_MEAN_DURATION = 100


def fault_config(quick: bool, rows: int = 8, cols: int = 8):
    """Synthetic config armed for fault runs.

    The drain window must comfortably contain a watchdog firing (stall
    detection + post-mortem) after traffic stops, so it is stretched to a
    multiple of the watchdog threshold.
    """
    cfg = synthetic_config(quick, rows, cols)
    watchdog = 800 if quick else 2000
    return cfg.with_(watchdog_cycles=watchdog,
                     drain_cycles=max(cfg.drain_cycles, 4 * watchdog),
                     postmortem=True,
                     liveness_audit=True)


def plan_for(mode: str, cfg, fault_rate: float = 0.0, seed: int = 0):
    """The FaultPlan for one sweep mode (None for the healthy mode)."""
    if mode == "none":
        return None
    if mode == "cut":
        # A central router's eastbound link, cut mid-measurement: on the
        # paper's 8x8 mesh this sits on many XY paths, so every scheme
        # must actually exercise its degradation story.
        rid = (cfg.rows // 2) * cfg.cols + cfg.cols // 2
        return link_cut(rid, PORT_E,
                        cfg.warmup_cycles + cfg.measure_cycles // 2)
    if mode == "storm":
        return fault_storm(fault_rate,
                           start=cfg.warmup_cycles,
                           stop=cfg.warmup_cycles + cfg.measure_cycles,
                           mean_duration=STORM_MEAN_DURATION,
                           seed=seed)
    raise ValueError(f"unknown fault mode {mode!r}; choose from {MODES}")


def build_points(cfg, schemes, rates, fault_rates, modes):
    """The sweep grid as (label-row, Point) pairs."""
    stop = cfg.warmup_cycles + cfg.measure_cycles
    out = []
    for label, name, kwargs in schemes:
        for rate in rates:
            for mode in modes:
                frs = fault_rates if mode == "storm" else (0.0,)
                for fr in frs:
                    plan = plan_for(mode, cfg, fault_rate=fr)
                    tag = f"storm@{fr:g}" if mode == "storm" else mode
                    point = Point(name, Synthetic("uniform", rate), kwargs,
                                  faults=plan, traffic_stop=stop)
                    out.append(((label, rate, tag), point))
    return out


def run(quick: bool = True, schemes=None, rates=None, fault_rates=None,
        modes=MODES, rows: int = 8, cols: int = 8,
        jobs: int | None = None) -> dict:
    schemes = schemes if schemes is not None else SCHEMES
    rates = tuple(rates) if rates is not None else DEFAULT_RATES
    fault_rates = tuple(fault_rates) if fault_rates is not None \
        else DEFAULT_FAULT_RATES
    cfg = fault_config(quick, rows, cols)
    labelled = build_points(cfg, schemes, rates, modes=modes,
                            fault_rates=fault_rates)
    results = cached_points([p for _lbl, p in labelled], cfg, jobs=jobs)
    rows_out = []
    for ((label, rate, tag), _point), res in zip(labelled, results):
        gen = res.extra.get("measured_generated", 0)
        undelivered = res.extra.get("undelivered", 0)
        liveness = res.extra.get("liveness") or {}
        faults = res.extra.get("faults") or {}
        rows_out.append({
            "scheme": label,
            "load": rate,
            "fault": tag,
            "generated": gen,
            "delivered": gen - undelivered,
            "deadlocked": res.deadlocked,
            "avg_latency": res.avg_latency,
            "degraded_delivered": res.degraded_delivered,
            "degraded_latency": res.degraded_latency,
            "liveness_violations": res.liveness_violations,
            "liveness_bound": liveness.get("bound"),
            "fault_events": faults.get("plan_events", 0),
            "lane_skips": faults.get("lane_skips", 0),
            "postmortem": res.extra.get("postmortem"),
            "failed": res.extra.get("failed", False),
        })
    return {"config": {"quick": quick, "rows": rows, "cols": cols,
                       "rates": list(rates),
                       "fault_rates": list(fault_rates),
                       "modes": list(modes)},
            "rows": rows_out}


def format_result(result: dict) -> str:
    headers = ["scheme", "load", "fault", "deliv", "gen", "%", "lat",
               "degr-lat", "viol", "wedged"]
    table = []
    postmortems = []
    for r in result["rows"]:
        gen = max(1, r["generated"])
        table.append([
            r["scheme"], f"{r['load']:g}", r["fault"],
            r["delivered"], r["generated"],
            fnum(100.0 * r["delivered"] / gen),
            fnum(r["avg_latency"]),
            fnum(r["degraded_latency"]),
            r["liveness_violations"],
            "WATCHDOG" if r["deadlocked"] else "-",
        ])
        if r["postmortem"]:
            postmortems.append(f"  post-mortem: {r['scheme']} "
                               f"load={r['load']:g} {r['fault']} -> "
                               f"{r['postmortem']}")
    out = fmt_table(headers, table)
    if postmortems:
        out += "\n" + "\n".join(postmortems)
    return out
