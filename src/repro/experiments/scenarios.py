"""Scenario experiments: declarative workloads through the campaign layer.

Three families, all cache-first (the scenario token and the topology ride
in the point's identity, so the content-addressed run cache makes reruns
free):

* **scenario points** — every built-in :data:`~repro.scenario.spec.
  SCENARIOS` spec (bursty/MMPP, shifting hotspots, mixed lanes, ramp)
  under each scheme, seed-replicated; the seeds of one spec fold into
  one replica batch exactly like plain synthetic points.
* **irregular points** — the §III-F Eulerian-circuit partition sweep:
  ring/star/torus/hypercube families plus 16x16 and 32x32 mesh graphs,
  across partition counts, each point deriving, verifying and
  characterising an :class:`~repro.core.irregular.IrregularSchedule`.
* **large-mesh scenario points** (full mode) — the bursty spec simulated
  on 16x16 and 32x32 meshes through the same campaign path.
"""

from __future__ import annotations

from repro.experiments.common import (cached_points, fmt_table, fnum,
                                      mean_result, synthetic_config)
from repro.scenario.spec import SCENARIOS, get_scenario
from repro.sim.parallel import Point

#: scheme set for scenario simulations (paper's headline pair)
SCHEMES = [
    ("FastPass", "fastpass", {"n_vcs": 4}),
    ("EscapeVC", "escapevc", {}),
]

#: §III-F topology families for the irregular sweep; the mesh entries are
#: the 16x16/32x32 points the ROADMAP asks for (the derivation chain runs
#: on the full graph — circuit length 2*channels — regardless of size).
TOPOLOGIES = ("ring:8", "star:6", "torus:4x4", "hypercube:4",
              "mesh:16x16", "mesh:32x32")

PARTITIONS = (2, 4, 8)


def run(quick: bool = True, scenarios=None, topologies=None,
        schemes=None, seeds=None) -> dict:
    """Scenario + irregular sweep; returns table rows per family."""
    scenario_names = list(scenarios) if scenarios else sorted(SCENARIOS)
    topo_names = list(topologies) if topologies else list(TOPOLOGIES)
    scheme_set = schemes or SCHEMES
    seed_set = list(seeds) if seeds else ([1, 2] if quick else [1, 2, 3, 4])
    cfg = synthetic_config(quick)

    rows = []
    for name in scenario_names:
        spec = get_scenario(name)
        for label, scheme, kwargs in scheme_set:
            points = [Point.make_scenario(scheme, spec, seed=s, **kwargs)
                      for s in seed_set]
            res = mean_result(cached_points(points, cfg))
            rows.append({
                "scenario": spec.name, "scheme": label,
                "mean_rate": spec.mean_rate(), "phases": len(spec.phases),
                "avg_latency": res.avg_latency,
                "p99_latency": res.p99_latency,
                "throughput": res.throughput,
                "delivered": res.ejected,
                "replicas": len(seed_set),
            })

    irregular = []
    topo_points = [Point.make_irregular(t, partitions=p)
                   for t in topo_names for p in PARTITIONS]
    for point, res in zip(topo_points,
                          cached_points(topo_points, cfg)):
        e = res.extra
        irregular.append({
            "topology": e.get("topology", point.pattern),
            "partitions": e.get("partitions"),
            "routers": e.get("routers"),
            "channels": e.get("channels"),
            "circuit_len": e.get("circuit_len"),
            "seg_min": e.get("segment_min"),
            "seg_max": e.get("segment_max"),
            "delivery_bound": e.get("delivery_bound"),
            "covers_all": e.get("covers_all", False),
        })

    meshes = []
    if not quick:
        spec = get_scenario("bursty")
        for rows_, cols_ in ((16, 16), (32, 32)):
            big = synthetic_config(quick=True, rows=rows_, cols=cols_)
            for label, scheme, kwargs in scheme_set:
                res = cached_points(
                    [Point.make_scenario(scheme, spec, seed=1, **kwargs)],
                    big)[0]
                meshes.append({
                    "mesh": f"{rows_}x{cols_}", "scheme": label,
                    "scenario": spec.name,
                    "avg_latency": res.avg_latency,
                    "throughput": res.throughput,
                    "delivered": res.ejected,
                })

    return {"scenarios": rows, "irregular": irregular, "meshes": meshes}


def format_result(result: dict) -> str:
    out = ["Declarative scenarios (mean over seed replicas):"]
    out.append(fmt_table(
        ["scenario", "scheme", "rate", "phases", "lat", "p99", "thr",
         "delivered"],
        [[r["scenario"], r["scheme"], fnum(r["mean_rate"], 3),
          r["phases"], fnum(r["avg_latency"]), fnum(r["p99_latency"]),
          fnum(r["throughput"], 3), r["delivered"]]
         for r in result["scenarios"]]))
    out.append("")
    out.append("Irregular topologies (Sec. III-F partition derivation, "
               "verified link-disjoint + full coverage):")
    out.append(fmt_table(
        ["topology", "P", "routers", "channels", "circuit", "seg",
         "bound", "covers"],
        [[r["topology"], r["partitions"], r["routers"], r["channels"],
          r["circuit_len"], f"{r['seg_min']}-{r['seg_max']}",
          r["delivery_bound"], "yes" if r["covers_all"] else "NO"]
         for r in result["irregular"]]))
    if result.get("meshes"):
        out.append("")
        out.append("Large-mesh scenario points:")
        out.append(fmt_table(
            ["mesh", "scheme", "scenario", "lat", "thr", "delivered"],
            [[r["mesh"], r["scheme"], r["scenario"],
              fnum(r["avg_latency"]), fnum(r["throughput"], 3),
              r["delivered"]] for r in result["meshes"]]))
    return "\n".join(out)


# ----------------------------------------------------------------------
def sweep(quick: bool = True, scenario: str = "bursty", scales=None,
          schemes=None, seeds=None) -> dict:
    """Load-scale sweep of one scenario: every phase rate multiplied by
    each factor, each sweep point a seed-replicated campaign point."""
    spec = get_scenario(scenario)
    scale_set = list(scales) if scales else [0.5, 1.0, 1.5, 2.0]
    scheme_set = schemes or SCHEMES
    seed_set = list(seeds) if seeds else ([1, 2] if quick else [1, 2, 3])
    cfg = synthetic_config(quick)
    rows = []
    for label, scheme, kwargs in scheme_set:
        for factor in scale_set:
            scaled = spec.scaled(factor) if factor != 1.0 else spec
            points = [Point.make_scenario(scheme, scaled, seed=s,
                                          **kwargs) for s in seed_set]
            res = mean_result(cached_points(points, cfg))
            rows.append({
                "scenario": spec.name, "scheme": label, "scale": factor,
                "mean_rate": scaled.mean_rate(),
                "avg_latency": res.avg_latency,
                "p99_latency": res.p99_latency,
                "throughput": res.throughput,
                "deadlocked": res.deadlocked,
            })
    return {"scenario": spec.name, "rows": rows}


def format_sweep(result: dict) -> str:
    out = [f"Scenario load sweep — {result['scenario']}:"]
    out.append(fmt_table(
        ["scheme", "scale", "rate", "lat", "p99", "thr", "dead"],
        [[r["scheme"], fnum(r["scale"], 2), fnum(r["mean_rate"], 3),
          fnum(r["avg_latency"]), fnum(r["p99_latency"]),
          fnum(r["throughput"], 3), "!" if r["deadlocked"] else ""]
         for r in result["rows"]]))
    return "\n".join(out)
