"""The per-layer ledger: which entry points are traced, what each layer's
metrics are, and how the table is printed.

A layer is a module of the repo.  ``_s`` metrics are summed span seconds,
the others counts or ratios.  Campaign-level layers (cache, executor,
store, fabric, experiments) are read from the timed phase of the traced
pass.  Kernel-level layers (sim.*, network, schemes, traffic) are read
from the ``inproc`` phase when a workload has one: the pool and the fabric
do that work in forked children the tracer cannot see, so the traced pass
runs the same tasks once more in-process at ``jobs=1``.
"""

from __future__ import annotations

import threading

from tracer import Span, Target, covered, inclusive, self_times

#: printed order of the ledger; "bench" is the benchmark's own glue
LAYERS = ["sim.engine", "network", "schemes", "traffic", "sim.stats",
          "sim.batch", "sim.soa", "campaign.cache", "campaign.executor",
          "campaign.store", "fabric", "experiments", "bench"]


# -- what the wrappers count ------------------------------------------------

def _engine_bucket(engine_used: str) -> str:
    if engine_used == "soa":
        return "engine.soa"
    if "fallback" in engine_used or "demoted" in engine_used:
        return "engine.fallback"
    return "engine.active"


def _sim_counts(sim, res) -> dict:
    return {"cycles": res.cycles, "ejected": res.ejected,
            "fastpass_delivered": res.fastpass_delivered,
            "dropped": res.dropped,
            "switch_cycles": sim.net.switch_cycles,
            "generated": getattr(sim.traffic, "measured_generated", 0),
            _engine_bucket(sim.engine_used): 1}


def _on_sim_run(args, kwargs, res) -> dict:
    return _sim_counts(args[0], res)


def _on_batch_run(args, kwargs, results) -> dict:
    total: dict = {}
    for sim, res in zip(args[0].sims, results):
        for key, value in _sim_counts(sim, res).items():
            total[key] = total.get(key, 0) + value
    return total


def _on_cache_get(args, kwargs, res) -> dict:
    return {"hit" if res is not None else "miss": 1}


def _on_execute_group(args, kwargs, results) -> dict:
    return {"group_points": len(results)}


def targets() -> list[Target]:
    """The public entry points the traced pass wraps."""
    T = Target
    sim, cache = "repro.sim.engine", "repro.campaign.cache"
    store, fab = "repro.campaign.store", "repro.fabric.executor"
    return [
        T("sim.build", "sim.engine", sim, "Simulation.__init__"),
        T("sim.run", "sim.engine", sim, "Simulation.run",
          on_exit=_on_sim_run),
        T("sim.run", "sim.engine", sim, "Simulation.run_to_completion",
          on_exit=_on_sim_run),
        T("network.mesh_build", "network", "repro.network.topology",
          "Mesh.__init__"),
        T("network.route_warm", "network", "repro.network.router",
          "Router.warm_routes", subclasses=True),
        T("schemes.build", "schemes", "repro.schemes.base",
          "Scheme.build", subclasses=True),
        T("traffic.build", "traffic", "repro.traffic.synthetic",
          "SyntheticTraffic.__init__"),
        T("traffic.build", "traffic", "repro.traffic.coherence",
          "CoherenceTraffic.__init__"),
        T("stats.summarise", "sim.stats", "repro.sim.stats",
          "StatsCollector.avg_latency"),
        T("stats.summarise", "sim.stats", "repro.sim.stats",
          "StatsCollector.p99_latency"),
        T("batch.construct", "sim.batch", "repro.sim.batch.engine",
          "ReplicaBatch.__init__"),
        T("batch.run", "sim.batch", "repro.sim.batch.engine",
          "ReplicaBatch.run", on_exit=_on_batch_run),
        T("soa.attach", "sim.soa", "repro.sim.soa", "attach"),
        T("cache.key", "campaign.cache", cache, "point_key"),
        T("cache.code_version", "campaign.cache", cache, "code_version"),
        T("cache.get", "campaign.cache", cache, "RunCache.get",
          on_exit=_on_cache_get),
        T("cache.put", "campaign.cache", cache, "RunCache.put"),
        T("executor.run", "campaign.executor", "repro.campaign.executor",
          "CampaignExecutor.run", request=True),
        T("executor.exec", "campaign.executor", "repro.campaign.worker",
          "execute_point"),
        T("executor.exec", "campaign.executor", "repro.campaign.worker",
          "execute_group", on_exit=_on_execute_group),
        T("store.register", "campaign.store", store,
          "CampaignStore.register"),
        T("store.mark", "campaign.store", store, "CampaignStore.mark"),
        T("store.sync_leases", "campaign.store", store,
          "CampaignStore.sync_leases"),
        T("fabric.session_start", "fabric", fab, "FabricSession.__init__"),
        T("fabric.session_close", "fabric", fab, "FabricSession.close"),
        T("fabric.run", "fabric", fab, "FabricExecutor.run", request=True),
        T("fabric.http", "fabric", "repro.fabric.coordinator",
          "Coordinator.handle"),
        T("experiments.figure", "experiments", "repro.experiments.fig7",
          "run"),
        T("experiments.sweep", "experiments", "repro.experiments.common",
          "cached_sweep_latency"),
        T("experiments.format", "experiments", "repro.experiments.fig7",
          "format_result"),
    ]


# -- metrics from spans ---------------------------------------------------------

def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list[Span], walls: dict, nproc: int,
                  extras: dict) -> dict:
    """Every per-layer metric except the ``process.*``/``trace.*`` ones
    (the pass and its parent measure those).  ``walls`` maps phase name
    to its wall seconds; ``extras`` carries what spans cannot give."""
    # spans[phase][name] -> list: a traced fig7_warm pass holds ~60k
    by_phase: dict[str, dict[str, list[Span]]] = {}
    for s in spans:
        by_phase.setdefault(s.phase, {}).setdefault(s.name, []).append(s)
    timed = by_phase.get("timed", {})
    has_pool = "inproc" in walls
    kernel = by_phase.get("inproc", {}) if has_pool else timed

    def seconds(group, name):
        return inclusive(group.get(name, ()), name)

    def count(group, name):
        return len(group.get(name, ()))

    def total(group, name, key):
        return sum(s.counts.get(key, 0) for s in group.get(name, ())
                   if s.counts)

    def kernel_total(key):
        return total(kernel, "sim.run", key) + \
            total(kernel, "batch.run", key)

    m: dict = {}
    build_s = seconds(kernel, "sim.build")
    run_s = seconds(kernel, "sim.run") + seconds(kernel, "batch.run")
    cycles = kernel_total("cycles")
    ejected = kernel_total("ejected")
    m["sim.build_s"] = build_s
    m["sim.build_share"] = _ratio(build_s, build_s + run_s)
    m["sim.run_s"] = run_s
    m["sim.cycles"] = cycles
    m["sim.us_per_cycle"] = _ratio(run_s * 1e6, cycles)
    m["sim.us_per_packet"] = _ratio(run_s * 1e6, ejected)
    for bucket in ("active", "soa", "fallback"):
        m[f"sim.engine_used.{bucket}"] = kernel_total(f"engine.{bucket}")
    m["network.mesh_build_s"] = seconds(kernel, "network.mesh_build")
    m["network.route_warm_s"] = seconds(kernel, "network.route_warm")
    m["network.switch_cycle_share"] = _ratio(
        kernel_total("switch_cycles"), cycles)
    m["schemes.build_s"] = seconds(kernel, "schemes.build")
    m["core.bypass_share"] = _ratio(kernel_total("fastpass_delivered"),
                                    ejected)
    m["core.dropped"] = kernel_total("dropped")
    m["traffic.build_s"] = seconds(kernel, "traffic.build")
    m["traffic.generated"] = kernel_total("generated")
    m["stats.summarise_s"] = seconds(kernel, "stats.summarise")
    m["batch.construct_s"] = seconds(kernel, "batch.construct")
    m["batch.run_s"] = seconds(kernel, "batch.run")
    groups = sum(1 for s in kernel.get("executor.exec", ()) if s.counts)
    m["batch.replicas_per_task"] = _ratio(
        total(kernel, "executor.exec", "group_points"), groups)
    m["batch.fold_gain"] = extras.get("batch.fold_gain", 0.0)
    m["soa.attach_s"] = seconds(kernel, "soa.attach")

    hits = total(timed, "cache.get", "hit")
    misses = total(timed, "cache.get", "miss")
    hit_s = sum(s.duration for s in timed.get("cache.get", ())
                if s.counts and s.counts.get("hit"))
    m["cache.code_version_s"] = seconds(timed, "cache.code_version")
    m["cache.key_us_per_point"] = _ratio(
        seconds(timed, "cache.key") * 1e6, count(timed, "cache.key"))
    m["cache.get_us_per_hit"] = _ratio(hit_s * 1e6, hits)
    m["cache.put_us_per_point"] = _ratio(
        seconds(timed, "cache.put") * 1e6, count(timed, "cache.put"))
    m["cache.hits"] = hits
    m["cache.misses"] = misses
    m["cache.hit_rate"] = _ratio(hits, hits + misses)
    m["cache.bytes_written"] = extras.get("cache.bytes_written", 0)

    # The pool's wall is the local jobs=nproc run: the timed phase of
    # fig7_cold, the "local" phase of fig7_fabric.
    pool_wall = walls.get("local", walls["timed"])
    tasks = count(kernel, "executor.exec")
    exec_s = seconds(kernel, "executor.exec")
    pool_tax = pool_wall - walls["inproc"] if has_pool else 0.0
    m["executor.run_calls"] = count(timed, "executor.run") + \
        count(timed, "fabric.run")
    m["executor.tasks"] = tasks
    m["executor.exec_s"] = exec_s
    m["executor.pool_tax_s"] = pool_tax
    m["executor.pool_tax_ms_per_task"] = _ratio(pool_tax * 1e3, tasks)
    m["executor.pool_busy_share"] = \
        _ratio(exec_s, pool_wall * nproc) if has_pool else 0.0
    m["store.register_s"] = seconds(timed, "store.register")
    m["store.mark_s"] = seconds(timed, "store.mark")
    m["store.sync_leases_s"] = seconds(timed, "store.sync_leases")
    m["store.ops"] = sum(count(timed, n) for n in (
        "store.register", "store.mark", "store.sync_leases"))
    m["parallel.point_json_us"] = extras.get("parallel.point_json_us", 0.0)
    m["parallel.pickle_bytes_per_task"] = extras.get(
        "parallel.pickle_bytes_per_task", 0.0)

    through_fabric = "local" in walls
    requests = count(timed, "fabric.http")
    tax = walls["timed"] - walls["local"] if through_fabric else 0.0
    m["fabric.session_start_s"] = seconds(timed, "fabric.session_start")
    m["fabric.session_close_s"] = seconds(timed, "fabric.session_close")
    m["fabric.http_requests"] = requests
    m["fabric.http_ms_per_request"] = _ratio(
        seconds(timed, "fabric.http") * 1e3, requests)
    m["fabric.tax_s"] = tax
    m["fabric.tax_ms_per_task"] = _ratio(tax * 1e3, tasks)
    m["fabric.worker_idle_share"] = \
        1.0 - _ratio(exec_s, walls["timed"] * nproc) \
        if through_fabric else 0.0

    own = self_times([s for s in spans if s.phase == "timed"])
    m["experiments.orchestrate_s"] = sum(
        own[s.sid] for name in ("experiments.figure", "experiments.sweep")
        for s in timed.get(name, ()))
    m["experiments.format_s"] = inclusive(spans, "experiments.format")
    m["obs.attached_tax"] = extras.get("obs.attached_tax", 0.0)
    m["obs.events"] = extras.get("obs.events", 0)
    return m


def layer_self_seconds(spans: list[Span], phase: str,
                       thread: int | None = None) -> dict[str, float]:
    """Self seconds per layer for one phase, on the thread the user
    waits on (the coordinator's server thread overlaps it and is
    reported through ``fabric.http_*`` instead)."""
    thread = threading.get_ident() if thread is None else thread
    group = [s for s in spans if s.phase == phase and s.thread == thread]
    own = self_times(group)
    out: dict[str, float] = {}
    for s in group:
        out[s.layer] = out.get(s.layer, 0.0) + own[s.sid]
    return out


def attributed_share(spans: list[Span], t0: float, t1: float,
                     thread: int | None = None) -> float:
    """Share of the timed region's wall that lands in a named span of a
    repo module — not in the benchmark's own glue, not in a gap."""
    thread = threading.get_ident() if thread is None else thread
    group = [s for s in spans if s.phase == "timed" and s.thread == thread]
    by_id = {s.sid for s in group}
    roots = [(s.start, s.end) for s in group if s.parent not in by_id]
    glue = layer_self_seconds(spans, "timed", thread).get("bench", 0.0)
    return _ratio(covered(roots, t0, t1) - glue, t1 - t0)


# -- printing -------------------------------------------------------------

def print_ledger(columns: dict[str, tuple[dict[str, float], float]],
                 out=print) -> None:
    """``columns`` maps a heading (workload, or workload/phase) to its
    ``(self seconds per layer, wall seconds)``.  One line per module with
    seconds and % of wall per column, a ``fat`` note where a module takes
    more than a quarter of a column's wall, then each column's top three
    layers — the zamlet area-plan format with time in place of um^2."""
    names = list(columns)
    width = max(12, *(len(n) for n in names)) + 2
    out(f"{'module':<18}" + "".join(f"{n:>{width}}" for n in names))
    present = [layer for layer in LAYERS
               if any(layer in cols for cols, _ in columns.values())]
    for layer in present:
        cells, fat = [], []
        for name in names:
            per_layer, wall = columns[name]
            sec = per_layer.get(layer, 0.0)
            share = _ratio(sec, wall)
            cells.append(f"{sec:8.3f}s {100 * share:4.0f}%".rjust(width))
            if share > 0.25:
                fat.append(name)
        note = f"  fat: {', '.join(fat)}" if fat else ""
        out(f"{layer:<18}" + "".join(cells) + note)
    cells = []
    for name in names:
        per_layer, wall = columns[name]
        rest = wall - sum(per_layer.values())
        cells.append(f"{rest:8.3f}s {100 * _ratio(rest, wall):4.0f}%"
                     .rjust(width))
    out(f"{'(untraced)':<18}" + "".join(cells))
    out(f"{'wall':<18}" + "".join(
        f"{wall:8.3f}s  100%".rjust(width) for _, wall in columns.values()))
    for name in names:
        per_layer, wall = columns[name]
        top = sorted(per_layer.items(), key=lambda kv: -kv[1])[:3]
        out(f"top three layers, {name}: " + ", ".join(
            f"{layer} {sec:.3f}s ({100 * _ratio(sec, wall):.0f}%)"
            for layer, sec in top))
