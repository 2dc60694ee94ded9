"""Escalating chaos sweep: the fabric's survival certificate.

``repro-experiments chaos sweep --seed N`` runs one small *real*
campaign (4x4 mesh points plus a seed-group task) per chaos
level.  Level 0 is the control; each further level scales a
:func:`~repro.chaos.plan.mild_chaos` plan up and re-runs the same
points through a loopback fabric whose workers sabotage their own
transport.  A level **survives** when

* every point settled **exactly once** — queue settlements
  (first-completions plus late wins) match the task count, with zero
  permanent failures and zero points missing from the store; and
* the results are **bit-identical** to a chaos-free local-executor
  baseline (the same differential the loopback tests pin).

The survival table reports, per level, the injected faults by kind next
to what the fabric did about them (expiries, requeues, late wins,
discarded duplicates) — the visible shape of
"at-least-once plus idempotent completion equals exactly-once".
"""

from __future__ import annotations

import dataclasses
import tempfile
from pathlib import Path

from repro.chaos.plan import CHAOS_KINDS, ChaosPlan, mild_chaos

#: default escalation ladder (multipliers of the base plan)
DEFAULT_LEVELS = (0.0, 0.5, 1.0, 2.0)

#: generous retry budget: under heavy chaos a task may burn several
#: attempts on expired leases before one completion lands, and a
#: permanently-failed point would (correctly) fail the survival gate
MAX_ATTEMPTS = 12

#: short leases keep the expiry-driven convergence path fast enough for
#: a CLI run while staying far above one point's execution time
LEASE_TTL_S = 12.0


def sweep_points() -> list:
    """A fig-scale point set: four scalar points across two schemes and
    two loads, plus three seed replicas that share one task — every
    task shape the fabric knows."""
    from repro.sim.parallel import Point, grid
    return grid([("escapevc", {}), ("fastpass", {"n_vcs": 2})],
                ["uniform"], [0.02, 0.05]) + \
        [Point.make_seeded("fastpass", "uniform", 0.03, seed=s, n_vcs=2)
         for s in (1, 2, 3)]


def sweep_cfg():
    from repro.config import SimConfig
    return SimConfig(rows=4, cols=4, warmup_cycles=50,
                     measure_cycles=150, drain_cycles=400,
                     fastpass_slot_cycles=64)


def _fields(res) -> tuple:
    d = dataclasses.asdict(res)
    return tuple(sorted((k, repr(v)) for k, v in d.items()))


def run_sweep(seed: int = 0, levels=None, workers: int = 2, cfg=None,
              points=None, work_dir: str | None = None) -> dict:
    """Run the escalation ladder; returns the survival table as a dict
    (one row per level) for :func:`format_table` or ``--json``."""
    from repro.campaign import RetryPolicy, run_points

    levels = list(DEFAULT_LEVELS if levels is None else levels)
    cfg = cfg or sweep_cfg()
    points = points if points is not None else sweep_points()
    base_plan = mild_chaos(seed)
    retry = RetryPolicy(max_attempts=MAX_ATTEMPTS, backoff_s=0.05)

    baseline = [_fields(r) for r in
                run_points(points, cfg, processes=max(workers, 1),
                           cache=False, store=False)]

    report = {"seed": seed, "base_plan": base_plan.to_json(),
              "points": len(points), "workers": workers, "levels": []}
    with tempfile.TemporaryDirectory(prefix="chaos-sweep-",
                                     dir=work_dir) as tmp:
        for i, level in enumerate(levels):
            plan = base_plan.scaled(level)
            row = _run_level(
                level=level, plan=plan, cfg=cfg, points=points,
                baseline=baseline, retry=retry, workers=workers,
                store_path=Path(tmp) / f"level{i}.sqlite")
            report["levels"].append(row)
    return report


def _run_level(level: float, plan: ChaosPlan, cfg, points, baseline,
               retry, workers: int, store_path) -> dict:
    from repro.campaign.store import CampaignStore
    from repro.fabric.executor import FabricExecutor, FabricSession

    store = CampaignStore(store_path)
    session = FabricSession(cache=None, retry=retry,
                            lease_ttl_s=LEASE_TTL_S, workers=workers,
                            chaos_token=plan.token() if plan else None)
    try:
        results = FabricExecutor(cfg, session, store=store).run(points)
        coord = session.coordinator
        counters = coord.queue.counters.to_json()
        injected = coord._chaos_totals()
        respawns = session.respawns
    finally:
        session.close()
        counts = store.counts()
        store.close()

    n_tasks = counters["completed"] + counters["late"] + \
        counters["failures"]
    settled = counters["completed"] + counters["late"]
    lost = len(points) - counts.get("done", 0)
    drift = [_fields(r) for r in results] != baseline
    survived = (settled == n_tasks and counters["failures"] == 0
                and lost == 0 and not drift)
    return {
        "level": level,
        "plan_total": round(plan.total(), 4),
        "injected": injected,
        "injected_total": sum(injected.values()),
        "granted": counters["granted"],
        "expiries": counters["expiries"],
        "requeues": counters["requeues"],
        "late": counters["late"],
        "duplicates": counters["duplicates"],
        "respawns": respawns,
        "tasks": n_tasks,
        "settled": settled,
        "failed": counters["failures"],
        "lost": lost,
        "drift": drift,
        "survived": survived,
    }


def format_table(report: dict) -> str:
    """Render the survival table for the terminal."""
    lines = [
        f"chaos sweep: seed {report['seed']}, {report['points']} points, "
        f"{report['workers']} workers",
        "",
        f"{'level':>5s} {'inject':>6s} "
        + " ".join(f"{k[:4]:>4s}" for k in CHAOS_KINDS)
        + f" {'expy':>4s} {'requ':>4s} {'late':>4s} {'dupl':>4s} "
          f"{'settled':>7s} {'lost':>4s} {'drift':>5s} {'verdict':>8s}",
    ]
    for row in report["levels"]:
        inj = row["injected"]
        lines.append(
            f"{row['level']:5.2f} {row['injected_total']:6d} "
            + " ".join(f"{inj.get(k, 0):4d}" for k in CHAOS_KINDS)
            + f" {row['expiries']:4d} {row['requeues']:4d} "
              f"{row['late']:4d} {row['duplicates']:4d} "
              f"{row['settled']:3d}/{row['tasks']:<3d} "
              f"{row['lost']:4d} {str(row['drift']):>5s} "
              f"{'ok' if row['survived'] else 'FAILED':>8s}")
    return "\n".join(lines)
