"""Watchdog post-mortems: a JSON snapshot of a wedged network.

When the watchdog fires, reconstructing *why* from a bare "deadlocked"
flag is hopeless.  :func:`postmortem_payload` captures everything the
paper's own debugging story needs — the wait-for-graph cycle, per-router
VC occupancy, injection/ejection queue depths, the active fault list and
any liveness violations — and :func:`write_postmortem` lands it as JSON
under ``<results>/diagnostics/`` (``REPRO_RESULTS_DIR`` respected, same
convention as the campaign store).
"""

from __future__ import annotations

import json
import os
import re
from pathlib import Path

from repro.network.watchdog import find_blocked_cycle


def _slot_entry(rid: int, slot, now: int) -> dict:
    pkt = slot.pkt
    entry = {
        "router": rid,
        "port": slot.port,
        "vc": slot.vc,
        "ready_at": slot.ready_at,
    }
    if pkt is not None:
        entry.update(
            pid=pkt.pid, src=pkt.src, dst=pkt.dst, mclass=int(pkt.mclass),
            size=pkt.size, hops=pkt.hops, rejected=pkt.rejected,
            was_fastpass=pkt.was_fastpass,
            stuck_for=now - slot.ready_at,
        )
    return entry


def postmortem_payload(net, now: int, reason: str = "watchdog") -> dict:
    """A full, JSON-serializable snapshot of the network's wedged state."""
    cfg = net.cfg
    cycle = find_blocked_cycle(net, now, min_blocked=1)
    occupancy = []
    for router in net.routers:
        slots = [_slot_entry(router.id, s, now)
                 for s in router.occupied if s.pkt is not None]
        if slots:
            occupancy.append({
                "router": router.id,
                "occupied": len(slots),
                "eject_busy_until": router.eject_busy_until,
                "in_busy": list(router.in_busy),
                "slots": slots,
            })
    queues = []
    for ni in net.nis:
        inj = ni.inj_occupancy()
        ej = sum(len(q) for q in ni.ej)
        pend = len(ni.pending)
        if inj or ej or pend:
            queues.append({
                "router": ni.id,
                "pending": pend,
                "inj": [len(q) for q in ni.inj],
                "ej": [len(q) for q in ni.ej],
            })
    payload = {
        "reason": reason,
        "cycle": now,
        "scheme": net.scheme.label if net.scheme is not None else "none",
        "mesh": [cfg.rows, cfg.cols],
        "seed": cfg.seed,
        "last_progress": net.last_progress,
        "watchdog_fired_at": net.watchdog.fired_at,
        "packets_in_flight": net.packets_in_flight(),
        "total_backlog": net.total_backlog(),
        "in_transit": net.in_transit,
        "wait_for_cycle": ([_slot_entry(rid, s, now) for rid, s in cycle]
                           if cycle else None),
        "vc_occupancy": occupancy,
        "ni_queues": queues,
    }
    faults = getattr(net, "faults", None)
    payload["faults"] = faults.summary() if faults is not None else None
    auditor = getattr(net, "auditor", None)
    if auditor is not None:
        payload["liveness"] = auditor.summary()
        payload["liveness_violations"] = auditor.violations[-20:]
    return payload


#: required top-level keys of a post-mortem payload and their types
#: (a tuple means "any of these").  ``liveness``/``liveness_violations``
#: appear only when an auditor was installed, so they are not required.
POSTMORTEM_SCHEMA = {
    "reason": str,
    "cycle": int,
    "scheme": str,
    "mesh": list,
    "seed": int,
    "last_progress": int,
    "watchdog_fired_at": int,
    "packets_in_flight": int,
    "total_backlog": int,
    "in_transit": int,
    "wait_for_cycle": (list, type(None)),
    "vc_occupancy": list,
    "ni_queues": list,
    "faults": (dict, type(None)),
}


def validate_postmortem(payload: dict) -> dict:
    """Check a post-mortem dict (or one re-read from JSON) against
    :data:`POSTMORTEM_SCHEMA`; returns the payload for chaining, raises
    ``ValueError`` listing every problem otherwise.  It ships beside the
    writer because the file is an artifact other tools read."""
    problems = []
    for key, types in POSTMORTEM_SCHEMA.items():
        if key not in payload:
            problems.append(f"missing key {key!r}")
        elif not isinstance(payload[key], types):
            problems.append(
                f"{key!r} has type {type(payload[key]).__name__}, "
                f"expected {types}")
    if not problems:
        mesh = payload["mesh"]
        if len(mesh) != 2 or not all(isinstance(v, int) for v in mesh):
            problems.append(f"mesh must be [rows, cols], got {mesh!r}")
        for entry in payload["vc_occupancy"]:
            for want in ("router", "occupied", "slots"):
                if want not in entry:
                    problems.append(f"vc_occupancy entry missing {want!r}")
        for entry in payload["ni_queues"]:
            for want in ("router", "pending", "inj", "ej"):
                if want not in entry:
                    problems.append(f"ni_queues entry missing {want!r}")
    if problems:
        raise ValueError("invalid post-mortem payload: "
                         + "; ".join(problems))
    return payload


def diagnostics_dir() -> Path:
    """``<results>/diagnostics``
    (:func:`~repro.campaign.context.results_dir`)."""
    from repro.campaign.context import results_dir
    return results_dir() / "diagnostics"


def write_postmortem(net, now: int, reason: str = "watchdog") -> Path:
    """Serialize :func:`postmortem_payload` under the diagnostics dir.

    The filename encodes scheme, cycle, and pid so concurrent campaign
    workers never collide; returns the written path.
    """
    payload = postmortem_payload(net, now, reason)
    out = diagnostics_dir()
    out.mkdir(parents=True, exist_ok=True)
    scheme = re.sub(r"[^A-Za-z0-9._-]+", "-", payload["scheme"]).strip("-")
    base = f"postmortem_{scheme}_c{now}_p{os.getpid()}"
    path = out / f"{base}.json"
    n = 1
    while path.exists():
        path = out / f"{base}_{n}.json"
        n += 1
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(payload, indent=2, sort_keys=True))
    tmp.rename(path)
    return path
