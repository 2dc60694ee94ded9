"""Quarantine records: JSON post-mortems for redundant-execution
mismatches.

When the coordinator's N-modular-redundancy mode catches two workers
returning different bits for the same deterministic point, the point is
*quarantined*: a JSON record lands under ``<results>/quarantine/`` with
every candidate payload, the field-by-field diff between them, and —
once a tie-break replay has produced a majority — the verdict naming
the disagreeing worker.  Same idioms as the watchdog post-mortems in
:mod:`repro.fault.postmortem`: a typed schema with a validator, atomic
tmp-then-rename writes, collision-free pid-stamped filenames, and the
``REPRO_RESULTS_DIR`` convention.
"""

from __future__ import annotations

import json
import os
import re
import time
from pathlib import Path

#: mismatch seen, tie-break replay scheduled
VERDICT_MISMATCH = "mismatch"
#: a majority emerged; minority candidates name the lying worker(s)
VERDICT_MAJORITY = "settled_majority"
#: retry budget spent without a majority — the task failed
VERDICT_EXHAUSTED = "exhausted"

VERDICTS = (VERDICT_MISMATCH, VERDICT_MAJORITY, VERDICT_EXHAUSTED)


def field_diff(results_a: list, results_b: list) -> list[dict]:
    """Field-by-field comparison of two candidate result payloads.

    Candidates are lists of result-JSON dicts (one per point of the
    task, exactly what travels in a completion).  Returns one entry per
    differing field: ``{"index": i, "field": name, "values": [a, b]}``;
    the ``extra`` dict is flattened one level (``extra.avg_latency``)
    so the diff names the actual statistic that disagreed.
    """
    out: list[dict] = []
    if len(results_a) != len(results_b):
        return [{"index": -1, "field": "__len__",
                 "values": [len(results_a), len(results_b)]}]

    def flat(d: dict) -> dict:
        items = {}
        for k, v in d.items():
            if k == "extra" and isinstance(v, dict):
                for ek, ev in v.items():
                    items[f"extra.{ek}"] = ev
            else:
                items[k] = v
        return items

    for i, (a, b) in enumerate(zip(results_a, results_b)):
        fa, fb = flat(a), flat(b)
        for field in sorted(set(fa) | set(fb)):
            va, vb = fa.get(field), fb.get(field)
            if va != vb:
                out.append({"index": i, "field": field,
                            "values": [va, vb]})
    return out


def quarantine_payload(task, candidates: list[dict], verdict: str,
                       liars: list[str] | None = None,
                       need: int | None = None) -> dict:
    """A full, JSON-serializable record of one disagreement.

    ``candidates`` are the coordinator's collected completions:
    ``{"worker": ..., "results": [result-json, ...]}``.  The pairwise
    diff is taken between the first two *distinct* payloads, which is
    what triggered the quarantine.
    """
    if verdict not in VERDICTS:
        raise ValueError(f"unknown quarantine verdict {verdict!r}; "
                         f"choose from {VERDICTS}")
    distinct: list[list] = []
    for cand in candidates:
        if not any(cand["results"] == d for d in distinct):
            distinct.append(cand["results"])
        if len(distinct) == 2:
            break
    diff = field_diff(*distinct) if len(distinct) == 2 else []
    return {
        "reason": "redundant-execution mismatch",
        "task": task.tid,
        "keys": list(task.keys),
        "attempt": task.attempt,
        "redundancy": task.redundancy,
        "need": task.redundancy if need is None else need,
        "verdict": verdict,
        "liars": list(liars or []),
        "workers": [c["worker"] for c in candidates],
        "candidates": [{"worker": c["worker"], "results": c["results"]}
                       for c in candidates],
        "diff": diff,
        "written": time.time(),
    }


#: required top-level keys and their types (a tuple means "any of")
QUARANTINE_SCHEMA = {
    "reason": str,
    "task": str,
    "keys": list,
    "attempt": int,
    "redundancy": int,
    "need": int,
    "verdict": str,
    "liars": list,
    "workers": list,
    "candidates": list,
    "diff": list,
    "written": (int, float),
}


def validate_quarantine(payload: dict) -> dict:
    """Check a quarantine dict (or one re-read from JSON) against
    :data:`QUARANTINE_SCHEMA`; returns the payload for chaining, raises
    ``ValueError`` listing every problem otherwise."""
    problems = []
    for key, types in QUARANTINE_SCHEMA.items():
        if key not in payload:
            problems.append(f"missing key {key!r}")
        elif not isinstance(payload[key], types):
            problems.append(f"{key!r} has type "
                            f"{type(payload[key]).__name__}, "
                            f"expected {types}")
    if not problems:
        if payload["verdict"] not in VERDICTS:
            problems.append(f"unknown verdict {payload['verdict']!r}")
        for cand in payload["candidates"]:
            for want in ("worker", "results"):
                if want not in cand:
                    problems.append(f"candidate missing {want!r}")
        for entry in payload["diff"]:
            for want in ("index", "field", "values"):
                if want not in entry:
                    problems.append(f"diff entry missing {want!r}")
    if problems:
        raise ValueError("invalid quarantine payload: "
                         + "; ".join(problems))
    return payload


def quarantine_dir() -> Path:
    """``<results>/quarantine``
    (:func:`~repro.campaign.context.results_dir`)."""
    from repro.campaign.context import results_dir
    return results_dir() / "quarantine"


def write_quarantine(payload: dict) -> Path:
    """Serialize a validated quarantine record; returns the path.

    The filename encodes the task id, verdict, and pid so concurrent
    coordinators never collide; writes are atomic (tmp then rename).
    """
    validate_quarantine(payload)
    out = quarantine_dir()
    out.mkdir(parents=True, exist_ok=True)
    tid = re.sub(r"[^A-Za-z0-9._-]+", "-", payload["task"])[:16]
    base = f"quarantine_{tid}_{payload['verdict']}_p{os.getpid()}"
    path = out / f"{base}.json"
    n = 1
    while path.exists():
        path = out / f"{base}_{n}.json"
        n += 1
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(payload, indent=2, sort_keys=True))
    tmp.rename(path)
    return path
