"""Table I: qualitative comparison of deadlock-freedom solutions.

The matrix is generated from each scheme's declared :class:`Table1Row` and,
optionally, *verified behaviourally*: the deadlock-freedom columns are
checked by actually running the adversarial protocol-deadlock scenario
(``verify=True``), which is how the test suite keeps the table honest.
"""

from __future__ import annotations

from repro.config import SimConfig
from repro.schemes import SCHEMES
from repro.sim.parallel import Point
from repro.sim.workload import Stress

COLUMNS = [
    "No Detection",
    "Protocol DF",
    "Network DF",
    "Path Diversity",
    "High-throughput",
    "Low-power",
    "Scalability",
    "No Misrouting",
]

ORDER = ["escapevc", "spin", "swap", "drain", "pitstop", "fastpass"]


def deadlock_scenario_config() -> SimConfig:
    """The adversarial configuration under which a 0-VN network with no
    escape mechanism demonstrably deadlocks (see tests/integration)."""
    return SimConfig(rows=4, cols=4, watchdog_cycles=1500,
                     ej_queue_pkts=1, inj_queue_pkts=2,
                     fastpass_slot_cycles=64)


def stress_point(scheme_name: str, scheme_kwargs: dict,
                 max_cycles: int = 80000) -> Point:
    """The adversarial protocol-pressure probe as a campaign point; its
    seed, 7, is the one every run of the probe uses."""
    return Point(scheme_name, Stress(max_cycles), scheme_kwargs, seed=7)


def probe_deadlock_freedom(schemes: list[tuple],
                           max_cycles: int = 80000) -> list[bool]:
    """Behavioural probe: which of ``[(scheme_name, kwargs), ...]``
    complete the adversarial protocol-pressure workload?  One batch
    through the campaign layer, so the probe results are cached like any
    other point."""
    from repro.campaign import run_points
    points = [stress_point(name, kwargs, max_cycles)
              for name, kwargs in schemes]
    return [bool(res.extra.get("traffic_done"))
            for res in run_points(points, deadlock_scenario_config())]


def protocol_deadlock_free(scheme_name: str, max_cycles: int = 80000,
                           **scheme_kwargs) -> bool:
    """:func:`probe_deadlock_freedom` for one scheme."""
    return probe_deadlock_freedom([(scheme_name, scheme_kwargs)],
                                  max_cycles)[0]


def run(quick: bool = True, verify: bool = False) -> dict:
    observed_by = {}
    if verify:
        observed_by = dict(zip(ORDER, probe_deadlock_freedom(
            [(name, {"n_vcs": 2} if name == "fastpass" else {})
             for name in ORDER])))
    rows = []
    for name in ORDER:
        t1 = SCHEMES[name].table1
        cells = t1.cells()
        if verify:
            observed = observed_by[name]
            declared = t1.protocol_deadlock_freedom
            if observed != declared:
                cells[1] = f"MISMATCH(decl={declared}, obs={observed})"
        rows.append({"scheme": name, "cells": cells})
    return {"columns": COLUMNS, "rows": rows}


def format_result(result: dict) -> str:
    head = f"{'scheme':<10}" + "".join(f"{c:>17}" for c in result["columns"])
    lines = [head]
    for r in result["rows"]:
        lines.append(f"{r['scheme']:<10}" +
                     "".join(f"{c:>17}" for c in r["cells"]))
    lines.append("  (X = has property, 7 = lacks it — the paper's notation)")
    return "\n".join(lines)
