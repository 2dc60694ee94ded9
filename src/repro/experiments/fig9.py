"""Fig. 9: latency breakdown of regular packets vs FastPass-Packets under
Uniform traffic with a single VC.

A FastPass-Packet's latency splits into *regular* (buffered) time before
its upgrade and *FastPass* (bufferless) time after it.  The paper's
observation to reproduce: the bufferless component stays small and flat
across every injection rate, including post-saturation, while the buffered
component grows with load.
"""

from __future__ import annotations

from repro.experiments.common import cached_points, fnum, synthetic_config
from repro.sim.parallel import Point
from repro.sim.workload import Synthetic

# The 1-VC configuration saturates early; the grids stay inside and just
# past its saturation point (the paper's Fig. 9 likewise spans low load to
# post-saturation for the 1-VC network).
QUICK_RATES = [0.01, 0.02, 0.04, 0.06]
FULL_RATES = [0.01, 0.02, 0.03, 0.04, 0.05, 0.06, 0.08]


def run(quick: bool = True, rates=None) -> dict:
    cfg = synthetic_config(quick)
    rates = rates or (QUICK_RATES if quick else FULL_RATES)
    results = cached_points(
        [Point("fastpass", Synthetic("uniform", rate), {"n_vcs": 1})
         for rate in rates],
        cfg)
    rows = []
    for rate, res in zip(rates, results):
        rows.append({
            "rate": rate,
            "reg_latency": res.reg_latency,
            "fp_buffered": res.fp_buffered_time,
            "fp_bufferless": res.fp_bufferless_time,
            "fp_share": (res.fastpass_delivered /
                         max(1, res.fastpass_delivered +
                             res.regular_delivered)),
        })
    return {"rows": rows}


def format_result(result: dict) -> str:
    lines = [f"{'rate':>6}{'RegPkt lat':>12}{'FP buffered':>13}"
             f"{'FP bufferless':>15}{'FP share':>10}"]
    for r in result["rows"]:
        lines.append(f"{r['rate']:>6.2f}{fnum(r['reg_latency']):>12}"
                     f"{fnum(r['fp_buffered']):>13}"
                     f"{fnum(r['fp_bufferless']):>15}"
                     f"{r['fp_share']:>10.2f}")
    lines.append("(claim: the bufferless column stays small and flat "
                 "across all rates)")
    return "\n".join(lines)
