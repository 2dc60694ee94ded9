"""The golden result fixture: what it covers and how to regenerate it.

``tests/data/golden_results.json`` pins every :class:`RunResult` field of

* all ten registered schemes x {uniform@0.35, transpose@0.25} on
  ``synthetic_config(quick=True)`` with 100/400/400 windows,
* SWAP and DRAIN once more with their periods cut to fit those windows
  (at Table II's 1K / 64K cycles neither fires in 900, and both rows
  above equal the baseline's; DRAIN at 0.05 because a rotation over
  saturated buffers does not terminate — ROADMAP has the finding),
* the three ``apps_closed`` schemes on one application at 24
  transactions per core through ``execute_point``, and
* the *pre-engine* reference: fastpass(n_vcs=4) and escapevc, uniform @
  0.02/0.05/0.10/0.30, 8x8 with 200/1000/1500 windows — ``RESULT_FIELDS``
  of each go back to the seed's naive loop, before any active-set or
  wakeup work (CHANGES.md has the comparison), and 0.02-0.10 is the
  sparse regime, where most routers sit idle or blocked, that the
  saturated rows above do not reach.

The differential tests compare the active engine with the naive one,
which is the same loop with nothing skipped (no active set, retry memo
or injection skip), so they test the skip machinery.  Both engines still
run ``Router.step``'s arbitration, its inlined transfer and the
``RouteTable``: a kernel change that makes *both* wrong — an arbitration
rule broken, a transfer that stamps the wrong credit time, say — passes
every differential test.  The fixture is the one reference that does not
run the code under test.  Regenerate it only from a commit whose results
are known good (it was recorded on the parent of the credit-wakeup
change)::

    PYTHONPATH=src python tests/golden_results.py

``tests/integration/test_golden_results.py`` asserts it in tier-1.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

from repro.campaign.worker import execute_point
from repro.config import RunResult, SimConfig
from repro.experiments.common import app_config, synthetic_config
from repro.schemes import SCHEMES, get_scheme
from repro.sim.parallel import Point
from repro.sim.runner import run_point

FIXTURE = Path(__file__).resolve().parent / "data" / "golden_results.json"

SEED = 7
PATTERNS = (("uniform", 0.35), ("transpose", 0.25))
#: out-of-band schemes whose period must shrink to act inside the windows
SHORT_PERIOD = (("swap", 0.35, {"swap_duty_cycles": 100}),
                ("drain", 0.05, {"drain_period_cycles": 300}))
APP = "Radix"
APP_TXNS = 24
APP_SCHEMES = (("fastpass", {"n_vcs": 4}), ("escapevc", {}), ("spin", {}))
PRE_ENGINE_SCHEMES = (("fastpass", {"n_vcs": 4}), ("escapevc", {}))
PRE_ENGINE_RATES = (0.02, 0.05, 0.10, 0.30)
#: the pre-engine rows' mesh and windows, as the seed's loop ran them
PRE_ENGINE_CFG = SimConfig(rows=8, cols=8, warmup_cycles=200,
                           measure_cycles=1000, drain_cycles=1500)


def synthetic_cfg():
    return synthetic_config(quick=True).with_(
        warmup_cycles=100, measure_cycles=400, drain_cycles=400)


def cases() -> list[tuple[str, object]]:
    """``(case id, zero-argument runner)`` in fixture order."""
    out = []
    for name in sorted(SCHEMES):
        for pattern, rate in PATTERNS:
            out.append((f"{name}/{pattern}@{rate}",
                        lambda n=name, p=pattern, r=rate: run_point(
                            n, p, r, synthetic_cfg(), seed=SEED)))
    for name, rate, knobs in SHORT_PERIOD:
        (knob, value), = knobs.items()
        out.append((f"{name}/uniform@{rate}/{knob}={value}",
                    lambda n=name, r=rate, k=knobs: run_point(
                        n, "uniform", r, synthetic_cfg().with_(**k),
                        seed=SEED)))
    for name, kwargs in APP_SCHEMES:
        point = Point.make_app(name, APP, txns=APP_TXNS, seed=SEED, **kwargs)
        out.append((f"{name}/app:{APP}",
                    lambda pt=point: execute_point(
                        pt, app_config(quick=False))))
    for name, kwargs in PRE_ENGINE_SCHEMES:
        for rate in PRE_ENGINE_RATES:
            out.append((f"pre-engine/{name}/uniform@{rate:g}",
                        lambda n=name, k=kwargs, r=rate: run_point(
                            get_scheme(n, **k), "uniform", r,
                            PRE_ENGINE_CFG, seed=SEED)))
    return out


def encode(res: RunResult) -> str:
    """Every field, canonically (NaN serialises as ``NaN`` and so
    compares equal to itself)."""
    return json.dumps(dataclasses.asdict(res), sort_keys=True,
                      separators=(",", ":"))


def main() -> None:
    golden = {cid: json.loads(encode(run())) for cid, run in cases()}
    FIXTURE.write_text(json.dumps(golden, sort_keys=True, indent=1) + "\n")
    print(f"wrote {len(golden)} cases to {FIXTURE}")


if __name__ == "__main__":
    main()
