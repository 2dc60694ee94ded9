"""Replica batching: R-seed repeats folded onto one set of structures.

Benchmarks the batch path the repeat loops use (``run_replicas`` /
``Point.make_seeded`` through the campaign executor) against the
equivalent scalar loop, and asserts the contract that makes the batch
path usable at all: every replica's result is bit-identical to the
scalar run with the same seed.
"""

import time

import pytest

from repro.experiments import fig7
from repro.experiments.perf import RESULT_FIELDS, _same
from repro.sim.runner import run_point, run_replicas
from repro.schemes import get_scheme
from repro.config import SimConfig
from benchmarks.conftest import report

SEEDS = [7, 8, 9, 10, 11, 12, 13, 14]


def _cfg():
    return SimConfig(rows=8, cols=8, warmup_cycles=200,
                     measure_cycles=1000, drain_cycles=1500)


@pytest.mark.parametrize("scheme,kwargs",
                         [("fastpass", {"n_vcs": 4}), ("escapevc", {})])
def bench_batch_replicas(once, benchmark, scheme, kwargs):
    """8 seed replicas of one low-load point, batched vs scalar."""
    cfg = _cfg()
    batched = once(run_replicas, scheme, "uniform", 0.05, cfg, SEEDS,
                   scheme_kwargs=kwargs)
    t0 = time.perf_counter()
    scalar = [run_point(get_scheme(scheme, **kwargs), "uniform", 0.05,
                        cfg, seed=s) for s in SEEDS]
    scalar_wall = time.perf_counter() - t0
    for a, b in zip(scalar, batched):
        for f in RESULT_FIELDS:
            assert _same(getattr(a, f), getattr(b, f)), \
                f"batch drifted from scalar on {f}"
    batch_wall = benchmark.stats.stats.mean
    benchmark.extra_info["scalar_wall_s"] = scalar_wall
    benchmark.extra_info["speedup"] = scalar_wall / batch_wall
    report(f"batch replicas ({scheme})",
           f"8 seeds: scalar {scalar_wall * 1e3:.0f} ms, "
           f"batch {batch_wall * 1e3:.0f} ms "
           f"({scalar_wall / batch_wall:.2f}x), bit-identical")


def bench_fig7_seeded(once, benchmark):
    """A seed-averaged Fig. 7 curve: the repeats ride the batch path."""
    result = once(fig7.run, quick=True, patterns=("transpose",),
                  schemes=[("FastPass", "fastpass", {"n_vcs": 4}),
                           ("EscapeVC", "escapevc", {})],
                  rates=[0.02, 0.06, 0.10], seeds=[1, 2, 3, 4])
    report("Fig. 7 (transpose, 4-seed mean)",
           fig7.format_result(result))
    series = result["series"]["transpose"]
    # Shape survives averaging: FastPass saturates no earlier.
    assert fig7.saturation_of(series["FastPass"]) >= \
        fig7.saturation_of(series["EscapeVC"]) - 1e-9
