"""Differential proof that seed folding is bit-identical to scalar
execution.

Every replica of a :class:`~repro.sim.batch.engine.ReplicaBatch` must
return exactly the :class:`~repro.config.RunResult` that a scalar
``run_point`` with the same seed produces — every dataclass field plus
the ``extra`` dict — on all three step engines (active-set, naive and
the SoA kernel), with FastPass bounces occurring and under transient
faults, and must report the engine that actually drove it.  The paranoia
audit stays on for the plain runs, so structural corruption introduced
by structure sharing would be caught at its source.
"""

import dataclasses
import math

import pytest

from repro.config import SimConfig
from repro.fault.plan import LINK_FLAP, FaultEvent, FaultPlan
from repro.schemes import get_scheme
from repro.sim.batch.engine import ReplicaBatch
from repro.sim.runner import run_point, run_replicas
from repro.sim.workload import Synthetic

SEEDS = [3, 5, 7, 11]


def _cfg(**over):
    base = dict(rows=4, cols=4, warmup_cycles=100, measure_cycles=400,
                drain_cycles=1200, watchdog_cycles=800,
                fastpass_slot_cycles=64, paranoia=50)
    base.update(over)
    return SimConfig(**base)


def _same(a, b):
    if isinstance(a, float) and isinstance(b, float) \
            and math.isnan(a) and math.isnan(b):
        return True
    return a == b


def assert_results_equal(scalar, batched, label):
    for f in dataclasses.fields(scalar):
        if f.name == "extra":
            continue
        va, vb = getattr(scalar, f.name), getattr(batched, f.name)
        assert _same(va, vb), (f"{label}: field {f.name!r} differs: "
                               f"scalar={va!r} batch={vb!r}")
    assert set(scalar.extra) == set(batched.extra), \
        f"{label}: extra keys differ"
    for k in scalar.extra:
        assert _same(scalar.extra[k], batched.extra[k]), \
            f"{label}: extra[{k!r}] differs"


ENGINES = pytest.mark.parametrize(
    "engine", ["active", "naive", "soa"],
    ids=["active-set", "naive", "soa"])


def _check(cfg, scheme, kwargs, rate, seeds, batched, label,
           engine_used=None, **run_kw):
    """Each folded replica equals the scalar ``run_point`` on the same
    config (same engine) — and, off the default engine, the active-set
    reference too — and reports the engine that drove it."""
    engine_used = engine_used or cfg.engine
    for seed, res in zip(seeds, batched):
        scalar = run_point(get_scheme(scheme, **kwargs), "uniform", rate,
                           cfg, seed=seed, **run_kw)
        assert scalar.engine_used == res.engine_used == engine_used
        assert_results_equal(scalar, res, f"{label} seed={seed}")
        if cfg.engine != "active":
            active = run_point(get_scheme(scheme, **kwargs), "uniform",
                               rate, cfg.with_(engine="active"),
                               seed=seed, **run_kw)
            assert_results_equal(active, res,
                                 f"{label} vs active-set seed={seed}")


@ENGINES
@pytest.mark.parametrize("scheme,kwargs,rate", [
    ("fastpass", {"n_vcs": 2}, 0.30),
    ("escapevc", {}, 0.08),
])
def test_batch_matches_scalar(scheme, kwargs, rate, engine):
    cfg = _cfg(engine=engine)
    batched = ReplicaBatch(cfg, scheme, Synthetic("uniform", rate), SEEDS,
                           scheme_kwargs=kwargs).run()
    _check(cfg, scheme, kwargs, rate, SEEDS, batched,
           f"{scheme}@{rate} {engine}")
    assert all(res.ejected > 0 for res in batched)


@ENGINES
def test_batch_matches_scalar_with_bounces(monkeypatch, engine):
    """A FastPass run in which the bounce protocol demonstrably fires.

    Synthetic sinks normally drain too fast for ejection queues to fill,
    so throttle the NI consume bandwidth to zero (equally for both
    sides) with single-entry ejection queues: FastPass deliveries then
    find full queues and must reserve-and-bounce — on the SoA engine
    inside the kernel, with no fallback."""
    from repro.network.ni import NetworkInterface
    monkeypatch.setattr(NetworkInterface, "CONSUME_RATE", 0)
    cfg = _cfg(engine=engine, ej_queue_pkts=1)
    batch = ReplicaBatch(cfg, "fastpass", Synthetic("uniform", 0.30), SEEDS,
                         scheme_kwargs={"n_vcs": 2})
    batched = batch.run()
    assert sum(s.net.fastpass.engine.bounced
               for s in batch.sims) > 0, "no bounces provoked"
    _check(cfg, "fastpass", {"n_vcs": 2}, 0.30, SEEDS, batched,
           f"bounces {engine}")


@ENGINES
@pytest.mark.parametrize("scheme,kwargs", [("fastpass", {"n_vcs": 2}),
                                           ("escapevc", {})])
def test_batch_matches_scalar_under_faults(scheme, kwargs, engine):
    """Transient faults mutate routing state mid-run — results must still
    match scalar runs field for field.  The SoA kernel cannot screen
    out-of-band timer and route mutations, so an ``engine="soa"`` fold
    declines to vectorize (whole-run scalar fallback, reported as such)."""
    plan = FaultPlan(
        events=(FaultEvent(LINK_FLAP, at=150, router=5, port=2,
                           duration=120),),
        rate=0.002, start=100, stop=400, seed=3)
    cfg = _cfg(engine=engine, paranoia=0).with_(fault_plan=plan)
    seeds = SEEDS[:3]
    batched = run_replicas(scheme, Synthetic("uniform", 0.08), cfg, seeds,
                           scheme_kwargs=kwargs, traffic_stop=500)
    used = engine if engine != "soa" else (
        "active (soa fallback: fault injection mutates timers and "
        "routes out of band)")
    _check(cfg, scheme, kwargs, 0.08, seeds, batched,
           f"{scheme} faults {engine}", engine_used=used,
           traffic_stop=500)
    assert all("faults" in res.extra for res in batched)


def test_run_replicas_defaults_seed_from_config():
    cfg = _cfg(seed=9, paranoia=0)
    batched = run_replicas("baseline", Synthetic("uniform", 0.05), cfg,
                           [None, 9])
    assert_results_equal(batched[0], batched[1], "default-seed")
