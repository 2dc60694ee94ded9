"""Parallel experiment execution.

Sweeps are embarrassingly parallel (every (scheme, pattern, rate) point is
an independent deterministic simulation), and pure-Python cycle simulation
is slow enough that using the machine's cores matters.  The workers are
separate processes, so results are identical to the serial runner.

Execution is the campaign executor's (:mod:`repro.campaign.executor`):
worker-crash isolation, bounded retries and optional wall-clock
timeouts come from the one task lifecycle it drives.  ``parallel_sweep``
is that executor without a result cache, nothing more.

Points that differ only in their seed (:meth:`Point.make_seeded`) fold
into one replica batch per worker.
"""

from __future__ import annotations

import multiprocessing as mp
from dataclasses import dataclass

from repro.config import RunResult, SimConfig


@dataclass(frozen=True)
class Point:
    """One simulation point of a sweep.

    ``scheme_kwargs`` and ``meta`` are sorted ``(key, value)`` tuples so
    equal points compare and hash equal regardless of construction order.
    ``meta`` carries non-scheme execution parameters (benchmark
    transaction counts, seeds, cycle caps) for closed-loop points; it is
    empty for plain synthetic points.
    """

    scheme: str
    scheme_kwargs: tuple        # sorted (key, value) pairs, hashable
    pattern: str
    rate: float
    meta: tuple = ()            # sorted (key, value) pairs, hashable

    @staticmethod
    def make(scheme: str, pattern: str, rate: float,
             **scheme_kwargs) -> "Point":
        return Point(scheme, tuple(sorted(scheme_kwargs.items())),
                     pattern, rate)

    @staticmethod
    def make_seeded(scheme: str, pattern: str, rate: float, seed: int,
                    **scheme_kwargs) -> "Point":
        """A synthetic point pinned to a seed.

        Seed replicas of one (scheme, pattern, rate) built this way are
        folded into a single replica batch by the campaign executor
        while keeping their individual cache keys.
        """
        return Point(scheme, tuple(sorted(scheme_kwargs.items())),
                     pattern, rate, (("seed", seed),))

    @staticmethod
    def make_app(scheme: str, benchmark: str, txns: int, seed: int = 1,
                 max_cycles: int = 400000, **scheme_kwargs) -> "Point":
        """A closed-loop application point (``pattern="app:<benchmark>"``)."""
        meta = (("max_cycles", max_cycles), ("seed", seed), ("txns", txns))
        return Point(scheme, tuple(sorted(scheme_kwargs.items())),
                     f"app:{benchmark}", 0.0, meta)

    @staticmethod
    def make_stress(scheme: str, max_cycles: int = 80000, seed: int = 7,
                    **scheme_kwargs) -> "Point":
        """The adversarial protocol-pressure probe (Table I / Fig. 13c)."""
        meta = (("max_cycles", max_cycles), ("seed", seed))
        return Point(scheme, tuple(sorted(scheme_kwargs.items())),
                     "stress:protocol", 0.0, meta)

    @staticmethod
    def make_fault(scheme: str, pattern: str, rate: float, plan=None,
                   traffic_stop: int | None = None, seed: int | None = None,
                   **scheme_kwargs) -> "Point":
        """A synthetic point with fault injection.

        The :class:`~repro.fault.plan.FaultPlan` rides in ``meta`` as its
        canonical token, so it participates in the campaign cache key —
        identical (plan, config, seed) points hit the cache, different
        plans never collide.  ``traffic_stop`` ends generation at that
        cycle so a fault-wedged network stalls globally (letting the
        watchdog fire) instead of being masked by fresh traffic.
        """
        meta = []
        if plan:
            meta.append(("faults", plan.token()))
        if traffic_stop is not None:
            meta.append(("traffic_stop", traffic_stop))
        if seed is not None:
            meta.append(("seed", seed))
        return Point(scheme, tuple(sorted(scheme_kwargs.items())),
                     pattern, rate, tuple(sorted(meta)))

    @staticmethod
    def make_scenario(scheme: str, spec, seed: int | None = None,
                      plan=None, traffic_stop: int | None = None,
                      **scheme_kwargs) -> "Point":
        """A declarative-scenario point (``pattern="scenario:<name>"``).

        The spec's full canonical token rides in ``meta``, so the
        campaign cache keys on the scenario *content* — edit any phase
        and every cached point misses; the name alone never collides.
        Seed replicas of one spec fold into replica batches like plain
        synthetic points.
        """
        meta = [("scenario", spec.token())]
        if seed is not None:
            meta.append(("seed", seed))
        if plan:
            meta.append(("faults", plan.token()))
        if traffic_stop is not None:
            meta.append(("traffic_stop", traffic_stop))
        return Point(scheme, tuple(sorted(scheme_kwargs.items())),
                     f"scenario:{spec.name}", spec.mean_rate(),
                     tuple(sorted(meta)))

    @staticmethod
    def make_trace(scheme: str, trace_path: str,
                   **scheme_kwargs) -> "Point":
        """A trace-replay point (``pattern="trace:<path>"``).

        The artifact path is the identity; campaigns re-read the file at
        execution time, so traces live outside the cache key's content —
        replaying a *changed* file under the same path is the caller's
        foot-gun, which is why the experiments name traces by scenario
        content hash.
        """
        return Point(scheme, tuple(sorted(scheme_kwargs.items())),
                     f"trace:{trace_path}", 0.0)

    @staticmethod
    def make_irregular(topology: str, partitions: int = 4,
                       slot_cycles: int = 32,
                       scheme: str = "fastpass") -> "Point":
        """An irregular-topology schedule point
        (``pattern="irregular:<topology>"``, §III-F): derives, verifies
        and characterises FastPass partitions for an arbitrary graph."""
        meta = (("partitions", partitions), ("slot_cycles", slot_cycles))
        return Point(scheme, (), f"irregular:{topology}", 0.0, meta)

    # -- JSON round-trip (the cache-key basis) --------------------------
    def to_json(self) -> dict:
        """Canonical JSON form: kwargs/meta as sorted [key, value] lists."""
        return {
            "scheme": self.scheme,
            "scheme_kwargs": [[k, v] for k, v in
                              sorted(self.scheme_kwargs)],
            "pattern": self.pattern,
            "rate": self.rate,
            "meta": [[k, v] for k, v in sorted(self.meta)],
        }

    @classmethod
    def from_json(cls, d: dict) -> "Point":
        return cls(d["scheme"],
                   tuple(sorted((k, v) for k, v in d["scheme_kwargs"])),
                   d["pattern"], d["rate"],
                   tuple(sorted((k, v) for k, v in d.get("meta", ()))))


def pool_context() -> mp.context.BaseContext:
    """Prefer fork where available (cheap, inherits loaded modules)."""
    return mp.get_context("fork") if "fork" in mp.get_all_start_methods() \
        else mp.get_context("spawn")


def parallel_sweep(points: list[Point], cfg: SimConfig,
                   processes: int | None = None,
                   cache=None) -> list[RunResult]:
    """:class:`~repro.campaign.executor.CampaignExecutor` without a
    cache, nothing more: every point is recomputed (unless a
    :class:`repro.campaign.cache.RunCache` is passed as ``cache``), no
    campaign store is touched, and results come back in the order of
    ``points``.  With ``processes=1`` (or a single point) everything
    runs in-process — handy for debugging and for platforms where fork
    is unavailable.
    """
    from repro.campaign.executor import CampaignExecutor
    ex = CampaignExecutor(cfg, cache=cache, store=None, processes=processes)
    return ex.run(points)


def grid(schemes: list[tuple], patterns: list[str],
         rates: list[float]) -> list[Point]:
    """The full cartesian sweep grid, as Points.

    ``schemes`` entries are ``(name, kwargs_dict)`` pairs.
    """
    return [Point.make(name, pattern, rate, **kwargs)
            for name, kwargs in schemes
            for pattern in patterns
            for rate in rates]
