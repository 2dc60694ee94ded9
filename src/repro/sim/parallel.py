"""Campaign points and parallel sweeps.

A :class:`Point` is one independent, deterministic simulation of a
sweep: a scheme plus the typed workload it runs
(:mod:`repro.sim.workload`).  ``parallel_sweep`` is the campaign
executor (:mod:`repro.campaign.executor`) without a result cache:
crash isolation, retries and timeouts come from its one task lifecycle,
and points that differ only in their seed share one task.
"""

from __future__ import annotations

import multiprocessing as mp
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.config import RunResult, SimConfig
from repro.sim.workload import App, Synthetic, decode

if TYPE_CHECKING:
    from repro.fault.plan import FaultPlan
    from repro.sim.workload import Workload


@dataclass(frozen=True)
class Point:
    """A scheme, the workload it runs, and the optional run seed (else
    ``cfg.seed``), fault plan and traffic-generation stop.
    ``scheme_kwargs`` is a tuple of sorted ``(key, value)`` pairs, or a
    dict that is stored as one, so equal points hash equal.  A fault plan
    with no faults is no plan."""

    scheme: str
    workload: Workload
    scheme_kwargs: tuple = ()
    seed: int | None = None
    faults: FaultPlan | None = None
    traffic_stop: int | None = None

    def __post_init__(self):
        if type(self.scheme_kwargs) is not tuple:
            object.__setattr__(self, "scheme_kwargs", tuple(sorted(
                dict(self.scheme_kwargs).items())))
        if self.faults is not None and not self.faults:
            object.__setattr__(self, "faults", None)

    @property
    def pattern(self) -> str:
        return self.workload.pattern

    @property
    def rate(self) -> float:
        return self.workload.rate

    @staticmethod
    def make_seeded(scheme: str, pattern: str, rate: float, seed: int,
                    **scheme_kwargs) -> "Point":
        """A synthetic point pinned to a seed; its seed replicas share
        one task while keeping their own cache keys."""
        return Point(scheme, Synthetic(pattern, rate), scheme_kwargs,
                     seed=seed)

    @staticmethod
    def make_app(scheme: str, benchmark: str, txns: int, seed: int = 1,
                 max_cycles: int = 400000, **scheme_kwargs) -> "Point":
        """A closed-loop application point."""
        return Point(scheme, App(benchmark, txns, max_cycles),
                     scheme_kwargs, seed=seed)

    # -- JSON round-trip (the cache-key basis) --------------------------
    def to_json(self) -> dict:
        """The wire form: ``{scheme, scheme_kwargs, pattern, rate,
        meta}``, kwargs and meta as sorted ``[key, value]`` lists."""
        w = self.workload
        meta = [[k, v] for k, v in w.wire_meta()]
        if self.seed is not None:
            meta.append(["seed", self.seed])
        if self.faults is not None:
            meta.append(["faults", self.faults.token()])
        if self.traffic_stop is not None:
            meta.append(["traffic_stop", self.traffic_stop])
        meta.sort()
        return {
            "scheme": self.scheme,
            "scheme_kwargs": [[k, v] for k, v in self.scheme_kwargs],
            "pattern": w.pattern,
            "rate": w.rate,
            "meta": meta,
        }

    @classmethod
    def from_json(cls, d: dict) -> "Point":
        meta = dict(d.get("meta", ()))
        seed, stop = meta.pop("seed", None), meta.pop("traffic_stop", None)
        faults = meta.pop("faults", None)
        if faults is not None:
            from repro.fault.plan import FaultPlan
            faults = FaultPlan.from_token(faults)
        workload = decode(d["pattern"], d["rate"], meta)
        if meta:
            raise ValueError(f"unknown point meta {sorted(meta)} for "
                             f"pattern {d['pattern']!r}")
        return cls(d["scheme"], workload, d["scheme_kwargs"], seed, faults,
                   stop)


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
    return [Point(name, Synthetic(pattern, rate), kwargs)
            for name, kwargs in schemes
            for pattern in patterns
            for rate in rates]
