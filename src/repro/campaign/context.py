"""Process-wide campaign configuration.

The campaign layer needs three pieces of ambient state: where the run
cache lives, where campaign stores live, and how many worker processes to
use.  Experiments and benchmarks call the cached helpers from many entry
points (CLI, pytest, notebooks), so the state lives here rather than being
threaded through every ``run()`` signature.

Defaults come from the environment:

* ``REPRO_RESULTS_DIR`` — root for both and for every other artifact
  (:func:`results_dir`; default ``results/``)
* ``REPRO_CACHE_DIR`` / ``REPRO_CAMPAIGN_DIR`` — fine-grained overrides
* ``REPRO_JOBS`` — default worker-process count
* ``REPRO_CACHE=0`` — disable the result cache entirely
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from pathlib import Path


@dataclass
class CampaignContext:
    cache_dir: Path
    campaign_dir: Path
    jobs: int | None = None
    enabled: bool = True
    salt: str | None = None          # None -> code_version()
    campaign: str | None = None      # active campaign name, if any
    progress: object = None          # default executor progress callback
    #: live :class:`~repro.fabric.executor.FabricSession`; when set,
    #: ``run_points`` routes execution through the fabric coordinator
    #: (remote/loopback workers) instead of the local process pool.
    fabric_session: object = None
    _cache: object = field(default=None, repr=False)
    _stores: dict = field(default_factory=dict, repr=False)

    # -- lazily constructed singletons ----------------------------------
    def cache(self):
        """The shared :class:`~repro.campaign.cache.RunCache` (or None)."""
        if not self.enabled:
            return None
        if self._cache is None:
            from repro.campaign.cache import RunCache
            self._cache = RunCache(self.cache_dir, salt=self.salt)
        return self._cache

    def store(self, name: str | None = None):
        """The :class:`~repro.campaign.store.CampaignStore` for ``name``
        (default: the active campaign).  None when no campaign is active."""
        name = name or self.campaign
        if name is None:
            return None
        if name not in self._stores:
            from repro.campaign.store import CampaignStore
            self.campaign_dir.mkdir(parents=True, exist_ok=True)
            self._stores[name] = CampaignStore(
                self.campaign_dir / f"{name}.sqlite")
        return self._stores[name]

    def close(self) -> None:
        for st in self._stores.values():
            st.close()
        self._stores.clear()
        self._cache = None


_ctx: CampaignContext | None = None


def results_dir() -> Path:
    """The results root, ``REPRO_RESULTS_DIR`` (default ``results``):
    the cache, campaign stores, metrics, diagnostics and the fabric's
    final status all live under it."""
    return Path(os.environ.get("REPRO_RESULTS_DIR", "results"))


def _from_env() -> CampaignContext:
    root = results_dir()
    jobs = os.environ.get("REPRO_JOBS")
    return CampaignContext(
        cache_dir=Path(os.environ.get("REPRO_CACHE_DIR", root / "cache")),
        campaign_dir=Path(os.environ.get("REPRO_CAMPAIGN_DIR",
                                         root / "campaigns")),
        jobs=int(jobs) if jobs else None,
        enabled=os.environ.get("REPRO_CACHE", "1") != "0",
    )


def get_context() -> CampaignContext:
    global _ctx
    if _ctx is None:
        _ctx = _from_env()
    return _ctx


def configure(**kwargs) -> CampaignContext:
    """Override context fields (``cache_dir``, ``campaign_dir``, ``jobs``,
    ``enabled``, ``salt``, ``campaign``).  Resets cached instances."""
    ctx = get_context()
    ctx.close()
    for key, value in kwargs.items():
        if not hasattr(ctx, key):
            raise TypeError(f"unknown campaign setting {key!r}")
        if key in ("cache_dir", "campaign_dir"):
            value = Path(value)
        setattr(ctx, key, value)
    return ctx


def reset() -> None:
    """Drop all overrides; the next access re-reads the environment."""
    global _ctx
    if _ctx is not None:
        _ctx.close()
    _ctx = None
