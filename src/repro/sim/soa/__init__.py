"""Opt-in structure-of-arrays cycle engine (``SimConfig.engine="soa"``).

The package gates on two axes:

* **Availability** — numpy.  The project installs it by default (the
  synthetic traffic generators already require it), but the ``[soa]``
  extra names the dependency explicitly and this module degrades to a
  clear :class:`EngineUnavailable` instead of an ImportError when a
  stripped-down environment lacks it.
* **Compatibility** — the kernel mirrors exactly the state the supported
  schemes mutate.  Schemes with out-of-band datapaths (SPIN probes, SWAP
  relocation, DRAIN suspension, ...) and fault-injected runs fall back to
  the scalar active-set engine for the *whole* run —
  :func:`fallback_reason` decides before the network is built, and the
  run result is bit-identical either way, so the fallback is silent by
  design (``Simulation.engine_used`` reports it for anyone who asks).
"""

from __future__ import annotations

try:
    import numpy as _np
except ImportError:      # pragma: no cover - exercised via _FORCE_UNAVAILABLE
    _np = None

#: test hook: force the "numpy missing" path without uninstalling numpy
_FORCE_UNAVAILABLE = False

#: schemes whose full mutation surface the kernel absorbs (router phase,
#: NI admits, FastPass upgrades + reservations); everything else falls
#: back to scalar
SUPPORTED_SCHEMES = frozenset({"baseline", "fastpass", "escapevc"})


class EngineUnavailable(RuntimeError):
    """``engine="soa"`` was requested but numpy is not importable."""


def soa_available() -> bool:
    return _np is not None and not _FORCE_UNAVAILABLE


def require_numpy() -> None:
    if not soa_available():
        raise EngineUnavailable(
            "engine='soa' needs numpy — install the extra with "
            "`pip install .[soa]` (or any numpy>=1.24), or select "
            "engine='active' for the scalar fallback")


def best_engine() -> str:
    """``"soa"`` when available, else the scalar default — for callers
    that want opportunistic speed rather than a hard requirement."""
    return "soa" if soa_available() else "active"


def fallback_reason(cfg, scheme) -> str | None:
    """Why this run must use the scalar engine, or None if the kernel
    can drive it.  Availability is checked separately
    (:func:`require_numpy`): an unsupported *feature* silently falls
    back, a missing *dependency* is an explicit error."""
    if scheme.name not in SUPPORTED_SCHEMES:
        return f"scheme {scheme.name!r} has out-of-band state " \
               "the kernel does not mirror"
    if cfg.fault_plan is not None:
        return "fault injection mutates timers and routes out of band"
    return None


_hooked_cache: dict[type, type] = {}


def hooked_router_cls(cls: type) -> type:
    """A subclass of ``cls`` whose :meth:`admit` routes through the
    attached kernel (so injections update the arrays); behaves exactly
    like ``cls`` until a kernel is attached."""
    sub = _hooked_cache.get(cls)
    if sub is None:
        def admit(self, slot):
            kernel = self.net.soa
            if kernel is not None:
                kernel.on_admit(self, slot)
            else:
                cls.admit(self, slot)

        sub = type(cls.__name__ + "SoA", (cls,),
                   {"__slots__": (), "admit": admit})
        _hooked_cache[cls] = sub
    return sub


def attach(net):
    """Build and install the kernel on ``net`` (once, before cycle 0)."""
    from repro.sim.soa.kernel import SoAKernel

    require_numpy()
    if net.cycle != 0 or net.soa is not None:
        raise RuntimeError("SoA kernel must attach to a fresh network")
    if net.faults is not None:
        raise RuntimeError("SoA kernel cannot drive fault-injected runs")
    net.soa = SoAKernel(net)
    return net.soa
