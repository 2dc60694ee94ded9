"""Scheme framework and registry.

A :class:`Scheme` packages everything that distinguishes one design point:
how it shapes the configuration (VN/VC counts), which routing function and
router class it uses, per-cycle management hooks, and its Table I property
row.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.network.router import Router


@dataclass(frozen=True)
class FaultCaps:
    """What a scheme can do when the fault injector degrades the network.

    * ``reroute`` — the scheme tolerates its packets being steered by a
      :class:`~repro.fault.injector.RerouteTable` around dead links;
    * ``lane_skip`` — the scheme's bypass machinery (FastPass lanes) can
      skip launches whose path crosses a dead or lookahead-compromised
      segment instead of launching blind.

    Schemes without ``reroute`` keep their static routes under faults;
    packets whose only productive port died stall, the watchdog fires,
    and the post-mortem documents why — that *is* the declared behavior,
    not a bug.
    """

    reroute: bool = False
    lane_skip: bool = False


@dataclass(frozen=True)
class Table1Row:
    """The qualitative properties compared in the paper's Table I."""

    no_detection: bool
    protocol_deadlock_freedom: bool
    network_deadlock_freedom: bool
    full_path_diversity: bool
    high_throughput: bool
    low_power: bool
    scalability: bool
    no_misrouting: bool

    def cells(self) -> list[str]:
        return ["X" if v else "7" for v in (
            self.no_detection, self.protocol_deadlock_freedom,
            self.network_deadlock_freedom, self.full_path_diversity,
            self.high_throughput, self.low_power, self.scalability,
            self.no_misrouting)]


class Scheme:
    """Base scheme: plain credit-based VCT with the configured VNs/VCs.

    With fully adaptive routing and no escape mechanism this baseline *can*
    deadlock — that is intentional; it is the substrate the real schemes
    protect.
    """

    name = "baseline"
    routing = "adaptive"
    router_cls = Router
    table1: Table1Row | None = None
    #: graceful-degradation capabilities under fault injection; the plain
    #: baseline declares none and is expected to wedge on a dead link
    fault_caps = FaultCaps()
    #: structural parameters used by the power/area model
    n_vns = 6
    n_vcs = 2

    def __init__(self, n_vns: int | None = None, n_vcs: int | None = None):
        if n_vns is not None:
            self.n_vns = n_vns
        if n_vcs is not None:
            self.n_vcs = n_vcs

    # -- configuration ----------------------------------------------------
    def configure(self, cfg):
        """Return the config this scheme actually runs with."""
        return cfg.with_(n_vns=self.n_vns, n_vcs=self.n_vcs)

    # -- lifecycle hooks ---------------------------------------------------
    def build(self, net) -> None:
        """Called once after the network is wired."""

    #: hook cadence declarations consumed by :meth:`hook_cadence` —
    #: ``None`` auto-detects (1 if the hook is overridden, else 0/never);
    #: a scheme whose hook self-gates on ``now % N`` declares ``N`` so the
    #: active engine can skip the no-op calls entirely
    pre_cycle_every: int | None = None
    post_cycle_every: int | None = None

    def pre_cycle(self, net, now: int) -> None:
        pass

    def post_cycle(self, net, now: int) -> None:
        pass

    def hook_cadence(self, cfg) -> tuple[int, int]:
        """``(pre_every, post_every)``: how often the active-set engine
        must invoke the per-cycle hooks.  0 = never, 1 = every cycle,
        N = when ``now % N == 0``.  A declared N **must** match the hook's
        own internal guard — the naive loop calls hooks unconditionally,
        and the two modes are required to stay bit-identical."""
        cls = type(self)
        pre = cls.pre_cycle_every
        if pre is None:
            pre = 1 if cls.pre_cycle is not Scheme.pre_cycle else 0
        post = cls.post_cycle_every
        if post is None:
            post = 1 if cls.post_cycle is not Scheme.post_cycle else 0
        return pre, post

    # -- labels --------------------------------------------------------------
    @property
    def label(self) -> str:
        return f"{self.name}(VN={self.n_vns}, VC={self.n_vcs})"


SCHEMES: dict[str, type[Scheme]] = {"baseline": Scheme}


def register(cls: type[Scheme]) -> type[Scheme]:
    """Class decorator adding a scheme to the registry."""
    SCHEMES[cls.name] = cls
    return cls


def get_scheme(name: str, **kwargs) -> Scheme:
    if name not in SCHEMES:
        raise ValueError(f"unknown scheme {name!r}; "
                         f"choose from {sorted(SCHEMES)}")
    return SCHEMES[name](**kwargs)


def scheme_names() -> list[str]:
    return sorted(SCHEMES)
