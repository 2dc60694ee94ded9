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
    #: under fault injection, steer this scheme's packets around dead
    #: links (:class:`~repro.fault.injector.RerouteTable`).  Without it a
    #: scheme keeps its static routes: packets whose only productive port
    #: died stall, the watchdog fires and the post-mortem says why — the
    #: declared behaviour, not a bug (the plain baseline wedges).
    reroutes = False
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

    #: hook periods, read once by the network: ``pre_cycle`` /
    #: ``post_cycle`` run on every cycle that is a multiple of N (cycle 0
    #: included); 1 = every cycle, 0 = never.  A hook keeps no period
    #: guard of its own.
    pre_cycle_every = 0
    post_cycle_every = 0

    def pre_cycle(self, net, now: int) -> None:
        pass

    def post_cycle(self, net, now: int) -> None:
        pass

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
