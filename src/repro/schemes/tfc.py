"""Token Flow Control baseline (Kumar et al., MICRO 2008).

Routers broadcast *tokens* advertising free buffers in their neighbourhood;
a packet holding tokens along its next hops may bypass the router pipeline.
We model the token condition structurally: a hop is "expressed" (1 cycle
instead of router+link) when the downstream input port still has at least
two free VCs, counted over all of the port's VCs (every VN, not only the
packet's) — the abundance condition under which TFC's tokens remain
valid — and the bypass is charged only at low contention.  Routing is
west-first (TFC relies on a deadlock-free algorithm) and the 6 VNs
against protocol deadlock are kept (Table I *).
"""

from __future__ import annotations

from repro.network.router import Router
from repro.schemes.base import Scheme, Table1Row, register


class TFCRouter(Router):
    """Credit-based router with opportunistic token bypass."""

    __slots__ = ()

    def _transfer(self, slot, pkt, link, dslot, now: int,
                  ready_at: int = 0) -> None:
        # Token bypass: express the hop when the downstream input port is
        # nearly empty (tokens valid) — the head skips the pipeline stage.
        # Decided before the hop, over the port's free VCs other than the
        # one this packet claims, and handed to ``fill`` (which keeps the
        # downstream router's wake bound), never written behind it.
        free = 0
        for s in self.neighbors[link.src_port].slots[link.dst_port]:
            if s is not dslot and s.is_free(now):
                free += 1
                if free >= 2:
                    ready_at = now + 1
                    break
        super()._transfer(slot, pkt, link, dslot, now, ready_at)


@register
class TFC(Scheme):
    name = "tfc"
    routing = "west_first"
    router_cls = TFCRouter
    n_vns = 6
    n_vcs = 2

    table1 = Table1Row(
        no_detection=True,
        protocol_deadlock_freedom=False,
        network_deadlock_freedom=True,
        full_path_diversity=False,
        high_throughput=False,
        low_power=False,
        scalability=True,
        no_misrouting=True,
    )

    @property
    def label(self) -> str:
        return f"TFC(VN={self.n_vns}, VC={self.n_vcs})"
