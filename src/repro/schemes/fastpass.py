"""The FastPass scheme: glue between the core mechanism and the runner.

0 virtual networks (a single shared VC pool per input port), fully
adaptive regular routing (Table II), plus the FastPass manager driving the
TDM lanes every cycle.  Protocol- and network-level deadlock freedom come
from the lanes (Sec. III-C3), not from VNs or turn restrictions.
"""

from __future__ import annotations

from repro.core.manager import FastPassManager
from repro.schemes.base import FaultCaps, Scheme, Table1Row, register


@register
class FastPass(Scheme):
    name = "fastpass"
    routing = "adaptive"
    #: reroute covers the regular (buffered) datapath; lane_skip makes the
    #: primes refuse lanes crossing dead or lookahead-dropped segments
    fault_caps = FaultCaps(reroute=True, lane_skip=True)
    n_vns = 1
    n_vcs = 4   # the paper evaluates 1, 2 and 4 VCs per input buffer

    table1 = Table1Row(
        no_detection=True,
        protocol_deadlock_freedom=True,
        network_deadlock_freedom=True,
        full_path_diversity=True,
        high_throughput=True,
        low_power=True,
        scalability=True,
        no_misrouting=True,
    )

    def __init__(self, n_vcs: int = 4):
        super().__init__(n_vns=1, n_vcs=n_vcs)
        self.manager: FastPassManager | None = None

    def build(self, net) -> None:
        self.manager = FastPassManager(net)
        net.fastpass = self.manager   # expose for stats/tests

    def pre_cycle(self, net, now: int) -> None:
        self.manager.step(now)

    @property
    def label(self) -> str:
        return f"FastPass(VN=0, VC={self.n_vcs})"
