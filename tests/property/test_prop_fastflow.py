"""Property tests: FastFlow reservations and arrival arithmetic under
randomized launch schedules.

The engine's own `ReservationConflict` check turns any collision into an
exception, so these tests double as fuzzing of the non-overlap machinery.
"""

from hypothesis import given, settings, strategies as st

from repro.config import SimConfig
from repro.core.schedule import TdmSchedule
from repro.network.packet import MessageClass, Packet
from repro.schemes import get_scheme
from tests.conftest import make_network


def build_net(n=4, vcs=2, slot=64):
    cfg = SimConfig(rows=n, cols=n, fastpass_slot_cycles=slot)
    return make_network(cfg, scheme=get_scheme("fastpass", n_vcs=vcs))


@given(st.data())
@settings(max_examples=30, deadline=None)
def test_schedule_compliant_launches_never_collide(data):
    """Launches that follow the TDM discipline (right prime, right target
    partition, round trip inside the slot, lane serialized) never raise a
    reservation conflict, whatever the interleaving."""
    n = data.draw(st.integers(3, 6))
    net = build_net(n=n, slot=96)
    sched: TdmSchedule = net.fastpass.schedule
    eng = net.fastpass.engine
    rt_table = net.fastpass._rt     # the round-trip budget's hops part
    lane_free = [0] * sched.P
    pkts = []
    now = 0
    for _ in range(data.draw(st.integers(1, 25))):
        now += data.draw(st.integers(0, 5))
        info = sched.info(now)
        c = data.draw(st.integers(0, sched.P - 1))
        if lane_free[c] > now:
            continue
        prime = sched.prime_of_partition(c, info.phase)
        tcol = sched.target_partition(c, info.slot)
        row = data.draw(st.integers(0, n - 1))
        dst = row * n + tcol
        if dst == prime:
            continue
        mclass = data.draw(st.sampled_from([MessageClass.REQUEST,
                                            MessageClass.RESPONSE]))
        pkt = Packet(prime, dst, mclass, now)
        rt = rt_table[prime * n * n + dst] + 2 * pkt.size
        if now + rt > info.slot_end:
            continue
        lane_free[c] = eng.launch_forward(pkt, prime, now)  # must not raise
        pkts.append((pkt, now, net.mesh.hops(prime, dst)))
    # drive the network to complete all traversals
    end = now + 4 * n + 20
    while net.cycle < end:
        net.step()
    for pkt, t0, dist in pkts:
        assert pkt.eject_cycle == t0 + dist + 1   # fixed arrival (Lemma 1)


@given(st.integers(3, 7), st.integers(0, 2 ** 12))
@settings(max_examples=30, deadline=None)
def test_round_trip_budget_bounds_rotation(n, seed):
    """The slot formula K always admits a round trip to the farthest
    destination for every packet size (Qn 5)."""
    cfg = SimConfig(rows=n, cols=n, n_vns=1, n_vcs=1)
    net = build_net(n=n, vcs=1, slot=None if False else cfg.fastpass_slot())
    eng = net.fastpass.engine
    K = net.cfg.fastpass_slot()
    diameter = net.mesh.diameter
    for size in (1, 5):
        worst = 2 * diameter + 2 * size + eng.RETURN_SLACK
        assert worst <= K, (worst, K)
