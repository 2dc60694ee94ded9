"""Unit tests for the FastPass manager: prime scanning, upgrading, the
scan order guarantees of Qn 2 / Qn 6, and the green path."""

import pytest

from repro.core.manager import round_trips
from repro.network.packet import MessageClass, Packet
from repro.network.topology import Mesh
from repro.schemes import get_scheme
from tests.conftest import make_network, park


@pytest.fixture
def fp_net(small_cfg):
    return make_network(small_cfg, scheme=get_scheme("fastpass", n_vcs=2))


def put_in_slot(net, rid, port, vc, pkt):
    r = net.routers[rid]
    slot = r.slots[port][vc]
    park(net, r, slot, pkt)
    return slot


def put_in_inj(net, rid, pkt):
    """Queue ``pkt`` at an NI with the engine bookkeeping a real source
    would have done."""
    ni = net.nis[rid]
    ni.inj[pkt.mclass].append(pkt)
    ni.inj_count += 1
    net.inj_total += 1
    net.wake_inject(rid)


class TestEligibility:
    def test_dst_must_be_in_target_partition(self, fp_net):
        mgr = fp_net.fastpass
        # cycle 0: prime of partition 0 is router 0, target partition 0
        pkt_wrong = Packet(0, 3, MessageClass.REQUEST, 0)    # column 3
        assert not mgr._eligible(pkt_wrong, 0, 0, 0, 64)
        pkt_right = Packet(0, 12, MessageClass.REQUEST, 0)   # column 0
        assert mgr._eligible(pkt_right, 0, 0, 0, 64)

    def test_own_router_not_eligible(self, fp_net):
        mgr = fp_net.fastpass
        pkt = Packet(0, 0, MessageClass.REQUEST, 0)
        assert not mgr._eligible(pkt, 0, 0, 0, 64)

    def test_round_trip_must_fit_slot(self, fp_net):
        mgr = fp_net.fastpass
        pkt = Packet(0, 12, MessageClass.RESPONSE, 0)   # 3 hops, 5 flits
        rt = mgr._rt[0 * mgr._nr + 12] + 2 * 5
        assert mgr._eligible(pkt, 0, 0, 0, rt)
        assert not mgr._eligible(pkt, 0, 0, 1, rt)


@pytest.mark.parametrize("rows,cols", [(4, 4), (8, 8), (4, 6), (16, 16)])
def test_round_trip_table_is_twice_the_hops_plus_slack(rows, cols):
    """The coordinate-arithmetic table equals its definition, one
    ``Mesh.hops`` per (prime, destination) pair."""
    mesh = Mesh(rows, cols)
    n = mesh.n_routers
    assert round_trips(rows, cols, 7) == tuple(
        2 * mesh.hops(p, d) + 7 for p in range(n) for d in range(n))


class TestUpgrading:
    def test_upgrades_eligible_injection_packet(self, fp_net):
        # prime 0, slot 0 targets partition 0: router 12 is in column 0
        pkt = Packet(0, 12, MessageClass.REQUEST, 0)
        put_in_inj(fp_net, 0, pkt)
        fp_net.step()
        assert pkt.was_fastpass
        assert fp_net.fastpass.upgrades == 1
        assert fp_net.fastpass.upgrades_from_injection == 1

    def test_request_queue_scanned_first(self, fp_net):
        """Qn 2: a (rejected) packet at the head of the request injection
        queue is always selected before anything else."""
        ni = fp_net.nis[0]
        rejected = Packet(0, 12, MessageClass.RESPONSE, 0)
        ni.accept_bounced(rejected, now=0)
        # competing eligible packet in an input VC
        other = Packet(5, 8, MessageClass.REQUEST, 0)   # column 0 too
        put_in_slot(fp_net, 0, 2, 0, other)
        fp_net.fastpass.step(0)
        assert rejected.was_fastpass
        assert not other.was_fastpass

    def test_upgrade_from_input_vc_frees_credit_early(self, fp_net):
        pkt = Packet(5, 12, MessageClass.REQUEST, 0)    # column 0
        slot = put_in_slot(fp_net, 0, 2, 0, pkt)
        fp_net.fastpass.step(0)
        assert pkt.was_fastpass
        assert slot.pkt is None
        assert slot.free_at == pkt.size    # credit at departure, not tail+1

    def test_green_path_moves_rejected_into_freed_slot(self, fp_net):
        """Qn 2 scenario 2: when a new FastPass-Packet departs an input VC
        and a rejected packet waits in the request injection queue, the
        rejected packet takes the freed slot (and no credit goes
        upstream)."""
        ni = fp_net.nis[0]
        rejected = Packet(0, 3, MessageClass.RESPONSE, 0)  # column 3: not
        ni.accept_bounced(rejected, now=0)                 # eligible now
        pkt = Packet(5, 12, MessageClass.REQUEST, 0)       # eligible
        slot = put_in_slot(fp_net, 0, 2, 0, pkt)
        fp_net.fastpass.step(0)
        assert pkt.was_fastpass
        assert slot.pkt is rejected
        assert rejected not in ni.inj[MessageClass.REQUEST]
        assert slot.free_at == 1 << 60      # upstream credit withheld

    def test_lane_serialization_between_launches(self, fp_net):
        a = Packet(0, 12, MessageClass.RESPONSE, 0)
        b = Packet(0, 8, MessageClass.REQUEST, 0)
        put_in_inj(fp_net, 0, a)
        put_in_inj(fp_net, 0, b)
        fp_net.fastpass.step(0)
        assert fp_net.fastpass.upgrades == 1
        # next launch only after the first tail clears the lane head
        assert fp_net.fastpass.lane_free_at[0] == \
            (b.size if b.was_fastpass else a.size)

    def test_all_primes_active_simultaneously(self, fp_net):
        # one eligible packet at each diagonal prime (slot 0: own column)
        pkts = []
        for c in range(4):
            prime = fp_net.fastpass.schedule.prime_of_partition(c, 0)
            dst_row = 3 if prime // 4 != 3 else 0
            dst = dst_row * 4 + c
            pkt = Packet(prime, dst, MessageClass.REQUEST, 0)
            put_in_inj(fp_net, prime, pkt)
            pkts.append(pkt)
        fp_net.fastpass.step(0)
        assert all(p.was_fastpass for p in pkts)
        assert fp_net.fastpass.upgrades == 4


class TestSlotRotation:
    def test_target_changes_after_slot(self, fp_net):
        """A packet pinned at router 0 and destined for column 1 is not
        upgraded in slot 0 (lane covers column 0) but is in slot 1."""
        K = fp_net.cfg.fastpass_slot()
        pkt = Packet(4, 13, MessageClass.REQUEST, 0)   # column 1
        put_in_slot(fp_net, 0, 1, 0, pkt)              # north input VC
        # pin it: park blockers in every VC the packet could move into
        blocker = Packet(0, 15, MessageClass.REQUEST, 0)
        for out in (1, 2):                             # N and E of router 0
            nbr = fp_net.routers[0].neighbors[out]
            link = fp_net.routers[0].links_out[out]
            for s in nbr.slots[link.dst_port]:
                s.pkt, s.ready_at = blocker, 1 << 60
        for _ in range(K):
            fp_net.fastpass.step(fp_net.cycle)
            fp_net.cycle += 1
        assert not pkt.was_fastpass        # slot 0 covers column 0 only
        for _ in range(K):
            fp_net.fastpass.step(fp_net.cycle)
            fp_net.cycle += 1
            if pkt.was_fastpass:
                break
        assert pkt.was_fastpass            # slot 1 covers column 1
