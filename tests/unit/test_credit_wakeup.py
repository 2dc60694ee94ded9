"""Credit-return wakeups: one vacate path, and who it wakes.

A head whose candidate downstream VCs are all occupied has no time to
wait for: it subscribes to those VCs and sleeps with no bound; the one way
a slot is emptied — :meth:`VCSlot.vacate` — lowers its retry memo to the
cycle the credit arrives.  These tests build the blockade by hand on a
4x4 mesh (router 0's head wants to go East into router 1's West port,
both VN-0 VCs of which are held) and then empty one of the two VCs
through each vacate path in the tree.  An NI whose local VCs are all
held waits the same way (:class:`TestNICreditWait`).  The
``paranoia`` audit runs every cycle throughout, so every intermediate
state also passes the skipped-head, wake-bound and subscription audits.
"""

import re
from pathlib import Path

import pytest

import repro
from repro.config import SimConfig
from repro.network.ni import NetworkInterface
from repro.network.packet import MessageClass, Packet
from repro.network.router import INF
from repro.network.topology import PORT_LOCAL, PORT_W
from repro.schemes import get_scheme
from repro.traffic.synthetic import SyntheticTraffic
from tests.conftest import inject_now, make_network, park

NEVER = 10 ** 6


def cfg(**kw) -> SimConfig:
    return SimConfig(rows=4, cols=4, paranoia=1, watchdog_cycles=NEVER,
                     fastpass_slot_cycles=64, **kw)


def blockade(net, blocker_dst: int = 3, ready_at: int = NEVER):
    """Router 0's head (to router 3) behind router 1's two held West-port
    VCs.  Returns ``(head_slot, head, held_slots)``."""
    waiter, holder = net.routers[0], net.routers[1]
    held = holder.slots[PORT_W][:2]
    for slot in held:
        park(net, holder, slot,
             Packet(0, blocker_dst, MessageClass.REQUEST, 0), ready_at)
    head = Packet(0, 3, MessageClass.REQUEST, 0)
    hslot = waiter.slots[0][0]
    park(net, waiter, hslot, head)
    return hslot, head, held


def step_to(net, cycle: int) -> None:
    """Run every cycle before ``cycle``."""
    while net.cycle < cycle:
        net.step()


def assert_asleep(hslot, held) -> None:
    """The head holds an unbounded memo and both held VCs list it."""
    assert hslot.retry_at == INF and hslot.retry_pid == hslot.pkt.pid
    assert all(hslot in slot.waiters for slot in held)


def assert_moves_exactly_at(net, head, cycle: int) -> None:
    step_to(net, cycle)
    assert head.hops == 0, "moved before the credit arrived"
    net.step()
    assert head.hops == 1, "still asleep on the cycle the credit arrived"


class TestSubscription:
    def test_all_occupied_head_sleeps_unbounded(self):
        net = make_network(cfg())
        hslot, head, held = blockade(net)
        step_to(net, 40)
        assert head.hops == 0
        assert_asleep(hslot, held)
        # once per (head slot, VC), however long it waits
        assert all(slot.waiters == [hslot] for slot in held)

    def test_transfer_wakes_the_waiter(self):
        net = make_network(cfg())
        hslot, head, held = blockade(net, blocker_dst=3, ready_at=30)
        step_to(net, 30)
        assert_asleep(hslot, held)
        net.step()       # cycle 30: the first blocker leaves for router 2
        assert held[0].pkt is None and held[0].waiters is None
        assert held[0].free_at == 32
        assert hslot.retry_at == 32
        assert_moves_exactly_at(net, head, 32)

    def test_eject_wakes_the_waiter(self):
        net = make_network(cfg())
        hslot, head, held = blockade(net, blocker_dst=1, ready_at=30)
        step_to(net, 31)     # cycle 30: the first blocker ejects
        assert held[0].pkt is None and held[0].free_at == 32
        assert hslot.retry_at == 32
        assert_moves_exactly_at(net, head, 32)

    def test_fastpass_upgrade_wakes_the_waiter(self):
        net = make_network(cfg(), scheme=get_scheme("fastpass", n_vcs=2))
        net._pre_every = 0       # the manager acts only when told to
        hslot, head, held = blockade(net)
        step_to(net, 10)
        assert_asleep(hslot, held)
        net.fastpass._take_slot(net.nis[1], held[1], held[1].pkt, net.cycle)
        assert held[1].pkt is None and held[1].free_at == 11
        assert hslot.retry_at == 11
        assert_moves_exactly_at(net, head, 11)

    def test_swap_forced_move_wakes_the_waiter(self):
        from repro.schemes.swap import SWAP
        net = make_network(cfg(), scheme=get_scheme("swap"))
        hslot, head, held = blockade(net)
        step_to(net, 10)
        assert_asleep(hslot, held)
        holder, beyond = net.routers[1], net.routers[2]
        SWAP._move(holder, held[0], beyond, beyond.slots[PORT_W][0],
                   net.cycle)
        assert held[0].free_at == 12
        assert hslot.retry_at == 12
        assert_moves_exactly_at(net, head, 12)


class TestRefillIsNotAVacate:
    """A slot whose packet is replaced in place returns no credit: its
    waiters are neither woken (nothing to claim) nor dropped (the next
    real vacate must still reach them)."""

    def test_fastpass_green_path(self):
        net = make_network(cfg(), scheme=get_scheme("fastpass", n_vcs=2))
        net._pre_every = 0
        hslot, head, held = blockade(net)
        step_to(net, 10)
        ni = net.nis[1]
        bounced = Packet(1, 3, MessageClass.REQUEST, 0)
        net.in_transit += 1          # as if on its returning path
        net.fastpass.engine._arrive_return(net.cycle, bounced, 1)
        net.fastpass._take_slot(ni, held[0], held[0].pkt, net.cycle)
        assert held[0].pkt is bounced
        assert_asleep(hslot, held)          # not woken ...
        # ... and not lost: the refill moves on at cycle 11, which is a
        # vacate, and the head follows on the cycle that credit arrives.
        step_to(net, 12)
        assert held[0].pkt is None and bounced.hops == 1
        assert_moves_exactly_at(net, head, held[0].free_at)

    def test_spin_rotation(self):
        net = make_network(cfg(), scheme=get_scheme("spin"))
        hslot, head, held = blockade(net)
        beyond = net.routers[2]
        other = beyond.slots[PORT_W][0]
        park(net, beyond, other,
             Packet(0, 1, MessageClass.REQUEST, 0), NEVER)
        step_to(net, 10)
        before = held[0].pkt
        net.scheme._spin(net.cycle, [(1, held[0]), (2, other)])
        assert held[0].pkt is not before and other.pkt is before
        assert_asleep(hslot, held)          # not woken ...
        # ... and not lost: the rotated-in packet is home (dst 1) and
        # ejects at cycle 12; the head follows its credit.
        step_to(net, 13)
        assert held[0].pkt is None
        assert_moves_exactly_at(net, head, held[0].free_at)


class TestOneVacatePath:
    def test_no_pkt_none_assignment_outside_vcslot(self):
        """Every slot is emptied through ``VCSlot.vacate``; the one
        open-coded copy (the inlined transfer in ``Router.step``) says so
        on its line and falls into ``vacate`` when anyone waits."""
        root = Path(repro.__file__).resolve().parent
        pattern = re.compile(r"\.pkt\s*=\s*None\b")
        inline, rogue = [], []
        for path in sorted(root.rglob("*.py")):
            rel = path.relative_to(root).as_posix()
            if rel == "network/link.py":
                continue
            for n, line in enumerate(path.read_text().splitlines(), 1):
                if pattern.search(line):
                    (inline if "# inline VCSlot.vacate" in line
                     else rogue).append(f"{rel}:{n}")
        assert not rogue, f"slots emptied without VCSlot.vacate: {rogue}"
        assert len(inline) == 1 and inline[0].startswith(
            "network/router.py:"), inline

    @pytest.mark.parametrize("free_at", [5, 9])
    def test_vacate_lowers_but_never_raises(self, free_at):
        net = make_network(cfg())
        hslot, head, held = blockade(net)
        net.step()
        hslot.retry_at = 7          # as if an earlier credit already woke it
        held[0].vacate(free_at)
        net.buffered -= 1
        assert hslot.retry_at == min(7, free_at)


class TestNICreditWait:
    """An NI that can neither refill nor claim a local VC is not called
    until something it waits on changes: a credit it subscribed to, or
    work that a wake brings."""

    @staticmethod
    def hold_local_vcs(net, vcs, release_at: int = NEVER) -> list:
        """Park a packet for router 1 in each of router 0's local VCs
        ``vcs``; the first leaves at ``release_at``, the rest never."""
        router = net.routers[0]
        held = [router.slots[PORT_LOCAL][vc] for vc in vcs]
        for i, slot in enumerate(held):
            park(net, router, slot, Packet(0, 1, MessageClass.REQUEST, 0),
                 release_at if i == 0 else NEVER)
        return held

    @staticmethod
    def count_calls(monkeypatch) -> list:
        """The cycles at which NI 0's ``inject_step`` runs."""
        calls = []
        inject_step = NetworkInterface.inject_step

        def counted(ni, now):
            if ni.id == 0:
                calls.append(now)
            inject_step(ni, now)
        monkeypatch.setattr(NetworkInterface, "inject_step", counted)
        return calls

    @pytest.mark.parametrize("engine", ["active", "naive"])
    def test_wedged_ni_sleeps_until_its_credit_returns(self, monkeypatch,
                                                       engine):
        net = make_network(cfg())
        net.force_naive_step = engine == "naive"
        calls = self.count_calls(monkeypatch)
        vn = Packet(0, 5, MessageClass.REQUEST, 0).vn
        self.hold_local_vcs(net, net.routers[0]._inj_vcs[vn],
                            release_at=30)
        pkt = inject_now(net, 0, 5, MessageClass.REQUEST)
        step_to(net, 40)
        # cycle 30: the first held packet leaves; its credit is back at
        # 32, and the request enters on that cycle under both engines
        assert pkt.net_entry == 32
        if engine == "active":
            # one futile call (it subscribes) and the injection, which
            # empties the NI and takes it out of the active set
            assert calls == [0, 32]
        else:
            assert calls == list(range(40))

    def test_packet_behind_a_blocked_source_head_does_not_wake(
            self, monkeypatch):
        net = make_network(cfg())
        calls = self.count_calls(monkeypatch)
        self.hold_local_vcs(net, range(net.cfg.total_vcs))
        ni = net.nis[0]
        traffic = SyntheticTraffic("uniform", 1.0, seed=1)  # every node,
        traffic.bind(net)                                   # every cycle
        net.traffic = traffic
        step_to(net, 20)
        # the class queue of the source's head is full: nothing refills
        assert ni.pending
        assert len(ni.inj[ni.pending[0].mclass]) == net.cfg.inj_queue_pkts
        assert ni.retry_at == INF
        called, queued = len(calls), len(ni.pending)
        step_to(net, 40)
        assert len(ni.pending) == queued + 20    # one new packet a cycle
        assert len(calls) == called              # none of them woke it
        assert ni.retry_at == INF
