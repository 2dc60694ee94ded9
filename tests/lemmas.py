"""FastPass's geometric lemmas as checkers (Sec. III-D).

Lemma 1, a lane never collides: within one slot the forward lanes of
the concurrent primes are pairwise link-disjoint, so are their returning
paths, and no returning path shares a directed link with any forward
lane (Fig. 4); and the lookahead chain walks each lane hop by hop to its
destination (Sec. III-C5), so a FastPass-Packet's arrival time is its
distance.  Lemma 2's precondition: one full rotation gives every router
a lane to every destination.

The conformance matrix (``tests/matrix.py``) runs them on the schedule
of every native FastPass cell; the unit and property suites run them on
hand-built meshes, and on primes chosen to break them.
"""

from __future__ import annotations

from functools import lru_cache

from repro.core.lookahead import Lookahead, signals_along
from repro.core.schedule import TdmSchedule
from repro.network.topology import Mesh


def lane_links(mesh: Mesh, prime: int, target_col: int,
               path=Mesh.xy_path) -> set:
    """Every directed link the lane (prime -> all of ``target_col``)
    uses; with ``path=bounce_path``, every link a bounce back from the
    column to the prime could use."""
    links = set()
    for row in range(mesh.rows):
        dst = mesh.rid(target_col, row)
        if dst != prime:
            links.update(path(mesh, prime, dst))
    return links


def bounce_path(mesh: Mesh, prime: int, dst: int) -> list:
    return mesh.yx_path(dst, prime)


def return_links(mesh: Mesh, prime: int, target_col: int) -> set:
    return lane_links(mesh, prime, target_col, bounce_path)


def verify_slot_nonoverlap(mesh: Mesh, primes: list[int],
                           targets: list[int]) -> None:
    """Lemma 1's disjointness for one slot; raises ``AssertionError``
    naming the overlap."""
    fwd = [lane_links(mesh, p, t) for p, t in zip(primes, targets)]
    ret = [return_links(mesh, p, t) for p, t in zip(primes, targets)]
    for i, j in ((i, j) for i in range(len(primes))
                 for j in range(len(primes))):
        if i < j:
            assert not fwd[i] & fwd[j], (
                f"forward lanes of primes {primes[i]} and {primes[j]} "
                f"overlap on {sorted(fwd[i] & fwd[j])}")
            assert not ret[i] & ret[j], (
                f"returning paths of primes {primes[i]} and {primes[j]} "
                f"overlap on {sorted(ret[i] & ret[j])}")
        assert not ret[i] & fwd[j], (
            f"returning path of prime {primes[i]} overlaps the forward "
            f"lane of prime {primes[j]} on {sorted(ret[i] & fwd[j])}")


def verify_signals(mesh: Mesh, path: list[tuple[int, int]], dst: int) -> None:
    """Lemma 1's lookahead half: following the chain reproduces the path,
    survives the wire encoding, and ends at ``dst``."""
    signals = signals_along(mesh, path, dst)
    assert len(signals) == len(path)
    at = path[0][0] if path else dst
    for sig, (rid, port) in zip(signals, path):
        assert (sig.dst, sig.out_port, rid) == (dst, port, at)
        assert Lookahead.decode(sig.encode(mesh), mesh) == sig
        at = mesh.neighbor(rid, port)
    assert at == dst


def lanes_cover_network(mesh: Mesh, schedule) -> bool:
    """Lemma 2's precondition: over one full rotation every
    (router, destination) pair gets a lane."""
    covered = {rid: set() for rid in range(mesh.n_routers)}
    for phase in range(schedule.rows):
        for c in range(schedule.P):
            prime = schedule.prime_of_partition(c, phase)
            for slot in range(schedule.P):
                tcol = schedule.target_partition(c, slot)
                covered[prime].update(mesh.rid(tcol, row)
                                      for row in range(mesh.rows))
    return all(len(v) == mesh.n_routers for v in covered.values())


@lru_cache(maxsize=None)
def check_slot(n: int, phase: int, slot: int) -> None:
    """Lemma 1 on one slot of the n x n schedule (which repeats every
    ``n`` phases, so each slot is proven once per process)."""
    mesh, sched = Mesh(n, n), TdmSchedule(n, n, 1)
    primes = sched.primes(phase)
    targets = [sched.target_partition(c, slot) for c in range(sched.P)]
    verify_slot_nonoverlap(mesh, primes, targets)
    for prime, tcol in zip(primes, targets):
        for dst in (mesh.rid(tcol, row) for row in range(n)):
            if dst != prime:
                verify_signals(mesh, mesh.xy_path(prime, dst), dst)
                verify_signals(mesh, bounce_path(mesh, prime, dst), prime)


def check_lanes(schedule, cycles: int) -> None:
    """Lemmas 1 and 2 on the schedule a FastPass run used: every slot
    its ``cycles`` reached, and the whole rotation's coverage."""
    n = schedule.rows
    last = schedule.info(max(cycles - 1, 0))
    for phase in range(min(last.phase + 1, n)):
        slots = last.slot + 1 if phase == last.phase else schedule.P
        for slot in range(slots):
            check_slot(n, phase, slot)
    assert lanes_cover_network(Mesh(n, n), schedule), \
        f"one rotation of the {n}x{n} schedule leaves a pair uncovered"
