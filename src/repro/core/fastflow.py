"""FastFlow: the bufferless traversal engine.

An upgraded packet's head advances exactly one hop per cycle — its arrival
time is fixed at upgrade time (Sec. III-C5).  We model the lookahead
signal's effect directly: every link of the path is reserved for the
precise window in which the packet's flits will use it
(``[t + k, t + k + size)`` on the k-th link), which (a) suppresses and, if
needed, pre-empts regular packets and (b) turns any violation of the lane
non-overlap property into a hard :class:`ReservationConflict` error instead
of a silent collision — the simulator enforces the paper's invariant.

Ejection-side behaviour (Secs. III-C4, Qn 3/4):

* free ejection queue -> eject immediately, pre-empting (stalling) any
  ongoing regular ejection;
* full ejection queue -> pro-actively *reserve* the queue for this packet
  and bounce it along the YX returning path to its prime router's request
  injection queue (the dynamic bubble lives in
  :meth:`repro.network.ni.NetworkInterface.accept_bounced`).

Lane geometry.  A lane is the union of XY paths from a prime router to
every router of the target partition (its column): the prime's row
segment toward the target column plus the full target column.  A bounced
packet returns YX (``Mesh.yx_path`` back to the prime) — the same
row/column corridor in the *opposite-direction* links — so forward lanes
and returning paths can never collide as long as concurrent primes share
no row and no column (Sec. III-E, Fig. 4).  The non-overlap and coverage
lemmas are checked by ``tests/lemmas.py`` on every FastPass cell of the
conformance matrix.
"""

from __future__ import annotations


class FastFlowEngine:
    """Launches and completes FastFlow traversals."""

    def __init__(self, net):
        self.net = net
        self.mesh = net.mesh
        self.forward_launched = 0
        self.bounced = 0
        self.returned = 0

    # ------------------------------------------------------------------
    #: slack allowed for first-fit scheduling of bounce departures (the
    #: round-trip budget that fits it is ``core.manager._geometry``'s)
    RETURN_SLACK = 16

    def launch_forward(self, pkt, prime: int, now: int) -> int:
        """Send ``pkt`` bufferlessly from ``prime`` to ``pkt.dst``.

        Consecutive packets from the same prime pipeline head-to-tail on
        the lane: they move at the same speed in issue order, so they can
        never collide — the per-link reservation windows double-check that.
        Returns the cycle the lane may issue the next packet (previous tail
        clear of the first link).
        """
        net = self.net
        path = self.mesh.xy_path(prime, pkt.dst)
        for k, (rid, port) in enumerate(path):
            net.link_for(rid, port).reserve_fp(now + k, now + k + pkt.size)
        dist = len(path)
        pkt.was_fastpass = True
        if pkt.fp_upgrade < 0:
            pkt.fp_upgrade = now
        pkt.hops += dist
        self.forward_launched += 1
        net.depart(now)
        net.schedule(now + dist, self._arrive_forward, pkt, prime)
        return now + pkt.size

    # ------------------------------------------------------------------
    def _arrive_forward(self, now: int, pkt, prime: int) -> None:
        net = self.net
        ni = net.nis[pkt.dst]
        queue = ni.ej[pkt.mclass]
        if queue.can_accept(pkt):
            # FastPass-Packets pre-empt an ongoing regular ejection (Qn 3):
            # the stalled ejection finishes after ours.
            router = net.routers[pkt.dst]
            stall = max(0, router.eject_busy_until - now)
            router.eject_busy_until = now + pkt.size + stall
            net.arrive(now)
            ni.eject(pkt, now)
            return
        # Full ejection queue: reserve it and bounce to the prime (Fig. 3).
        queue.reserve(pkt)
        self.bounced += 1
        obs = net.obs
        if obs is not None:
            obs.emit("bounced", now, pkt.pid, dst=pkt.dst, prime=prime)
        path = self.mesh.yx_path(pkt.dst, prime)
        # Returning packets from different rows of the partition can reach
        # the shared corridor at interleaved times; delay the departure to
        # the first collision-free launch window.
        start = self._first_fit(path, now, pkt.size)
        for k, (rid, port) in enumerate(path):
            net.link_for(rid, port).reserve_fp(start + k, start + k +
                                               pkt.size)
        pkt.hops += len(path)
        net.schedule(start + len(path), self._arrive_return, pkt, prime)

    def _first_fit(self, path, now: int, size: int) -> int:
        """Earliest start time with no reservation conflict on any link."""
        start = now
        for _ in range(self.RETURN_SLACK):
            ok = True
            for k, (rid, port) in enumerate(path):
                link = self.net.link_for(rid, port)
                if link.fp_conflict(start + k, start + k + size):
                    ok = False
                    break
            if ok:
                return start
            start += 1
        return start

    def _arrive_return(self, now: int, pkt, prime: int) -> None:
        self.returned += 1
        self.net.arrive(now)
        self.net.nis[prime].accept_bounced(pkt, now)
