"""Physical links with serialization and FastPass reservation windows.

A link carries one flit per cycle (128 bits, Table II).  Regular packets
occupy the link for ``size`` cycles.  FastFlow traversals reserve precise
time windows on each link of their lane; regular transfers must not overlap
a reservation, and an in-flight regular transfer that an incoming
reservation overlaps is *pre-empted* (its remaining flits are stalled, which
we model by pushing its completion time back — Sec. III-C5's lookahead
suppression).
"""

from __future__ import annotations


class ReservationConflict(Exception):
    """Two FastFlow reservations overlapped: the non-overlap invariant of
    the lane schedule was violated (this is a bug, never expected)."""


class Link:
    """A unidirectional channel between two routers."""

    __slots__ = (
        "src", "src_port", "dst", "dst_port",
        "busy_until", "fp_windows", "inflight",
        "util_flits", "fp_flits", "dirty_sink",
    )

    def __init__(self, src: int, src_port: int, dst: int, dst_port: int):
        self.src = src
        self.src_port = src_port
        self.dst = dst
        self.dst_port = dst_port
        self.busy_until = 0
        #: sorted list of (start, end) FastFlow reservations, pruned lazily
        self.fp_windows: list[tuple[int, int]] = []
        #: in-flight regular transfer: [dst_slot, src_slot, end_cycle] or None
        self.inflight = None
        #: cumulative flit-cycles carried: regular traffic / FastFlow lanes
        self.util_flits = 0
        self.fp_flits = 0
        #: SoA-kernel hook: a shared list this link appends itself to when
        #: a reservation mutates timers behind the kernel's arrays (FastFlow
        #: pre-emption below).  ``None`` — and therefore free — on the
        #: scalar engines.
        self.dirty_sink = None

    # ------------------------------------------------------------------
    def prune(self, now: int) -> None:
        """Drop expired reservation windows."""
        if self.fp_windows and self.fp_windows[0][1] <= now:
            self.fp_windows = [w for w in self.fp_windows if w[1] > now]
        if self.inflight is not None and self.inflight[2] <= now:
            self.inflight = None

    def fp_conflict(self, start: int, end: int) -> bool:
        """Would a regular transfer over [start, end) hit a reservation?"""
        for ws, we in self.fp_windows:
            if ws < end and start < we:
                return True
        return False

    def reserve_fp(self, start: int, end: int) -> None:
        """Reserve [start, end) for a FastFlow head+body.

        Raises :class:`ReservationConflict` if it overlaps another FastFlow
        window (lane non-overlap violated).  Pre-empts any overlapping
        in-flight regular transfer by delaying it.
        """
        for ws, we in self.fp_windows:
            if ws < end and start < we:
                raise ReservationConflict(
                    f"link {self.src}->{self.dst}: [{start},{end}) overlaps "
                    f"[{ws},{we})")
        self.fp_windows.append((start, end))
        self.fp_flits += end - start
        if self.dirty_sink is not None:
            # The window (and any pre-emption below) changes state the SoA
            # kernel mirrors in arrays; queue this link for a resync.
            self.dirty_sink.append(self)
        if self.inflight is not None:
            dst_slot, src_slot, t_end = self.inflight
            if t_end > start:
                delay = end - start
                dst_slot.ready_at += delay
                if src_slot is not None:
                    src_slot.free_at += delay
                self.inflight[2] = t_end + delay
                if self.busy_until > start:
                    self.busy_until += delay

    def start_transfer(self, now: int, size: int, dst_slot, src_slot) -> None:
        """Record a regular transfer of ``size`` flits starting at ``now``."""
        self.busy_until = now + size
        self.inflight = [dst_slot, src_slot, now + size]
        self.util_flits += size


class VCSlot:
    """One virtual channel: holds at most one packet (VCT, Table II).

    * ``ready_at`` — cycle at which the head flit is present and the packet
      may compete for the switch,
    * ``free_at`` — cycle at which the slot may be re-allocated by the
      upstream router (tail drained + credit returned),
    * ``retry_at``/``retry_pid`` — arbitration memo: the head packet
      (identified by pid, so a swapped-in packet never inherits it) has a
      proven lower bound on its earliest possible move and skips switch
      arbitration until then.  Topology/reroute changes clear it.
    * ``waiters`` — credit subscription: the upstream slots whose head
      failed arbitration because this VC was occupied (``None`` when
      nobody waits).  :meth:`vacate` — the only way a slot is emptied —
      tells them when the credit comes back.  A slot that is *refilled*
      without being vacated (FastPass green path, SPIN rotation, SWAP
      exchange) returns no credit and keeps its waiters.
    * ``owner`` — the router this slot belongs to (``None`` for a slot
      outside any router's VC array, e.g. MinBD's side buffer).
    """

    __slots__ = ("pkt", "ready_at", "free_at", "retry_at", "retry_pid",
                 "port", "vc", "gidx", "waiters", "owner")

    def __init__(self, port: int, vc: int, owner=None):
        self.pkt = None
        self.ready_at = 0
        self.free_at = 0
        self.retry_at = 0
        self.retry_pid = -1
        self.port = port
        self.vc = vc
        #: flat (router, port, vc) index into the SoA kernel's arrays,
        #: assigned at kernel attach; unused by the scalar engines
        self.gidx = -1
        self.waiters = None
        self.owner = owner

    def is_free(self, now: int) -> bool:
        return self.pkt is None and self.free_at <= now

    def vacate(self, free_at: int) -> None:
        """Empty the slot; its credit reaches upstream at ``free_at``.

        Every waiter's retry memo — and the wake cycle of its router, if
        parked — is lowered to ``free_at``, the first cycle the slot can
        be claimed.  ``retry_at`` is only a skip hint and a parked
        router's early step is a plain (replayed) no-op step, so a
        spurious wake — a stale waiter whose head has since left, a
        credit a competitor takes first, a ``free_at`` that FastFlow
        pre-emption pushes back afterwards — costs one arbitration and
        changes nothing.
        """
        self.pkt = None
        self.free_at = free_at
        waiters = self.waiters
        if waiters is not None:
            self.waiters = None
            for slot in waiters:
                if slot.retry_at > free_at:
                    slot.retry_at = free_at
                router = slot.owner
                if router._wake_at > free_at:   # 0 unless parked
                    router._wake_at = free_at

    def __repr__(self) -> str:  # pragma: no cover
        return f"VCSlot(port={self.port}, vc={self.vc}, pkt={self.pkt})"
