"""Packets and message classes.

The coherence protocol modelled is MOESI-Hammer-like (Table II): six message
classes, of which some are *sink* classes — classes whose ejection queues are
always consumable because receiving them never depends on another in-flight
message (Lemma 3 relies on this).
"""

from __future__ import annotations

from enum import IntEnum


class MessageClass(IntEnum):
    """Six message classes, one per virtual network in the 6-VN baselines."""

    REQUEST = 0     # coherence requests (GETS/GETX), 1 flit
    RESPONSE = 1    # data responses, 5 flits — sink class
    FORWARD = 2     # forwarded/intervention requests, 1 flit
    WRITEBACK = 3   # writeback data, 5 flits
    UNBLOCK = 4     # unblock/completion acks, 1 flit — sink class
    DMA = 5         # DMA / miscellaneous, 5 flits — sink class


N_CLASSES = 6

#: Classes that terminate a protocol transaction; their ejection queues can
#: always be consumed (paper Sec. III-C4, Lemma 3).
SINK_CLASSES = frozenset(
    {MessageClass.RESPONSE, MessageClass.UNBLOCK, MessageClass.DMA}
)

#: packet size in flits, indexed by class number (128-bit flits, 64B
#: data): 1-flit control classes, 5-flit data classes
_CLASS_FLITS = (1, 5, 1, 5, 1, 5)


def flits_for_class(mclass: int) -> int:
    """Packet size in flits for a message class (128-bit flits, 64B data)."""
    return _CLASS_FLITS[MessageClass(mclass)]


class Packet:
    """A network packet (virtual cut-through: one packet per VC).

    Timing fields (cycles):

    * ``gen_cycle`` — created by the traffic source,
    * ``net_entry`` — entered a router input buffer (left the NI),
    * ``eject_cycle`` — delivered into the destination ejection queue,
    * ``fp_upgrade`` — the cycle the packet was (last) upgraded to a
      FastPass-Packet, or -1 if it never used FastFlow.
    """

    __slots__ = (
        "pid",
        "src",
        "dst",
        "size",
        "mclass",
        "gen_cycle",
        "net_entry",
        "eject_cycle",
        "hops",
        "vn",
        "rejected",
        "fp_upgrade",
        "was_fastpass",
        "drop_count",
        "deflections",
        "txn",
        "fault_exposed",
        "measured",
    )

    _next_pid = 0

    def __init__(self, src: int, dst: int, mclass: int, gen_cycle: int,
                 size: int | None = None):
        self.pid = Packet._next_pid
        Packet._next_pid += 1
        self.src = src
        self.dst = dst
        self.mclass = mclass = int(mclass)
        self.size = size if size is not None else _CLASS_FLITS[mclass]
        self.gen_cycle = gen_cycle
        self.net_entry = -1
        self.eject_cycle = -1
        self.hops = 0
        self.vn = mclass            # default VN assignment: one per class
        self.rejected = False       # bounced FastPass-Packet (never droppable)
        self.fp_upgrade = -1
        self.was_fastpass = False
        self.drop_count = 0
        self.deflections = 0
        self.txn = None             # coherence transaction handle, if any
        self.fault_exposed = False  # generated/in flight while faults active
        self.measured = True

    # ------------------------------------------------------------------
    @property
    def latency(self) -> int:
        """End-to-end latency: generation to ejection."""
        return self.eject_cycle - self.gen_cycle

    @property
    def is_sink(self) -> bool:
        return self.mclass in SINK_CLASSES

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Packet(pid={self.pid}, {self.src}->{self.dst}, "
                f"cls={self.mclass}, size={self.size})")
