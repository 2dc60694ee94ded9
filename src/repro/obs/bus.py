"""The observability event bus.

Components emit *events* — discrete facts about the simulation (a packet
was upgraded, a lane slot started, a fault activated) — and subscribers
(the metrics registry, the packet tracer, test spies) receive them as
plain callbacks.  The bus replaces the old monkey-patching tracer hooks:
emit points are explicit in the datapath and guarded by a single
``net.obs is None`` test, so a network without observability attached
pays nothing beyond that branch and a network with it attached pays only
for the kinds somebody actually subscribed to.

Subscriber signature::

    def on_event(cycle: int, pid: int, fields: dict) -> None

``pid`` is the packet id, or -1 for network-level events (lane slots,
prime rotations, faults).  ``fields`` carries the kind-specific payload;
subscribers must treat it as read-only (it may be shared between
subscribers of the same emission).

Event kinds emitted by the stock datapath (see DESIGN §11):

=================  ====================================================
kind               fields
=================  ====================================================
``generated``      src, dst, mclass
``injected``       src, dst, vn
``ejected``        dst, fastpass, measured, latency
``upgraded``       lane, prime, dst
``bounced``        dst, prime          (bounce decided at destination)
``bounce_returned`` prime, dst         (bounced packet back at prime)
``dropped``        src, drop_count     (dynamic-bubble drop)
``regenerated``    src                 (MSHR regeneration)
``lane_slot``      slot, phase, slot_end
``prime_rotation`` phase, primes
``fault``          kind, router, port  (activation and ``recovered``)
=================  ====================================================
"""

from __future__ import annotations

#: the event kinds the stock emit points produce; subscribing to other
#: kinds is allowed (custom schemes may emit their own).
KINDS = (
    "generated", "injected", "ejected", "upgraded", "bounced",
    "bounce_returned", "dropped", "regenerated", "lane_slot",
    "prime_rotation", "fault",
)


class EventBus:
    """Per-kind subscriber lists with a flat, allocation-light emit."""

    __slots__ = ("_subs", "emitted")

    def __init__(self):
        self._subs: dict[str, list] = {}
        #: total emissions that reached at least one subscriber
        self.emitted = 0

    # -- subscription ---------------------------------------------------
    def subscribe(self, kind: str, fn) -> None:
        """Register ``fn(cycle, pid, fields)`` for ``kind``."""
        self._subs.setdefault(kind, []).append(fn)

    def unsubscribe(self, kind: str, fn) -> None:
        subs = self._subs.get(kind)
        if subs is not None:
            try:
                subs.remove(fn)
            except ValueError:
                pass
            if not subs:
                del self._subs[kind]

    def subscriber_count(self, kind: str | None = None) -> int:
        if kind is not None:
            return len(self._subs.get(kind, ()))
        return sum(len(v) for v in self._subs.values())

    # -- emission -------------------------------------------------------
    def emit(self, kind: str, cycle: int, pid: int = -1, /,
             **fields) -> None:
        """Deliver one event to every subscriber of ``kind``.

        The first three parameters are positional-only, so ``fields`` may
        itself carry keys named ``kind``/``cycle``/``pid`` (the fault
        events use ``kind=`` for the fault kind).

        Emission never mutates simulation state — observability is
        result-neutral by construction, and the conformance matrix
        (``tests/matrix.py``) enforces it on every native cell.
        """
        subs = self._subs.get(kind)
        if subs:
            self.emitted += 1
            for fn in subs:
                fn(cycle, pid, fields)
