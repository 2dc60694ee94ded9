"""Network interfaces: per-message-class injection and ejection queues.

Matches the paper's NI model (Fig. 2/6): the injection and ejection buffers
keep one queue per message class even in the 0-VN configurations.  The
ejection queues support FastPass's pro-active *reservation* (Sec. III-C4,
Qn 3) and the injection request queue supports the *dynamic bubble*
dropping/regeneration mechanism (dropped requests are rebuilt from the
local MSHR after a small delay).

Each NI participates in the network's active sets: it is inject-active
while ``pending`` or any ``inj`` queue is non-empty, and consume-active
while any ``ej`` queue is non-empty or its attached processor model says
it has more to do (the consumer contract is on :meth:`NetworkInterface
.consume_step`).  The queue
occupancies feed the network-wide incremental counters (``pending_total``,
``inj_total``, ``limbo``), so every enqueue/dequeue below is paired with a
counter update.
"""

from __future__ import annotations

from collections import deque

from repro.network.packet import N_CLASSES, MessageClass


class EjectionQueue:
    """A bounded per-class ejection queue with FastPass reservations.

    A reservation earmarks the *next free slot* for a specific bounced
    FastPass-Packet: regular arrivals may not consume capacity that is
    spoken for, while the reserved packet may enter as soon as any physical
    slot is free.
    """

    __slots__ = ("q", "cap", "reservations")

    def __init__(self, cap: int):
        self.q = deque()
        self.cap = cap
        self.reservations: set[int] = set()

    def can_accept(self, pkt) -> bool:
        if pkt.pid in self.reservations:
            return len(self.q) < self.cap
        return len(self.q) + len(self.reservations) < self.cap

    def push(self, pkt) -> None:
        self.reservations.discard(pkt.pid)
        self.q.append(pkt)

    def reserve(self, pkt) -> None:
        self.reservations.add(pkt.pid)

    def __len__(self) -> int:
        return len(self.q)


class NetworkInterface:
    """Injection/ejection side of one node.

    * ``pending`` is the unbounded source queue (latency is charged from
      generation time, the standard open-loop methodology);
    * ``inj`` holds one bounded queue per message class;
    * ``ej`` holds one bounded queue per message class.

    (No ``__slots__`` here on purpose: several tests monkeypatch NI
    methods per instance, which needs a ``__dict__``.  The trace layer
    used to as well; it now subscribes to the event bus instead.)
    """

    def __init__(self, rid: int, cfg, net):
        self.id = rid
        self.cfg = cfg
        self.net = net
        self.router = net.routers[rid]   # co-located router (built first)
        self.pending = deque()
        self.inj = [deque() for _ in range(N_CLASSES)]
        self.ej = [EjectionQueue(cfg.ej_queue_pkts) for _ in range(N_CLASSES)]
        #: total packets across the ``inj`` queues (mirrors
        #: ``sum(len(q) for q in inj)``; audited by the paranoia checks)
        self.inj_count = 0
        self.inj_busy_until = 0
        #: active-engine skip bound: while ``pending`` is empty and the
        #: injection port is serialising, :meth:`inject_step` is provably a
        #: no-op (no refill, no round-robin advance) until this cycle —
        #: the cycle loop skips the call.  Reset whenever work arrives
        #: (:meth:`repro.network.network.Network.wake_inject`).
        self._inj_skip = 0
        self._inj_rr = 0
        self.consumer = None   # set by the traffic model
        # Statistics of the dynamic-bubble mechanism.
        self.dropped = 0
        self.regenerated = 0

    @property
    def consumer(self):
        return self._consumer

    @consumer.setter
    def consumer(self, value) -> None:
        self._consumer = value
        if value is not None:
            # One visit, so the model can say whether it wants more.
            self.net.wake_consume(self.id)

    # -- generation ------------------------------------------------------
    def source(self, pkt) -> None:
        """Accept a freshly generated packet from the traffic source."""
        net = self.net
        if net.fault_exposed:
            pkt.fault_exposed = True
        obs = net.obs
        if obs is not None:
            obs.emit("generated", pkt.gen_cycle, pkt.pid,
                     src=self.id, dst=pkt.dst, mclass=pkt.mclass)
        if pkt.dst == self.id:
            # Local delivery never enters the network, but the attached
            # processor/LLC model must still see the message.
            pkt.eject_cycle = pkt.gen_cycle + 1
            net.stats.record_ejected(pkt)
            if obs is not None:
                obs.emit("ejected", pkt.eject_cycle, pkt.pid,
                         dst=self.id, fastpass=pkt.was_fastpass,
                         measured=pkt.measured,
                         latency=pkt.eject_cycle - pkt.gen_cycle)
            if self._consumer is not None:
                self._consumer.on_local(self, pkt)
            return
        self.pending.append(pkt)
        net.pending_total += 1
        net.wake_inject(self.id)

    # -- injection -------------------------------------------------------
    def inject_step(self, now: int) -> None:
        net = self.net
        inj = self.inj
        # Refill the bounded per-class injection queues from the source.
        pending = self.pending
        if pending and pending[0].gen_cycle <= now:
            cap = self.cfg.inj_queue_pkts
            while pending and pending[0].gen_cycle <= now:
                pkt = pending[0]
                q = inj[pkt.mclass]
                if len(q) >= cap:
                    break
                q.append(pkt)
                pending.popleft()
                self.inj_count += 1
                net.inj_total += 1
                net.pending_total -= 1
        if self.inj_count == 0:
            # Nothing to inject; drop out of the active set unless the
            # source queue still holds work for later cycles.
            if not pending:
                net._inj_active.discard(self.id)
            return
        if self.inj_busy_until > now:
            if not pending:
                self._inj_skip = self.inj_busy_until
            return
        # Round-robin across classes; claim a free local-port VC slot.
        router = self.router
        local_slots = router.slots[0]
        inj_vcs = router._inj_vcs
        rr = self._inj_rr % N_CLASSES
        for k in range(N_CLASSES):
            cls = rr + k
            if cls >= N_CLASSES:
                cls -= N_CLASSES
            q = inj[cls]
            if not q:
                continue
            pkt = q[0]
            slot = None
            for vc in inj_vcs[pkt.vn]:
                s = local_slots[vc]
                if s.pkt is None and s.free_at <= now:
                    slot = s
                    break
            if slot is None:
                continue
            q.popleft()
            self.inj_count -= 1
            net.inj_total -= 1
            net.buffered += 1
            slot.pkt = pkt
            slot.ready_at = now + 1
            slot.free_at = 1 << 60
            router.admit(slot)
            pkt.net_entry = now
            pkt.rejected = False
            self.inj_busy_until = now + pkt.size
            self._inj_rr = cls + 1
            net.last_progress = now
            net.stats.injected += 1
            obs = net.obs
            if obs is not None:
                obs.emit("injected", now, pkt.pid,
                         src=self.id, dst=pkt.dst, vn=pkt.vn)
            break

    # -- ejection ----------------------------------------------------------
    def can_eject(self, pkt, now: int) -> bool:
        return self.ej[pkt.mclass].can_accept(pkt)

    def eject(self, pkt, now: int) -> None:
        pkt.eject_cycle = now + 1
        self.ej[pkt.mclass].push(pkt)
        net = self.net
        net.wake_consume(self.id)
        net.stats.record_ejected(pkt)
        obs = net.obs
        if obs is not None:
            obs.emit("ejected", pkt.eject_cycle, pkt.pid,
                     dst=self.id, fastpass=pkt.was_fastpass,
                     measured=pkt.measured,
                     latency=pkt.eject_cycle - pkt.gen_cycle)

    #: default ejection-drain bandwidth (packets/node/cycle) when no
    #: processor model is attached.  Finite, so ejection queues can fill
    #: under post-saturation bursts — the condition that triggers the
    #: paper's bounce/drop machinery (Fig. 13's dropped fraction).
    CONSUME_RATE = 2

    def consume_step(self, now: int) -> None:
        """Let the attached processor/LLC model drain the ejection queues.

        Without a consumer (pure synthetic traffic), up to ``CONSUME_RATE``
        packets are retired per cycle, round-robin over the classes —
        ejected packets are consumed almost immediately (as the paper
        observes) but not instantaneously.

        Consumer contract: ``consume(ni, now)`` returns ``False`` when it
        needs no further call until something wakes this NI — and the NI
        then leaves the consume active set.  Every ejection into ``ej``
        wakes it (:meth:`eject`, ``Router._try_eject``), as does
        attaching the consumer; for anything else (a timer of its own,
        say) the consumer calls :meth:`Network.wake_consume` itself —
        :class:`~repro.traffic.coherence.NodeModel` puts its
        service-queue due times on the event wheel.  Any other return
        value (``None`` from a consumer written before the contract)
        keeps the NI visited every cycle.
        """
        if self._consumer is not None:
            if self._consumer.consume(self, now) is False:
                self.net._con_active.discard(self.id)
            return
        budget = self.CONSUME_RATE
        ej = self.ej
        rr = self._inj_rr % N_CLASSES
        for k in range(N_CLASSES):
            cls = rr + k
            if cls >= N_CLASSES:
                cls -= N_CLASSES
            q = ej[cls].q
            while q and budget:
                q.popleft()
                budget -= 1
            if not budget:
                break
        if budget:
            # Budget left over means every ejection queue drained dry.
            self.net._con_active.discard(self.id)

    # -- dynamic bubble support (FastPass) ---------------------------------
    def make_bubble(self, now: int) -> bool:
        """Drop one droppable injection request to free a slot (Sec. III-C4).

        Droppable packets are injection *requests* that have never left the
        source and are not themselves bounced FastPass-Packets.  The dropped
        request is regenerated from the local MSHR after a small delay.
        Returns True if a slot was freed.
        """
        q = self.inj[MessageClass.REQUEST]
        for i, pkt in enumerate(q):
            if not pkt.rejected:
                del q[i]
                self.inj_count -= 1
                self.net.inj_total -= 1
                self.net.limbo += 1
                self.dropped += 1
                self.net.stats.dropped += 1
                pkt.drop_count += 1
                self.net.schedule(now + self.cfg.mshr_regen_cycles,
                                  self._regenerate, pkt)
                obs = self.net.obs
                if obs is not None:
                    obs.emit("dropped", now, pkt.pid,
                             src=self.id, drop_count=pkt.drop_count)
                return True
        return False

    def _regenerate(self, now: int, pkt) -> None:
        """Re-issue a dropped request from the MSHR (paper: the dropped
        packet never left the source, so regeneration is local and cheap).
        ``gen_cycle`` is kept, so latency stays charged from first issue."""
        self.regenerated += 1
        self.pending.appendleft(pkt)
        self.net.limbo -= 1
        self.net.pending_total += 1
        self.net.wake_inject(self.id)
        obs = self.net.obs
        if obs is not None:
            obs.emit("regenerated", now, pkt.pid, src=self.id)

    def accept_bounced(self, pkt, now: int) -> None:
        """Receive a bounced FastPass-Packet into the request injection
        queue, making a bubble if the queue is full (Fig. 3)."""
        q = self.inj[MessageClass.REQUEST]
        if len(q) >= self.cfg.inj_queue_pkts:
            if not self.make_bubble(now):
                # Every entry is a previously bounced packet; grow the queue
                # by one — physically this is the green-path slot freed by a
                # departing FastPass-Packet (Qn 2, scenario 2).
                pass
        pkt.rejected = True
        q.appendleft(pkt)
        self.inj_count += 1
        self.net.inj_total += 1
        self.net.wake_inject(self.id)
        obs = self.net.obs
        if obs is not None:
            obs.emit("bounce_returned", now, pkt.pid,
                     prime=self.id, dst=pkt.dst)

    # -- introspection ------------------------------------------------------
    def inj_occupancy(self) -> int:
        return self.inj_count
