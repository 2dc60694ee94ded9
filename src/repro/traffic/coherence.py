"""Closed-loop coherence-protocol traffic (MOESI-Hammer-like).

This is the substitute for the paper's gem5/Ruby full-system runs (see
DESIGN.md §5).  Each node hosts a *core* and an *LLC slice*:

* the core issues 1-flit ``REQUEST`` packets to the home slice of each
  address (hash-distributed, with a tunable locality/hotspot skew), limited
  by its MSHRs, and only retires a transaction when the 5-flit ``RESPONSE``
  arrives — responses are the *sink* class;
* the LLC slice consumes request ejections into a bounded service queue and,
  after a fixed service latency, injects the data response (or, for a
  configurable fraction, a 1-flit ``FORWARD`` to a third-party owner which
  then supplies the response — the three-hop transactions of MOESI Hammer);
* writebacks (``WRITEBACK``, fire-and-forget 5-flit) are generated for a
  fraction of transactions.

Because the service queue is bounded and responses compete with requests
for network resources, a 0-VN network with no escape mechanism exhibits
genuine protocol-level deadlock under this model — the behaviour FastPass
and Pitstop must (and do) resolve.

Both halves of a node follow the network's active-set contract — visited
only on a cycle in which something could have changed for them.  The LLC
side sleeps (``consume`` returns ``False``) while its ejection queues are
empty and wakes on an ejection or on a service entry coming due, which it
puts on the event wheel; the core side is visited by ``generate`` only
when it is in :attr:`CoherenceTraffic.issuers` — woken by its think-time
timer or by one of its transactions retiring.  Visits stay in ascending
node order within each phase, so the shared ``rng`` draws in the same
order as the visit-everything loop (which ``force_naive_step`` keeps).
"""

from __future__ import annotations

from collections import deque

import numpy as np

from repro.network.packet import MessageClass, Packet


class Transaction:
    __slots__ = ("tid", "core", "home", "issue_cycle", "complete_cycle")

    def __init__(self, tid: int, core: int, home: int, issue_cycle: int):
        self.tid = tid
        self.core = core
        self.home = home
        self.issue_cycle = issue_cycle
        self.complete_cycle = -1


class NodeModel:
    """Core + LLC slice of one node (registered as the NI consumer)."""

    def __init__(self, rid: int, traffic: "CoherenceTraffic"):
        self.id = rid
        self.traffic = traffic
        self.outstanding = 0
        self.issued = 0
        self.completed = 0
        self.next_issue = 0
        self.burst_left = 0
        #: cycle of the pending think-time wake on the event wheel
        self._issue_wake = -1
        #: LLC service queue: (ready_cycle, request_packet)
        self.service: deque = deque()

    # -- core side -------------------------------------------------------
    def issue_step(self, net, now: int) -> None:
        tr = self.traffic
        p = tr.params
        while (self.outstanding < p["mshrs"]
               and self.issued < tr.txns_per_core
               and self.next_issue <= now):
            home = tr.pick_home(self.id)
            txn = Transaction(tr.next_tid, self.id, home, now)
            tr.next_tid += 1
            pkt = Packet(self.id, home, MessageClass.REQUEST, now)
            pkt.txn = txn
            pkt.measured = tr.in_window(now)
            if pkt.measured:
                tr.measured_generated += 1
            self.outstanding += 1
            self.issued += 1
            # Burstiness: within a burst, issue back-to-back; between
            # bursts, wait out the think time.  The mean burst length is
            # ``burst``, so the per-core demand is roughly
            # burst / (burst + think) transactions per cycle.
            if self.burst_left > 0:
                self.burst_left -= 1
                self.next_issue = now + 1
            else:
                self.burst_left = int(tr.rng.geometric(1.0 / p["burst"]))
                self.next_issue = now + p["think"]
            net.nis[self.id].source(pkt)
            if p["wb_frac"] > 0 and tr.rng.random() < p["wb_frac"]:
                wb = Packet(self.id, home, MessageClass.WRITEBACK, now)
                wb.measured = tr.in_window(now)
                if wb.measured:
                    tr.measured_generated += 1
                net.nis[self.id].source(wb)
        # The loop stopped on one of its three conditions; sleep until
        # that one can change.  Out of quota: for good.  Out of MSHRs:
        # until a transaction retires (``CoherenceTraffic.retire``).
        # Thinking: until ``next_issue`` — by staying listed when that is
        # the next cycle, by a timer otherwise.
        if self.outstanding >= p["mshrs"] or self.issued >= tr.txns_per_core:
            tr.issuers.discard(self.id)
        elif self.next_issue > now + 1:
            tr.issuers.discard(self.id)
            if self._issue_wake != self.next_issue:
                self._issue_wake = self.next_issue
                net.schedule(self.next_issue, self._issue_due)

    def _issue_due(self, now: int) -> None:
        self.traffic.issuers.add(self.id)

    # -- LLC / consumer side ------------------------------------------------
    def on_local(self, ni, pkt) -> None:
        """Handle a message whose source and destination are this node
        (e.g. the forwarded owner is the requester itself): it never enters
        the network but still drives the protocol."""
        if pkt.mclass == MessageClass.RESPONSE:
            self.traffic.retire(pkt.txn, pkt.eject_cycle)
        elif pkt.mclass in (MessageClass.REQUEST, MessageClass.FORWARD):
            # Local hits bypass the bounded service queue (no NoC involved).
            self._serve_at(ni.net, pkt.eject_cycle +
                           self.traffic.params["service_latency"], pkt)

    def _serve_at(self, net, ready: int, req) -> None:
        """Queue ``req`` for service at ``ready`` and make sure this node
        is consumed then (events run before that cycle's consume phase)."""
        self.service.append((ready, req))
        if ready > net.cycle:
            net.schedule(ready, self._service_due, net)
        else:
            net.wake_consume(self.id)

    def _service_due(self, now: int, net) -> None:
        net.wake_consume(self.id)

    def consume(self, ni, now: int) -> bool:
        """One consume-phase visit.  Returns ``False`` — sleep until woken
        — unless requests are still waiting for room in the service queue;
        an ejection or a service entry coming due wakes the node."""
        tr = self.traffic
        p = tr.params
        # 1. Sink classes are always consumable (Lemma 3's premise).
        resp_q = ni.ej[MessageClass.RESPONSE].q
        while resp_q:
            tr.retire(resp_q.popleft().txn, now)
        for cls in (MessageClass.UNBLOCK, MessageClass.DMA,
                    MessageClass.WRITEBACK):
            ni.ej[cls].q.clear()
        # 2. Requests/forwards move into the bounded service queue.
        waiting = False
        for cls in (MessageClass.REQUEST, MessageClass.FORWARD):
            q = ni.ej[cls].q
            while q and len(self.service) < p["service_depth"]:
                self._serve_at(ni.net, now + p["service_latency"],
                               q.popleft())
            if q:
                waiting = True
        # 3. Serve: emit the response (or a forward for 3-hop transactions).
        while self.service and self.service[0][0] <= now:
            ready, req = self.service[0]
            txn = req.txn
            if req.mclass == MessageClass.REQUEST and \
                    tr.rng.random() < p["fwd_frac"]:
                owner = tr.pick_home(self.id)
                out = Packet(self.id, owner, MessageClass.FORWARD, now)
            else:
                dst = txn.core if txn is not None else req.src
                out = Packet(self.id, dst, MessageClass.RESPONSE, now)
            out.txn = txn
            out.measured = tr.in_window(now)
            if out.measured:
                tr.measured_generated += 1
            self.service.popleft()
            ni.source(out)
        return waiting


class CoherenceTraffic:
    """Closed-loop traffic driver (the paper's "Application Traffic")."""

    DEFAULTS = dict(
        mshrs=16,
        think=20,
        burst=4,
        service_latency=20,
        service_depth=8,
        fwd_frac=0.1,
        wb_frac=0.15,
        locality=0.0,     # fraction of requests kept within 2 hops
        hotspot=0.0,      # fraction of requests aimed at hotspot homes
        n_hotspots=4,
    )

    def __init__(self, txns_per_core: int = 200, seed: int = 1, **params):
        unknown = set(params) - set(self.DEFAULTS)
        if unknown:
            raise ValueError(f"unknown coherence params: {sorted(unknown)}")
        self.params = {**self.DEFAULTS, **params}
        self.txns_per_core = txns_per_core
        self.rng = np.random.default_rng(seed)
        self.next_tid = 0
        self.completed = 0
        self.measured_generated = 0
        self.measure_start = 0
        self.measure_end = 1 << 60
        self.nodes: list[NodeModel] = []
        #: ids of the nodes whose core side ``generate`` visits next
        self.issuers: set[int] = set()
        self._net = None
        self._hotspots: list[int] = []
        self._neighbourhood: list[list[int]] = []

    # ------------------------------------------------------------------
    def bind(self, net) -> None:
        self._net = net
        n = net.mesh.n_routers
        self.nodes = [NodeModel(rid, self) for rid in range(n)]
        self.issuers = set(range(n))
        for rid, node in enumerate(self.nodes):
            net.nis[rid].consumer = node
        step = max(1, n // self.params["n_hotspots"])
        self._hotspots = list(range(0, n, step))[: self.params["n_hotspots"]]
        mesh = net.mesh
        self._neighbourhood = [
            [d for d in range(n) if d != rid and mesh.hops(rid, d) <= 2]
            for rid in range(n)
        ]

    def measure_window(self, start: int, end: int) -> None:
        self.measure_start = start
        self.measure_end = end

    def in_window(self, now: int) -> bool:
        return self.measure_start <= now < self.measure_end

    def pick_home(self, core: int) -> int:
        n = self._net.mesh.n_routers
        p = self.params
        r = self.rng.random()
        if r < p["hotspot"] and self._hotspots:
            cand = self._hotspots[int(self.rng.integers(len(self._hotspots)))]
            if cand != core:
                return cand
        if r < p["hotspot"] + p["locality"] and self._neighbourhood[core]:
            near = self._neighbourhood[core]
            return near[int(self.rng.integers(len(near)))]
        d = int(self.rng.integers(n - 1))
        return d if d < core else d + 1

    # ------------------------------------------------------------------
    def generate(self, net, now: int) -> None:
        nodes = self.nodes
        if net.force_naive_step:
            for node in nodes:
                node.issue_step(net, now)
        elif self.issuers:
            # A sorted snapshot is the whole set: nothing wakes a core
            # during this phase (requests and writebacks never go to
            # their own node, so no transaction retires here).
            for rid in sorted(self.issuers):
                nodes[rid].issue_step(net, now)

    def retire(self, txn, cycle: int) -> None:
        """A response reached its requester: free the MSHR and let the
        core issue again."""
        if txn is not None and txn.complete_cycle < 0:
            txn.complete_cycle = cycle
            owner = self.nodes[txn.core]
            owner.outstanding -= 1
            owner.completed += 1
            self.completed += 1
            self.issuers.add(txn.core)

    def done(self) -> bool:
        return self.completed >= self.txns_per_core * len(self.nodes)

    @property
    def total_txns(self) -> int:
        return self.txns_per_core * len(self.nodes)
