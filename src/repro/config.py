"""Simulation configuration objects.

The defaults mirror Table II of the paper: 8x8 mesh, 1-cycle routers,
128-bit links (1 flit/cycle), virtual cut-through with a single packet per
VC, 5-flit buffers, and a mix of 1-flit and 5-flit packets.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.fault.plan import FaultPlan


@dataclass(frozen=True)
class SimConfig:
    """Static parameters of one simulation run.

    Attributes mirror the paper's Table II.  ``n_vns`` and ``n_vcs`` are the
    *per-input-port* virtual-network count and the per-VN virtual-channel
    count; schemes override them (e.g. FastPass uses ``n_vns=1`` because it
    needs no virtual networks).
    """

    rows: int = 8
    cols: int = 8
    n_vns: int = 6
    n_vcs: int = 2
    buffer_flits: int = 5          # flits per VC; single packet per VC (VCT)
    inj_queue_pkts: int = 4        # per-message-class injection queue depth
    ej_queue_pkts: int = 4         # per-message-class ejection queue depth
    router_latency: int = 1        # cycles through the router pipeline
    link_latency: int = 1          # cycles across a link
    seed: int = 1

    # Measurement windows (cycles).
    warmup_cycles: int = 1000
    measure_cycles: int = 4000
    drain_cycles: int = 4000       # cap on post-measurement drain

    # Deadlock watchdog: a run with no forward progress for this long while
    # packets are in flight is declared deadlocked.
    watchdog_cycles: int = 2000

    # FastPass specific -------------------------------------------------
    # Slot length K.  ``None`` means the paper's formula
    # (2 x #Hops) x #Inputs x #VCs; tests override with small values.
    fastpass_slot_cycles: int | None = None
    # Cycles to regenerate a dropped injection request from the local MSHR.
    mshr_regen_cycles: int = 4

    # Scheme-specific knobs (paper's Table II values) --------------------
    spin_detection_threshold: int = 128
    swap_duty_cycles: int = 1000
    drain_period_cycles: int = 64000
    pitstop_token_cycles: int = 8   # cycles the bypass token rests per router

    # Engine selection ---------------------------------------------------
    #: cycle-engine: ``"active"`` (active-set scalar loop, the default)
    #: or ``"naive"`` (the all-components sweep, for differential tests).
    #: The two are bit-identical by construction and differential test,
    #: so the engine choice is excluded from campaign cache keys.
    engine: str = "active"

    # Robustness surface ------------------------------------------------
    #: fault schedule for this run; ``None`` disables the injector entirely
    #: (the hot path then carries no fault checks beyond one None test).
    fault_plan: FaultPlan | None = None
    #: run ``check_invariants`` every N cycles (0 = off).  Expensive —
    #: meant for tests and debugging, not sweeps.
    paranoia: int = 0
    #: write a JSON post-mortem under ``<results>/diagnostics/`` when the
    #: watchdog fires.
    postmortem: bool = False
    #: audit buffered packets against the guaranteed-delivery bound.
    liveness_audit: bool = False
    #: explicit delivery bound override (0 = derive from the schedule
    #: geometry, or from the watchdog threshold for schedule-less schemes).
    liveness_bound_cycles: int = 0

    def __post_init__(self):
        if self.rows < 2 or self.cols < 2:
            raise ValueError("mesh must be at least 2x2")
        if self.n_vns < 1 or self.n_vcs < 1:
            raise ValueError("need at least one VN and one VC")
        if self.buffer_flits < 1:
            raise ValueError("buffers must hold at least one flit")
        for field_name in ("warmup_cycles", "measure_cycles",
                           "drain_cycles", "watchdog_cycles"):
            if getattr(self, field_name) < 0:
                raise ValueError(f"{field_name} must be non-negative")
        if self.fastpass_slot_cycles is not None \
                and self.fastpass_slot_cycles < 1:
            raise ValueError("FastPass slot must be positive")
        if self.engine not in ("active", "naive"):
            raise ValueError(
                f"unknown engine {self.engine!r}; "
                "choose from 'active', 'naive'")
        if self.paranoia < 0:
            raise ValueError("paranoia interval must be non-negative")
        if self.liveness_bound_cycles < 0:
            raise ValueError("liveness bound must be non-negative")
        if self.fault_plan is not None \
                and not isinstance(self.fault_plan, FaultPlan):
            raise TypeError("fault_plan must be a FaultPlan or None")

    @property
    def n_routers(self) -> int:
        return self.rows * self.cols

    @property
    def diameter(self) -> int:
        """Maximum number of hops between any two routers (minimal routing)."""
        return (self.rows - 1) + (self.cols - 1)

    @property
    def n_inputs(self) -> int:
        """Input ports per router (Local + N/E/S/W) in a mesh."""
        return 5

    @property
    def total_vcs(self) -> int:
        """VC slots per input port (across all VNs)."""
        return self.n_vns * self.n_vcs

    def fastpass_slot(self) -> int:
        """Slot length K per Sec. III-C (Qn 5), unless overridden."""
        if self.fastpass_slot_cycles is not None:
            return self.fastpass_slot_cycles
        return 2 * self.diameter * self.n_inputs * self.total_vcs

    def with_(self, **kwargs) -> "SimConfig":
        """Return a copy with the given fields replaced."""
        return replace(self, **kwargs)


@dataclass
class RunResult:
    """Aggregate statistics returned by a simulation run."""

    scheme: str
    injected: int = 0
    ejected: int = 0
    dropped: int = 0
    fastpass_delivered: int = 0
    regular_delivered: int = 0
    avg_latency: float = float("nan")
    p99_latency: float = float("nan")
    throughput: float = 0.0        # ejected packets / node / cycle (measured window)
    deadlocked: bool = False
    cycles: int = 0
    # FastPass latency split (Fig. 9): mean buffered vs bufferless time of
    # FastPass-Packets and mean latency of regular packets.
    fp_buffered_time: float = float("nan")
    fp_bufferless_time: float = float("nan")
    reg_latency: float = float("nan")
    # Robustness: packets delivered while / after faults were active, their
    # mean latency, and liveness-audit verdict (0 when auditing is off).
    degraded_delivered: int = 0
    degraded_latency: float = float("nan")
    liveness_violations: int = 0
    extra: dict = field(default_factory=dict)
