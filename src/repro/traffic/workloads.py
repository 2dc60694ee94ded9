"""PARSEC / SPLASH-2 workload substitutes.

We cannot run x86 full-system benchmarks (gem5/Ruby); each benchmark is
replaced by a parameter preset for :class:`CoherenceTraffic` chosen to echo
its published communication character (see DESIGN.md §5):

* **Radix** — all-to-all key exchange: high intensity, no locality.
* **Canneal** — random-graph swaps: high intensity, irregular, large bursts.
* **FFT** — staged transposes: bursty all-to-all.
* **FMM** — tree traversal: moderate intensity, strong locality.
* **Lu_cb** — blocked factorization: low/moderate, very strong locality.
* **Streamcluster** — shared medoid data: hotspot-heavy.
* **Volrend** — ray casting: light traffic.
* **Barnes** — octree body interactions: moderate, irregular with locality.

The *shape* that matters for the paper's Figs. 10/12/13(b) is the relative
pressure each load places on the network, not instruction-level fidelity.
"""

from __future__ import annotations

from repro.traffic.coherence import CoherenceTraffic

WORKLOADS: dict[str, dict] = {
    # think times are calibrated so a 64-core run sits at the low-to-
    # moderate loads real full-system traffic produces (the paper's Fig. 10
    # average latencies are tens of cycles, i.e. below saturation), with
    # Radix/Canneal/FFT the heavy end and Volrend the light end.
    "Radix": dict(think=200, burst=5, locality=0.0, hotspot=0.0,
                  fwd_frac=0.10, wb_frac=0.20),
    "Canneal": dict(think=220, burst=6, locality=0.1, hotspot=0.05,
                    fwd_frac=0.15, wb_frac=0.25),
    "FFT": dict(think=260, burst=8, locality=0.0, hotspot=0.0,
                fwd_frac=0.05, wb_frac=0.15),
    "FMM": dict(think=300, burst=3, locality=0.45, hotspot=0.0,
                fwd_frac=0.10, wb_frac=0.10),
    "Lu_cb": dict(think=420, burst=2, locality=0.6, hotspot=0.0,
                  fwd_frac=0.05, wb_frac=0.10),
    "Streamcluster": dict(think=260, burst=4, locality=0.1, hotspot=0.35,
                          fwd_frac=0.10, wb_frac=0.10),
    "Volrend": dict(think=400, burst=2, locality=0.3, hotspot=0.0,
                    fwd_frac=0.05, wb_frac=0.05),
    "Barnes": dict(think=280, burst=3, locality=0.35, hotspot=0.05,
                   fwd_frac=0.15, wb_frac=0.15),
}


def deadlock_traffic(seed: int) -> CoherenceTraffic:
    """The adversarial protocol-pressure load (Table I's behavioural
    check, Fig. 13c): deep bursts, one-deep service queues, forwards."""
    return CoherenceTraffic(txns_per_core=60, seed=seed, mshrs=32, think=1,
                            burst=16, service_depth=1, service_latency=8,
                            fwd_frac=0.2)


def workload_traffic(name: str, txns_per_core: int = 200,
                     seed: int = 1) -> CoherenceTraffic:
    """Build the coherence traffic preset for a named benchmark."""
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; "
                         f"choose from {sorted(WORKLOADS)}")
    return CoherenceTraffic(txns_per_core=txns_per_core, seed=seed,
                            **WORKLOADS[name])
