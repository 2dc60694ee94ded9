#!/usr/bin/env python
"""Follow individual packets through FastPass with the packet tracer.

Runs a short, deliberately congested simulation with tiny ejection queues
(so bounces and dynamic-bubble drops actually happen), then prints the
complete event timeline of a few interesting packets: one that travelled
as a regular packet, one that was upgraded to a FastPass-Packet, and — if
the congestion produced one — one that bounced or was dropped and
regenerated.
"""

from repro import SimConfig, Simulation, SyntheticTraffic, get_scheme
from repro.obs.events import PacketTracer


def main() -> None:
    cfg = SimConfig(rows=4, cols=4, fastpass_slot_cycles=64,
                    ej_queue_pkts=1, inj_queue_pkts=2)
    sim = Simulation(cfg, get_scheme("fastpass", n_vcs=1),
                     SyntheticTraffic("uniform", 0.14, seed=13))
    sim.traffic.measure_window(0, 1 << 60)
    tracer = PacketTracer(sim.net)
    for _ in range(1500):
        sim.net.step()

    counts = tracer.counts()
    print("event totals:", dict(sorted(counts.items())), "\n")

    def first_with(kind):
        for pid, evs in tracer.events.items():
            kinds = {e.kind for e in evs}
            if kind in kinds and "ejected" in kinds:
                return pid
        return None

    shown = set()
    for label, kind in [("a regular delivery", "generated"),
                        ("an upgraded (FastPass) delivery", "upgraded"),
                        ("a bounced packet", "bounced"),
                        ("a dropped-and-regenerated request",
                         "regenerated")]:
        pid = first_with(kind)
        if pid is None or pid in shown:
            continue
        shown.add(pid)
        print(f"--- {label}")
        print(tracer.format_timeline(pid))
        print()


if __name__ == "__main__":
    main()
