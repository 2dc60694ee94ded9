"""Ablations of FastPass's design choices (DESIGN.md §7).

Not a paper figure, but the design decisions the paper fixes a priori are
worth regenerating:

* **VC count** (the paper evaluates 1/2/4 VCs): more VCs help latency.
* **Slot length K**: the paper's formula is conservative; shorter slots
  rotate lane coverage faster, longer slots amortize switching — the bench
  sweeps K around the formula value.
* **Lanes on/off**: FastPass against its own regular network (the plain
  0-VN baseline), isolating what the lanes contribute.
"""

from repro.config import SimConfig
from repro.experiments.common import cached_points
from repro.sim.parallel import Point
from repro.sim.workload import Synthetic
from benchmarks.conftest import report


def _cfg(**kw):
    base = dict(rows=8, cols=8, warmup_cycles=300, measure_cycles=1200,
                drain_cycles=2000)
    base.update(kw)
    return SimConfig(**base)


def bench_vc_count(once, benchmark):
    def sweep():
        counts = (1, 2, 4)
        results = cached_points(
            [Point("fastpass", Synthetic("transpose", 0.12), {"n_vcs": vcs})
             for vcs in counts], _cfg())
        return [(vcs, res.avg_latency,
                 res.fastpass_delivered / max(1, res.ejected))
                for vcs, res in zip(counts, results)]

    rows = once(sweep)
    text = "\n".join(f"  VC={v}: avg latency {lat:7.1f}  lane share {fs:.2f}"
                     for v, lat, fs in rows)
    report("Ablation — FastPass VC count (transpose @ 0.12)", text)
    benchmark.extra_info["rows"] = rows
    lat = {v: l for v, l, _ in rows}
    assert lat[4] <= lat[1] * 1.1       # more VCs never hurt much


def bench_slot_length(once, benchmark):
    def sweep():
        formula = _cfg(n_vns=1, n_vcs=4).with_(n_vns=1).fastpass_slot()
        point = Point("fastpass", Synthetic("transpose", 0.14), {"n_vcs": 4})
        rows = []
        # K is a config field, so every slot length is its own cfg (and
        # its own cached_points call)
        for k in (formula // 4, formula, formula * 2):
            (res,) = cached_points([point], _cfg(fastpass_slot_cycles=k))
            rows.append((k, res.avg_latency,
                         res.fastpass_delivered / max(1, res.ejected)))
        return rows

    rows = once(sweep)
    text = "\n".join(f"  K={k:5d}: avg latency {lat:7.1f}  lane share "
                     f"{fs:.2f}" for k, lat, fs in rows)
    report("Ablation — slot length K (paper formula = middle row)", text)
    benchmark.extra_info["rows"] = rows
    for _k, lat, _fs in rows:
        assert lat == lat and lat > 0


def bench_lanes_contribution(once, benchmark):
    def pair():
        return cached_points(
            [Point("fastpass", Synthetic("transpose", 0.14), {"n_vcs": 4}),
             Point("baseline", Synthetic("transpose", 0.14),
                   {"n_vns": 1, "n_vcs": 4})],
            _cfg())

    fp, plain = once(pair)
    report("Ablation — lanes on vs off (same 0-VN router, 4 VCs)",
           f"  with lanes   : {fp.avg_latency:7.1f} cycles "
           f"(lane share {fp.fastpass_delivered / max(1, fp.ejected):.2f})\n"
           f"  without lanes: {plain.avg_latency:7.1f} cycles")
    benchmark.extra_info["with_lanes"] = fp.avg_latency
    benchmark.extra_info["without_lanes"] = plain.avg_latency
    assert fp.avg_latency <= plain.avg_latency * 1.05
