"""Round-trip tests for the fabric wire format.

The bit-identity guarantee of the fabric rests on these encodings being
lossless: a config, point, or result that crosses the HTTP boundary must
reconstruct exactly — including the awkward cases (FaultPlan inside
SimConfig, NaN metric values, replica seeds in point meta).
"""

from __future__ import annotations

import dataclasses
import json
import math

from repro.campaign import queue as q
from repro.campaign.cache import result_from_json, result_to_json
from repro.config import RunResult, SimConfig
from repro.fabric import protocol
from repro.fault.plan import fault_storm, link_cut
from repro.sim.parallel import Point
from repro.sim.workload import Synthetic


class TestConfig:
    def test_cfg_round_trip(self):
        cfg = SimConfig(rows=4, cols=4, warmup_cycles=100,
                        measure_cycles=300, drain_cycles=800)
        assert protocol.cfg_from_json(protocol.cfg_to_json(cfg)) == cfg

    def test_cfg_json_is_json(self):
        cfg = SimConfig(rows=8, cols=8)
        json.dumps(protocol.cfg_to_json(cfg))    # must not raise

    def test_fault_plan_rides_as_token(self):
        plan = fault_storm(rate=1e-4, start=100, stop=500, seed=3)
        cfg = SimConfig(rows=4, cols=4, fault_plan=plan)
        blob = protocol.cfg_to_json(cfg)
        assert isinstance(blob["fault_plan"], str)
        back = protocol.cfg_from_json(blob)
        assert back.fault_plan == plan
        assert back == cfg

    def test_link_cut_plan_round_trip(self):
        cfg = SimConfig(rows=4, cols=4,
                        fault_plan=link_cut(5, 2, at=1000))
        back = protocol.cfg_from_json(protocol.cfg_to_json(cfg))
        assert back.fault_plan.events == cfg.fault_plan.events


class TestItems:
    def test_points_round_trip(self):
        items = [
            ("k0", Point("fastpass", Synthetic("uniform", 0.02))),
            ("k1", Point("baseline_1cy", Synthetic("transpose", 0.10),
                         {"fastpass_slot_cycles": 32})),
            ("k2", Point.make_seeded("fastpass", "uniform", 0.02, seed=7)),
            ("k3", Point.make_app("fastpass", "fft", txns=100, seed=2)),
        ]
        blob = json.loads(json.dumps(protocol.items_to_json(items)))
        assert protocol.items_from_json(blob) == items


class TestLease:
    def test_lease_to_json_shape(self):
        items = [("k0", Point("fastpass", Synthetic("uniform", 0.02)))]
        task = q.Task(tid="k0", items=items,
                      cfg=SimConfig(rows=4, cols=4))
        lq = q.LeaseQueue(lease_ttl_s=42.0)
        lq.add(task)
        (lease,) = lq.lease("w1", now=100.0)
        blob = protocol.lease_to_json(lease)
        assert blob["lease_id"] == lease.lease_id
        assert blob["ttl_s"] == 42.0
        assert blob["attempt"] == 1
        assert protocol.items_from_json(blob["items"]) == items
        assert protocol.cfg_from_json(blob["cfg"]) == SimConfig(rows=4,
                                                                cols=4)


class TestResults:
    def test_result_json_round_trips_nan(self):
        """Undefined latencies ride as NaN; Python's json emits/reads
        them (non-strict JSON) on both ends of the loopback wire."""
        res = RunResult(scheme="fastpass", injected=0, ejected=0,
                        extra={"note": "drained"})
        wire = json.loads(json.dumps(result_to_json(res)))
        back = result_from_json(wire)
        assert math.isnan(back.avg_latency)
        assert math.isnan(back.p99_latency)
        assert back.extra == res.extra
        assert dataclasses.asdict(
            dataclasses.replace(back, avg_latency=0.0, p99_latency=0.0,
                                fp_buffered_time=0.0,
                                fp_bufferless_time=0.0, reg_latency=0.0,
                                degraded_latency=0.0)) == \
            dataclasses.asdict(
            dataclasses.replace(res, avg_latency=0.0, p99_latency=0.0,
                                fp_buffered_time=0.0,
                                fp_bufferless_time=0.0, reg_latency=0.0,
                                degraded_latency=0.0))

    def test_result_round_trip_is_exact(self):
        res = RunResult(scheme="fastpass", injected=1200, ejected=1199,
                        avg_latency=13.5703125, p99_latency=41.0,
                        throughput=0.019999, cycles=1200,
                        fp_buffered_time=3.25, fp_bufferless_time=9.75,
                        reg_latency=15.125, degraded_latency=0.0,
                        extra={"metrics": {"path": "metrics/x.json"},
                               "batched": True})
        back = result_from_json(json.loads(json.dumps(
            result_to_json(res))))
        assert back == res
