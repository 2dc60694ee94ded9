"""Integration: the campaign fabric is a transparent executor.

What only the HTTP transport can show:

* a loopback fabric run (coordinator + pulling worker subprocesses) is
  **bit-identical**, field for field, to the pipe pool and to in-process
  execution on a mix of scalar points and a seed fold;
* an expired lease (a zombie worker that never reports) is observably
  re-executed with no result drift.

What every transport must do — crash isolation, retry, deadlines,
interrupt -> resume, cache reuse — is asserted once over the transport
axis in ``tests/unit/test_campaign_executor.py`` and
``tests/integration/test_campaign_resume.py``.
"""

from __future__ import annotations

import dataclasses
import threading
import time

import pytest

from repro.campaign import RetryPolicy, run_points
from repro.config import SimConfig
from repro.fabric.coordinator import Coordinator
from repro.fabric.executor import FabricExecutor, FabricSession
from repro.fabric.httpd import http_json
from repro.fabric.worker import FabricWorker
from repro.fabric import protocol
from repro.sim.parallel import Point, grid


@pytest.fixture
def sweep_cfg() -> SimConfig:
    return SimConfig(rows=4, cols=4, warmup_cycles=100, measure_cycles=300,
                     drain_cycles=800, fastpass_slot_cycles=64)


@pytest.fixture
def session():
    with FabricSession(workers=2) as live:
        yield live


#: 8 scalar points plus 4 seed replicas of one point — the replicas fold
#: into a single lock-step batch task on both sides of the differential.
POINTS = grid([("escapevc", {}), ("fastpass", {"n_vcs": 2})],
              ["uniform", "transpose"], [0.02, 0.05]) + \
    [Point.make_seeded("fastpass", "uniform", 0.03, seed=s, n_vcs=2)
     for s in (1, 2, 3, 4)]


def _fields(res) -> tuple:
    d = dataclasses.asdict(res)
    return tuple(sorted((k, repr(v)) for k, v in d.items()))


class TestBitIdentity:
    def test_loopback_fabric_matches_local_executor(self, session,
                                                    sweep_cfg):
        """The headline invariant: 1 coordinator + 2 pulling workers
        produce byte-for-byte the results of the forked pool and of
        in-process execution."""
        ex = FabricExecutor(sweep_cfg, session)
        fabric = ex.run(POINTS)
        pool = run_points(POINTS, sweep_cfg, processes=2, cache=False,
                          store=False)
        inline = run_points(POINTS, sweep_cfg, processes=1, cache=False,
                            store=False)
        assert [_fields(r) for r in fabric] == [_fields(r) for r in pool]
        assert [_fields(r) for r in inline] == [_fields(r) for r in pool]
        assert ex.summary["computed"] == len(POINTS)
        assert ex.summary["failed"] == 0
        # Replica batching survived the trip over the wire.
        assert ex.summary["batched"] == 4
        assert ex.summary["fabric"]["loopback_workers"] == 2


class TestLeaseExpiry:
    def test_expired_lease_reexecutes_without_drift(self, sweep_cfg):
        """A zombie worker leases a point and never reports; after the
        TTL the lease expires, the point is re-leased to a live worker,
        and the final result is bit-identical to a local execution."""
        point = POINTS[0]
        key = "deadbeef"
        coord = Coordinator(cache=None,
                            retry=RetryPolicy(max_attempts=3,
                                              backoff_s=0.0),
                            lease_ttl_s=0.3)
        url = coord.start("127.0.0.1", 0)
        worker = FabricWorker(url, worker_id="survivor", poll_s=0.02)
        thread = threading.Thread(target=worker.run, daemon=True)
        try:
            coord.submit([[(key, point)]], sweep_cfg, store=None)
            out = http_json("POST", f"{url}/lease",
                            {"env": protocol.environment(),
                             "worker": "zombie"})
            assert out["state"] == protocol.STATE_OK
            time.sleep(0.4)                       # let the lease lapse
            thread.start()
            deadline = time.monotonic() + 60
            while not coord.resolved([key]) and \
                    time.monotonic() < deadline:
                time.sleep(0.02)
            assert coord.resolved([key]), "re-execution never completed"
            assert coord.queue.counters.expiries == 1
            assert coord.queue.counters.granted == 2
            assert coord.queue.counters.completed == 1
            fabric_res = coord.collect([key])[key]
        finally:
            coord.shutdown()
            thread.join(timeout=10)
            coord.stop()
        assert not thread.is_alive()
        from repro.campaign.worker import execute_point
        assert _fields(fabric_res) == _fields(execute_point(point,
                                                            sweep_cfg))
