"""Coordinator HTTP service tests: the work-queue API and the read-side
results service, exercised over real sockets (loopback, ephemeral port).
"""

from __future__ import annotations

import json
import subprocess
import sys
import urllib.request

import pytest

from repro.campaign.cache import result_to_json
from repro.campaign.executor import RetryPolicy
from repro.config import RunResult, SimConfig
from repro.fabric import protocol
from repro.fabric.coordinator import Coordinator
from repro.fabric.httpd import HttpError, http_json
from repro.sim.parallel import Point

CFG = SimConfig(rows=4, cols=4, warmup_cycles=100, measure_cycles=200,
                drain_cycles=400)
KEY = "a" * 16


def result(scheme: str = "fastpass") -> RunResult:
    return RunResult(scheme=scheme, injected=10, ejected=10,
                     avg_latency=12.0, p99_latency=20.0, throughput=0.02,
                     cycles=700)


@pytest.fixture
def coord():
    c = Coordinator(cache=None, retry=RetryPolicy(max_attempts=2,
                                                  backoff_s=0.0),
                    lease_ttl_s=30.0, campaign="svc-test")
    url = c.start("127.0.0.1", 0)
    try:
        yield c, url
    finally:
        c.stop()


def submit_one(c: Coordinator, key: str = KEY):
    c.submit([[(key, Point.make("fastpass", "uniform", 0.02))]], CFG,
             store=None)


class TestProbes:
    def test_healthz(self, coord):
        c, url = coord
        out = http_json("GET", f"{url}/healthz")
        assert out == {"ok": True, "state": "ok",
                       "version": protocol.PROTOCOL_VERSION}

    def test_unknown_endpoint_is_404(self, coord):
        _, url = coord
        with pytest.raises(HttpError) as exc:
            http_json("GET", f"{url}/nope")
        assert exc.value.status == 404

    def test_wrong_verb_on_known_endpoint_is_405(self, coord):
        """A 404 would read as "wrong URL" to a mis-configured worker."""
        _, url = coord
        for path in ("/lease", "/complete"):
            with pytest.raises(HttpError, match="takes POST") as exc:
                http_json("GET", url + path)
            assert exc.value.status == 405

    def test_coordinator_imports_no_experiments(self):
        """The fabric serves campaigns; it knows no experiment."""
        code = ("import repro.fabric.coordinator, sys; "
                "assert not [m for m in sys.modules "
                "if m.startswith('repro.experiments')]")
        subprocess.run([sys.executable, "-c", code], check=True,
                       timeout=60)

    def test_malformed_json_body_is_400(self, coord):
        _, url = coord
        req = urllib.request.Request(
            f"{url}/lease", data=b"{not json", method="POST",
            headers={"Content-Type": "application/json",
                     "Connection": "close"})
        with pytest.raises(urllib.error.HTTPError) as exc:
            urllib.request.urlopen(req, timeout=10)
        assert exc.value.code == 400


class TestWorkQueueApi:
    @pytest.mark.parametrize("field", sorted(protocol.environment()))
    def test_environment_mismatch_is_409(self, coord, field):
        """A worker on other source, protocol, interpreter, numpy or
        platform is refused before anything is granted, and the refusal
        names the field with both values; the matching worker leases."""
        c, url = coord
        submit_one(c)
        mine = protocol.environment()
        theirs = dict(mine, **{field: "other"})
        with pytest.raises(HttpError) as exc:
            http_json("POST", f"{url}/lease",
                      {"env": theirs, "worker": "w1"})
        assert exc.value.status == 409
        assert f"{field}: coordinator {mine[field]}, worker other" \
            in str(exc.value)
        assert c.queue.counters.granted == 0
        out = http_json("POST", f"{url}/lease",
                        {"env": mine, "worker": "w2"})
        assert out["state"] == protocol.STATE_OK
        assert c.queue.counters.granted == 1

    def test_empty_queue_leases_idle(self, coord):
        _, url = coord
        out = http_json("POST", f"{url}/lease",
                        {"env": protocol.environment(),
                         "worker": "w1"})
        assert out["state"] == protocol.STATE_IDLE

    def test_lease_complete_duplicate_over_http(self, coord):
        c, url = coord
        submit_one(c)
        out = http_json("POST", f"{url}/lease",
                        {"env": protocol.environment(),
                         "worker": "w1"})
        assert out["state"] == protocol.STATE_OK
        (lease,) = out["leases"]
        assert protocol.cfg_from_json(lease["cfg"]) == CFG
        completion = {"lease_id": lease["lease_id"], "worker": "w1",
                      "ok": True,
                      "results": [result_to_json(result())]}
        assert http_json("POST", f"{url}/complete",
                         completion)["disposition"] == "ok"
        # Idempotence: the same POST again is acknowledged, not re-settled.
        assert http_json("POST", f"{url}/complete",
                         completion)["disposition"] == "duplicate"
        assert c.collect([KEY])[KEY].avg_latency == 12.0

    def test_result_count_mismatch_retries_task(self, coord):
        c, url = coord
        submit_one(c)
        out = http_json("POST", f"{url}/lease",
                        {"env": protocol.environment(),
                         "worker": "w1"})
        (lease,) = out["leases"]
        bad = {"lease_id": lease["lease_id"], "worker": "w1", "ok": True,
               "results": []}
        assert http_json("POST", f"{url}/complete",
                         bad)["disposition"] == "requeued"
        # The task is leasable again and completes normally.
        out = http_json("POST", f"{url}/lease",
                        {"env": protocol.environment(),
                         "worker": "w2"})
        (lease,) = out["leases"]
        assert lease["attempt"] == 2
        good = {"lease_id": lease["lease_id"], "worker": "w2", "ok": True,
                "results": [result_to_json(result())]}
        assert http_json("POST", f"{url}/complete",
                         good)["disposition"] == "ok"

    def test_shutdown_state_reaches_workers(self, coord):
        c, url = coord
        c.shutdown()
        out = http_json("POST", f"{url}/lease",
                        {"env": protocol.environment(),
                         "worker": "w1"})
        assert out["state"] == protocol.STATE_SHUTDOWN


class TestResultsService:
    def test_status_shape_and_worker_stats(self, coord):
        c, url = coord
        submit_one(c)
        http_json("POST", f"{url}/lease",
                  {"env": protocol.environment(), "worker": "w1"})
        status = http_json("GET", f"{url}/status")
        assert status["campaign"] == "svc-test"
        assert status["counts"]["leased"] == 1
        assert status["queue"]["granted"] == 1
        assert "w1" in status["workers"]
        assert status["workers"]["w1"]["leases"] == 1

    def test_result_endpoint(self, coord):
        c, url = coord
        c.seed_results({KEY: result()})
        out = http_json("GET", f"{url}/result/{KEY}")
        assert out["key"] == KEY
        assert out["result"] == json.loads(json.dumps(
            result_to_json(result())))

    def test_result_malformed_key_is_400(self, coord):
        _, url = coord
        with pytest.raises(HttpError) as exc:
            http_json("GET", f"{url}/result/..%2Fetc")
        assert exc.value.status == 400

    def test_result_missing_key_is_404(self, coord):
        _, url = coord
        with pytest.raises(HttpError) as exc:
            http_json("GET", f"{url}/result/{'b' * 16}")
        assert exc.value.status == 404

    def test_metrics_prometheus_text(self, coord):
        c, url = coord
        submit_one(c)
        http_json("POST", f"{url}/lease",
                  {"env": protocol.environment(), "worker": "w1"})
        with urllib.request.urlopen(f"{url}/metrics", timeout=10) as resp:
            assert resp.headers["Content-Type"].startswith("text/plain")
            text = resp.read().decode()
        assert "fabric_granted_total 1" in text
        assert 'fabric_points{state="leased"} 1' in text
        assert "fabric_workers 1" in text


class TestFramingIntegrity:
    """Satellite hardening: a mangled request body must be rejected
    with an explicit 400 — never partially parsed, never settled."""

    def test_truncated_body_is_400(self, coord):
        _, url = coord
        from repro.chaos.transport import _raw_post
        from repro.fabric.httpd import body_checksum
        body = json.dumps({"worker": "w1", "env":
                           protocol.environment()}).encode()
        status, blob = _raw_post(f"{url}/lease", body[: len(body) // 2],
                                 declared_len=len(body),
                                 checksum=body_checksum(body),
                                 shut_wr=True)
        assert status == 400
        assert "truncated" in json.loads(blob)["error"]

    def test_corrupted_body_fails_checksum_with_400(self, coord):
        _, url = coord
        from repro.chaos.transport import _raw_post
        from repro.fabric.httpd import body_checksum
        body = json.dumps({"worker": "w1", "env":
                           protocol.environment()}).encode()
        mangled = bytearray(body)
        mangled[5] ^= 0x40
        status, blob = _raw_post(f"{url}/lease", bytes(mangled),
                                 declared_len=len(body),
                                 checksum=body_checksum(body))
        assert status == 400
        assert "checksum" in json.loads(blob)["error"]

    def test_mangled_completion_settles_nothing(self, coord):
        """The case that matters: a corrupted /complete is refused, the
        task stays leased, and the intact retry settles it exactly
        once."""
        c, url = coord
        from repro.chaos.transport import _raw_post
        from repro.fabric.httpd import body_checksum
        submit_one(c)
        resp = http_json("POST", f"{url}/lease", {
            "env": protocol.environment(), "worker": "w1"})
        lease = resp["leases"][0]
        payload = {"lease_id": lease["lease_id"], "worker": "w1",
                   "ok": True, "results": [result_to_json(result())]}
        body = json.dumps(payload).encode()
        mangled = bytearray(body)
        mangled[-10] ^= 0x01
        status, _ = _raw_post(f"{url}/complete", bytes(mangled),
                              declared_len=len(body),
                              checksum=body_checksum(body))
        assert status == 400
        assert c.queue.counts()["leased"] == 1   # nothing settled
        out = http_json("POST", f"{url}/complete", payload)
        assert out["disposition"] == "ok"
        assert c.queue.counts()["done"] == 1


class TestDuplicatedDelivery:
    def test_duplicated_complete_settles_exactly_once(self, coord):
        """The chaos DUPLICATE fault deterministically reaches this
        path: the same completion delivered twice settles once and the
        second delivery reports 'duplicate'."""
        c, url = coord
        submit_one(c)
        resp = http_json("POST", f"{url}/lease", {
            "env": protocol.environment(), "worker": "w1"})
        payload = {"lease_id": resp["leases"][0]["lease_id"],
                   "worker": "w1", "ok": True,
                   "results": [result_to_json(result())]}
        first = http_json("POST", f"{url}/complete", payload)
        second = http_json("POST", f"{url}/complete", payload)
        assert first["disposition"] == "ok"
        assert second["disposition"] == "duplicate"
        assert c.queue.counts()["done"] == 1
        assert c.queue.counters.completed == 1
        assert c.queue.counters.duplicates == 1


class TestChaosSurface:
    def test_worker_chaos_totals_reach_status_and_metrics(self, coord):
        c, url = coord
        http_json("POST", f"{url}/lease", {
            "env": protocol.environment(), "worker": "w1",
            "chaos": {"drop": 3, "reset": 1}})
        http_json("POST", f"{url}/lease", {
            "env": protocol.environment(), "worker": "w2",
            "chaos": {"drop": 2}})
        status = http_json("GET", f"{url}/status")
        assert status["chaos"] == {"drop": 5, "reset": 1}
        req = urllib.request.Request(f"{url}/metrics")
        text = urllib.request.urlopen(req, timeout=10).read().decode()
        assert 'fabric_chaos_injected_total{kind="drop"} 5' in text

