"""The fabric worker's retry branches, driven without a socket.

:class:`FabricWorker` talks to its coordinator only through
``repro.fabric.worker.http_json``; each test swaps that for a scripted
stand-in that answers every request with the next reply of its script
(a JSON payload, or an exception to raise) and records what was sent.
"""

from __future__ import annotations

import copy
import urllib.error

import pytest

from repro.fabric import protocol, worker as worker_mod
from repro.fabric.httpd import HttpError
from repro.fabric.worker import FabricWorker

URL = "http://coordinator.invalid"
SHUTDOWN = ("/lease", {"state": protocol.STATE_SHUTDOWN})
LEASE = ("/lease", {"state": protocol.STATE_OK,
                    "leases": [{"lease_id": "L1"}]})
REPORT = {"ok": True, "results": [{"scheme": "x"}], "artifacts": []}


class Script:
    """Stand-in for ``http_json``: replies in order, one per request,
    each to the path it names."""

    def __init__(self, *replies):
        self.replies = list(replies)
        self.sent: list[tuple[str, dict]] = []

    def __call__(self, method, url, payload=None, timeout=30.0):
        assert method == "POST" and url.startswith(URL)
        path = url[len(URL):]
        self.sent.append((path, copy.deepcopy(payload)))
        assert self.replies, f"unscripted request to {path}"
        expected, reply = self.replies.pop(0)
        assert path == expected, f"sent {path}, script expects {expected}"
        if isinstance(reply, BaseException):
            raise reply
        return reply

    def payloads(self, path: str) -> list[dict]:
        return [p for sent, p in self.sent if sent == path]


def run_worker(monkeypatch, script: Script, **kwargs) -> dict:
    monkeypatch.setattr(worker_mod, "http_json", script)
    worker = FabricWorker(URL, worker_id="w1", poll_s=0.0,
                          connect_backoff_s=0.001, **kwargs)
    worker._execute = lambda lease: dict(REPORT)
    stats = worker.run()
    assert not script.replies, "the worker stopped before its script"
    return stats


def test_mangled_lease_poll_polls_again(monkeypatch):
    script = Script(("/lease", HttpError(400, "checksum")), SHUTDOWN)
    stats = run_worker(monkeypatch, script)
    assert len(script.payloads("/lease")) == 2
    assert stats["connect_failures"] == 1


def test_mangled_completion_resends_it_intact(monkeypatch):
    script = Script(LEASE, ("/complete", HttpError(400, "truncated")),
                    ("/complete", {"disposition": "ok"}), SHUTDOWN)
    stats = run_worker(monkeypatch, script)
    first, second = script.payloads("/complete")
    assert first == second == dict(REPORT, lease_id="L1", worker="w1")
    assert stats["leases"] == 1 and stats["connect_failures"] == 1


def test_reset_completion_resends_it(monkeypatch):
    script = Script(LEASE, ("/complete", ConnectionResetError()),
                    ("/complete", {"disposition": "duplicate"}), SHUTDOWN)
    run_worker(monkeypatch, script)
    first, second = script.payloads("/complete")
    assert first == second


def test_environment_mismatch_raises(monkeypatch):
    script = Script(("/lease", HttpError(409, "code: coordinator a, "
                                              "worker b")))
    with pytest.raises(HttpError) as exc:
        run_worker(monkeypatch, script)
    assert exc.value.status == 409
    assert len(script.sent) == 1


def test_outage_past_patience_raises(monkeypatch):
    down = [("/lease", urllib.error.URLError("refused"))] * 1000
    script = Script(*down)
    monkeypatch.setattr(worker_mod, "http_json", script)
    worker = FabricWorker(URL, worker_id="w1", patience_s=0.02,
                          connect_backoff_s=0.001)
    with pytest.raises(ConnectionError, match="unreachable"):
        worker.run()
    assert 2 <= len(script.sent) < 1000
    assert worker.stats["connect_failures"] == len(script.sent)
