"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import os
import signal

import pytest

from repro.config import SimConfig
from repro.network.network import Network
from repro.network.packet import Packet
from repro.network.routing import ROUTERS
from repro.network.topology import Mesh

#: per-test wall-clock ceiling (seconds) when pytest-timeout is absent.
#: CI installs pytest-timeout and passes ``--timeout`` explicitly; this
#: SIGALRM fallback keeps a wedged simulation from hanging a local run
#: where the plugin is not installed, and bounds each test of the mutant
#: ledger's runs (``tests/mutants/run.py``).  Set REPRO_TEST_TIMEOUT=0 to
#: disable.
_FALLBACK_TIMEOUT = int(os.environ.get("REPRO_TEST_TIMEOUT", "300"))


class PastCeiling(BaseException):
    """A test ran past the fallback ceiling.  Not an ``Exception``, so
    neither the ``except Exception`` handlers of the code under test nor
    Hypothesis's can swallow it."""


def pytest_configure(config):
    config._repro_alarm_timeout = (
        _FALLBACK_TIMEOUT
        if _FALLBACK_TIMEOUT > 0
        and not config.pluginmanager.hasplugin("timeout")
        and hasattr(signal, "SIGALRM")
        else 0)


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_call(item):
    limit = getattr(item.config, "_repro_alarm_timeout", 0)
    if not limit:
        yield
        return

    def _alarm(signum, frame):
        raise PastCeiling(
            f"test exceeded the {limit}s fallback ceiling "
            f"(REPRO_TEST_TIMEOUT)")

    # Again every ``limit`` seconds: a test that outlives one raise (in a
    # cleanup block, say) is interrupted again.
    old = signal.signal(signal.SIGALRM, _alarm)
    signal.setitimer(signal.ITIMER_REAL, limit, limit)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)


@pytest.fixture(autouse=True)
def _reset_pid_counter():
    """Keep packet ids deterministic per test."""
    Packet._next_pid = 0
    yield


@pytest.fixture(autouse=True)
def _campaign_isolation(tmp_path, monkeypatch):
    """Point the campaign layer and results tree at a per-test directory.

    Without this, any test that touches an experiment module would write
    cached results into the repository's ``results/`` tree and could see
    stale results from earlier tests.  ``REPRO_RESULTS_DIR`` covers the
    non-campaign writers too (fault post-mortems, metrics artifacts).
    """
    from repro.campaign import context
    monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path / "results"))
    context.configure(cache_dir=tmp_path / "cache",
                      campaign_dir=tmp_path / "campaigns",
                      enabled=True, jobs=None, campaign=None,
                      progress=None)
    yield
    context.reset()


#: the transport axis of the task lifecycle: in the caller's thread, one
#: forked child per lease over a pipe, workers pulling over loopback HTTP
TRANSPORTS = ("inline", "pool", "loopback")


class ExecutorFactory:
    """Builds the executor of one transport with ``CampaignExecutor``'s
    keywords, so a lifecycle test is written once and runs on all three.

    ``inline``/``pool`` are ``CampaignExecutor(processes=1|2)``.
    ``loopback`` is a ``FabricExecutor`` on its own two-worker
    :class:`~repro.fabric.executor.FabricSession`, which takes the cache
    and the retry policy; the deadline a pipe child gets from
    ``retry.timeout_s`` is the lease TTL there.  :meth:`close` ends the
    sessions — what exiting the CLI does — and runs at teardown too.
    """

    def __init__(self, transport: str):
        self.transport = transport
        self.sessions: list = []

    def __call__(self, cfg, cache=None, store=None, retry=None,
                 progress=None, **kwargs):
        if self.transport != "loopback":
            from repro.campaign.executor import CampaignExecutor
            return CampaignExecutor(
                cfg, cache=cache, store=store, retry=retry,
                processes=1 if self.transport == "inline" else 2,
                progress=progress, **kwargs)
        from repro.fabric.executor import FabricExecutor, FabricSession
        ttl = retry.timeout_s if retry and retry.timeout_s else 60.0
        session = FabricSession(cache=cache, retry=retry, workers=2,
                                lease_ttl_s=ttl)
        self.sessions.append(session)
        return FabricExecutor(cfg, session, cache=cache, store=store,
                              progress=progress, **kwargs)

    def close(self) -> None:
        while self.sessions:
            self.sessions.pop().close()


@pytest.fixture(params=TRANSPORTS)
def make_executor(request):
    factory = ExecutorFactory(request.param)
    yield factory
    factory.close()


@pytest.fixture
def tmp_cache_dir(tmp_path) -> "Path":
    """The run-cache directory the campaign layer uses in this test."""
    from repro.campaign import context
    return context.get_context().cache_dir


@pytest.fixture
def small_cfg() -> SimConfig:
    """4x4 mesh with short windows and a small FastPass slot: fast tests.

    ``paranoia`` runs the full invariant audit every 50 cycles, so any
    tier-1 test built on this fixture catches structural corruption at
    its source rather than as a downstream miscount.
    """
    return SimConfig(rows=4, cols=4, warmup_cycles=100, measure_cycles=400,
                     drain_cycles=1200, watchdog_cycles=800,
                     fastpass_slot_cycles=64, paranoia=50)


@pytest.fixture
def fastpass_sim(small_cfg):
    """Factory for ready-to-run FastPass simulations on the small mesh."""
    from repro.schemes import get_scheme
    from repro.sim.engine import Simulation
    from repro.traffic.synthetic import SyntheticTraffic

    def _make(pattern: str = "uniform", rate: float = 0.05,
              n_vcs: int = 2, cfg: SimConfig | None = None,
              seed: int = 1) -> Simulation:
        cfg = cfg or small_cfg
        return Simulation(cfg, get_scheme("fastpass", n_vcs=n_vcs),
                          SyntheticTraffic(pattern, rate, seed=seed))

    return _make


@pytest.fixture
def mesh4() -> Mesh:
    return Mesh(4, 4)


@pytest.fixture
def mesh8() -> Mesh:
    return Mesh(8, 8)


def make_network(cfg: SimConfig, routing: str = "xy",
                 scheme=None) -> Network:
    """A bare network with no scheme hooks (for unit tests)."""
    mesh = Mesh(cfg.rows, cfg.cols)
    router_cls = scheme.router_cls if scheme else None
    if scheme is not None:
        cfg = scheme.configure(cfg)
        net = Network(cfg, mesh, ROUTERS[scheme.routing],
                      router_cls=router_cls, scheme=scheme)
        scheme.build(net)
        return net
    return Network(cfg, mesh, ROUTERS[routing])


def park(net: Network, router, slot, pkt: Packet, ready_at: int = 0) -> None:
    """Hand-place ``pkt`` into ``slot`` with full engine bookkeeping.

    Tests that build network states by hand must keep the occupied list,
    the active set, and the ``buffered`` counter consistent — otherwise
    the active-set engine never steps the router and the paranoia audit
    (rightly) reports corruption."""
    slot.fill(pkt, ready_at)
    router.admit(slot)
    net.buffered += 1


def drain_packet(net: Network, pkt: Packet, max_cycles: int = 5000) -> bool:
    """Step the network until ``pkt`` is ejected (or give up)."""
    for _ in range(max_cycles):
        if pkt.eject_cycle >= 0:
            return True
        net.step()
    return pkt.eject_cycle >= 0


def inject_now(net: Network, src: int, dst: int, mclass: int = 0,
               size: int | None = None) -> Packet:
    """Hand a packet straight to the source NI."""
    pkt = Packet(src, dst, mclass, net.cycle, size=size)
    net.nis[src].source(pkt)
    return pkt
