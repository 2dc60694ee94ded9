"""Unit tests for the SoA engine's gating and tables.

The bit-identity differentials live in
``tests/integration/test_engine_equivalence.py``; this file covers the
pieces around the kernel: availability gating (``EngineUnavailable``
with the ``[soa]`` install hint), config validation, the dense route
tables' full ``(dst, vn, esc)`` cross-check, and the campaign executors'
folding of SoA-engined points into replica batches that share one
dense-table build.
"""

import pytest

from repro.config import SimConfig
from repro.schemes import get_scheme
from repro.sim import soa
from repro.sim.engine import Simulation
from repro.traffic.synthetic import SyntheticTraffic


def _cfg(**over):
    base = dict(rows=4, cols=4, warmup_cycles=50, measure_cycles=150,
                drain_cycles=600, fastpass_slot_cycles=64)
    base.update(over)
    return SimConfig(**base)


def _sim(scheme="fastpass", pattern="uniform", rate=0.1, seed=7,
         cfg=None, **kwargs):
    return Simulation(cfg or _cfg(engine="soa"),
                      get_scheme(scheme, **kwargs),
                      SyntheticTraffic(pattern, rate, seed=seed))


class TestAvailability:
    def test_available_with_numpy(self):
        assert soa.soa_available()
        assert soa.best_engine() == "soa"
        soa.require_numpy()   # does not raise

    def test_unavailable_raises_with_install_hint(self, monkeypatch):
        monkeypatch.setattr(soa, "_FORCE_UNAVAILABLE", True)
        assert not soa.soa_available()
        assert soa.best_engine() == "active"
        with pytest.raises(soa.EngineUnavailable, match=r"\[soa\]"):
            soa.require_numpy()

    def test_simulation_build_raises_when_unavailable(self, monkeypatch):
        monkeypatch.setattr(soa, "_FORCE_UNAVAILABLE", True)
        with pytest.raises(soa.EngineUnavailable):
            _sim()

    def test_scalar_engines_unaffected(self, monkeypatch):
        monkeypatch.setattr(soa, "_FORCE_UNAVAILABLE", True)
        sim = _sim(cfg=_cfg(engine="active"))
        assert sim.engine_used == "active"
        assert sim.run().ejected > 0


class TestConfigValidation:
    def test_engine_names_validated(self):
        for name in ("active", "naive", "soa"):
            assert SimConfig(engine=name).engine == name
        with pytest.raises(ValueError, match="engine"):
            SimConfig(engine="vector")


class TestFallbackReason:
    def test_supported_schemes_have_no_reason(self):
        for name in sorted(soa.SUPPORTED_SCHEMES):
            assert soa.fallback_reason(_cfg(), get_scheme(name)) is None

    def test_unsupported_scheme_reported(self):
        reason = soa.fallback_reason(_cfg(), get_scheme("spin"))
        assert reason is not None and "spin" in reason

    def test_fault_plan_reported(self):
        from repro.fault.plan import LINK_FLAP, FaultEvent, FaultPlan
        plan = FaultPlan(events=(FaultEvent(LINK_FLAP, at=10, router=1,
                                            port=2, duration=5),),
                         seed=1)
        cfg = _cfg().with_(fault_plan=plan)
        reason = soa.fallback_reason(cfg, get_scheme("fastpass"))
        assert reason is not None and "fault" in reason


class TestDenseTables:
    @pytest.mark.parametrize("scheme,kwargs",
                             [("baseline", {}), ("fastpass", {}),
                              ("fastpass", {"n_vcs": 2}),
                              ("escapevc", {})])
    def test_full_product_matches_memos(self, scheme, kwargs):
        from repro.sim.soa.tables import verify_tables
        sim = _sim(scheme, **kwargs)
        kernel = sim.net.soa
        checked = verify_tables(sim.net, kernel.tables)
        t = kernel.tables
        assert checked == t.R * t.R * sim.net.cfg.n_vns * t.E

    def test_rectangular_mesh(self):
        from repro.sim.soa.tables import verify_tables
        sim = _sim("escapevc", cfg=_cfg(rows=3, cols=5, engine="soa"))
        assert verify_tables(sim.net, sim.net.soa.tables) > 0

    def test_tables_are_int64(self):
        """The flat-index arithmetic assumes int64 throughout; a silent
        dtype downgrade would reintroduce the overflow this guard
        exists to catch."""
        import numpy as np
        t = _sim("fastpass", n_vcs=2).net.soa.tables
        for name in ("dport_base", "mv_plo", "mv_phi"):
            assert getattr(t, name).dtype == np.int64, name

    def test_flat_index_bound_at_int64_boundary(self):
        """The guard trips exactly when ``R*5*V`` reaches ``int64 max``
        and returns the bound just below it."""
        import numpy as np
        from repro.sim.soa.tables import flat_index_bound
        assert flat_index_bound(16, 3) == 16 * 5 * 3
        lim = int(np.iinfo(np.int64).max)
        r = lim // (5 * 7)
        assert flat_index_bound(r, 7) == r * 5 * 7
        with pytest.raises(OverflowError, match="overflows int64"):
            flat_index_bound(r + 1, 7)


class TestCampaignIntegration:
    def test_executor_folds_soa_points(self, tmp_path):
        from repro.campaign.executor import CampaignExecutor
        assert CampaignExecutor(_cfg(engine="active")).auto_batch
        assert CampaignExecutor(_cfg(engine="soa")).auto_batch

    def test_fabric_executor_folds_soa_points(self):
        from repro.fabric.executor import FabricExecutor
        assert FabricExecutor(_cfg(engine="soa"), None).auto_batch
        assert FabricExecutor(_cfg(engine="active"), None).auto_batch

    def test_replica_batch_kernels_share_one_table_build(self):
        """Direct construction with engine="soa" attaches a standalone
        kernel per replica — private state arrays, one memoised
        dense-table build — and ``engine_used`` attributes each result
        to the kernel."""
        from repro.sim.batch.engine import ReplicaBatch
        batch = ReplicaBatch(_cfg(engine="soa"), "fastpass", "uniform",
                             0.05, [3, 5], scheme_kwargs={"n_vcs": 2})
        k0, k1 = (s.net.soa for s in batch.sims)
        assert k0 is not None and k1 is not None and k0 is not k1
        assert k0.tables is k1.tables
        assert k0.s_has is not k1.s_has and k0.s_has.base is None
        results = batch.run()
        assert all(r.ejected > 0 for r in results)
        assert all(r.engine_used == "soa" for r in results)
