"""Unit tests for the replica-batch sharing layer: SharedStructures,
the process-level prewarm cache and the affinity-aware worker count."""

import os

import pytest

from repro.config import SimConfig
from repro.schemes import get_scheme
from repro.sim.batch.shared import (
    SharedStructures,
    clear_process_cache,
    default_workers,
    process_shared,
    structures_key,
    warm_process_cache,
)
from repro.sim.engine import build_network


@pytest.fixture(autouse=True)
def _clean_process_cache():
    clear_process_cache()
    yield
    clear_process_cache()


class TestSharedStructures:
    def test_first_network_donates_later_adopt(self, small_cfg):
        shared = SharedStructures()
        donor = build_network(small_cfg, get_scheme("escapevc"),
                              shared=shared)
        assert shared.mesh is donor.mesh
        assert shared.route_memos is not None
        adopter = build_network(small_cfg, get_scheme("escapevc"),
                                shared=shared)
        assert adopter.mesh is donor.mesh
        for a, b in zip(adopter.routers, donor.routers):
            assert a._mv_memo is b._mv_memo

    def test_claim_rejects_different_identity(self, small_cfg):
        shared = SharedStructures()
        build_network(small_cfg, get_scheme("escapevc"), shared=shared)
        with pytest.raises(ValueError, match="reused with"):
            build_network(small_cfg, get_scheme("fastpass", n_vcs=4),
                          shared=shared)

    def test_claim_rejects_different_mesh_size(self, small_cfg):
        shared = SharedStructures()
        build_network(small_cfg, get_scheme("escapevc"), shared=shared)
        bigger = small_cfg.with_(rows=8, cols=8)
        with pytest.raises(ValueError):
            build_network(bigger, get_scheme("escapevc"), shared=shared)

    def test_get_or_build_builds_once(self):
        shared = SharedStructures()
        calls = []
        a = shared.get_or_build("k", lambda: calls.append(1) or "v")
        b = shared.get_or_build("k", lambda: calls.append(1) or "other")
        assert a == b == "v"
        assert len(calls) == 1

    def test_fastpass_geometry_is_shared(self, small_cfg):
        shared = SharedStructures()
        donor = build_network(small_cfg, get_scheme("fastpass", n_vcs=2),
                              shared=shared)
        adopter = build_network(small_cfg,
                                get_scheme("fastpass", n_vcs=2),
                                shared=shared)
        assert adopter.fastpass.schedule is donor.fastpass.schedule
        assert adopter.fastpass._rt is donor.fastpass._rt

    def test_structures_key_uses_post_configure_config(self, small_cfg):
        scheme = get_scheme("fastpass", n_vcs=4)
        key = structures_key(scheme.configure(small_cfg), scheme)
        assert key != structures_key(
            scheme.configure(small_cfg.with_(rows=8)), scheme)


class TestProcessCache:
    def test_no_ambient_sharing_without_warm(self, small_cfg):
        scheme = get_scheme("escapevc")
        assert process_shared(scheme.configure(small_cfg), scheme) is None

    def test_warm_then_build_adopts(self, small_cfg):
        warmed = warm_process_cache(small_cfg, [("escapevc", ())])
        assert warmed == 1
        scheme = get_scheme("escapevc")
        shared = process_shared(scheme.configure(small_cfg), scheme)
        assert shared is not None and shared.route_memos is not None
        net = build_network(small_cfg, get_scheme("escapevc"))
        assert net.mesh is shared.mesh

    def test_warm_is_idempotent(self, small_cfg):
        assert warm_process_cache(small_cfg, [("escapevc", ())]) == 1
        assert warm_process_cache(small_cfg, [("escapevc", ())]) == 0

    def test_warm_distinguishes_scheme_kwargs(self, small_cfg):
        n = warm_process_cache(small_cfg, [
            ("fastpass", (("n_vcs", 2),)),
            ("fastpass", (("n_vcs", 4),)),
        ])
        assert n == 2

    def test_clear_empties_cache(self, small_cfg):
        warm_process_cache(small_cfg, [("escapevc", ())])
        clear_process_cache()
        scheme = get_scheme("escapevc")
        assert process_shared(scheme.configure(small_cfg), scheme) is None

    def test_explicit_shared_wins_over_cache(self, small_cfg):
        warm_process_cache(small_cfg, [("escapevc", ())])
        mine = SharedStructures()
        net = build_network(small_cfg, get_scheme("escapevc"),
                            shared=mine)
        assert mine.mesh is net.mesh


class TestDefaultWorkers:
    def test_respects_affinity_mask(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity",
                            lambda pid: {0, 1, 2}, raising=False)
        assert default_workers() == 3

    def test_falls_back_to_cpu_count(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 5)
        assert default_workers() == 5

    def test_never_below_one(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert default_workers() == 1
