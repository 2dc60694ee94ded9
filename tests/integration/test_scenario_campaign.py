"""Scenario points through the campaign layer: replica-fold safety,
cache identity, and the CLI entry points.

Seed replicas of a scenario fold like plain synthetic points whatever
their phase boundaries: each replica runs on its own refill clock, so a
spec whose boundaries miss the 256-cycle refill quantum (phase-clamped,
ragged fills) must fold *and* stay field-for-field equal to its scalar
runs.  These tests provoke exactly that misalignment at every layer:
the batch engine, the grouping signature, and the executor's auto-fold.
"""

import dataclasses
import math

from repro.campaign.context import get_context
from repro.campaign.executor import CampaignExecutor, group_items
from repro.campaign.worker import (execute_group, execute_point,
                                   replica_signature)
from repro.config import SimConfig
from repro.scenario.runner import run_scenario
from repro.scenario.spec import SCENARIOS, PhaseSpec, ScenarioSpec
from repro.sim.parallel import Point
from repro.sim.runner import run_replicas

ALIGNED = SCENARIOS["bursty"]
MISALIGNED = ScenarioSpec("offgrid", (PhaseSpec(duration=300, rate=0.05),
                                      PhaseSpec(duration=212, rate=0.10)))


def _cfg():
    return SimConfig(rows=4, cols=4, warmup_cycles=50, measure_cycles=200,
                     drain_cycles=800, fastpass_slot_cycles=64)


def _same_result(a, b, label):
    for f in dataclasses.fields(a):
        va, vb = getattr(a, f.name), getattr(b, f.name)
        if isinstance(va, float) and isinstance(vb, float) \
                and math.isnan(va) and math.isnan(vb):
            continue
        assert va == vb, f"{label}: field {f.name!r}: {va!r} != {vb!r}"


class TestReplicaFoldGuard:
    def test_misaligned_spec_folds_exactly(self):
        """The regression the 256-cycle guard used to route around: a
        misaligned spec through the fold, per seed against the scalar
        worker path."""
        pts = [Point.make_scenario("fastpass", MISALIGNED, seed=s)
               for s in (1, 2, 3)]
        assert any(b % 256 for b in MISALIGNED.boundaries())
        grouped = execute_group(pts, _cfg())
        for point, res in zip(pts, grouped):
            assert res.ejected > 0
            _same_result(res, execute_point(point, _cfg()), point.meta)

    def test_group_items_folds_misaligned(self):
        for spec in (ALIGNED, MISALIGNED):
            pts = [(i, Point.make_scenario("fastpass", spec, seed=s))
                   for i, s in enumerate([1, 2, 3])]
            assert len({replica_signature(p) for _, p in pts}) == 1
            assert [len(g) for g in group_items(pts, True)] == [3], \
                f"{spec.name} replicas were not folded into one batch"

    def test_aligned_fold_is_bit_identical_to_scalar(self):
        seeds = [3, 4, 5]
        batched = run_replicas("fastpass", "x", 0.0, _cfg(), seeds=seeds,
                               spec=ALIGNED)
        for seed, res in zip(seeds, batched):
            scalar = run_scenario("fastpass", ALIGNED, _cfg(), seed=seed)
            _same_result(res, scalar, f"seed={seed}")

    def test_execute_group_matches_execute_point(self):
        pts = [Point.make_scenario("escapevc", ALIGNED, seed=s)
               for s in (1, 2)]
        grouped = execute_group(pts, _cfg())
        for point, res in zip(pts, grouped):
            _same_result(res, execute_point(point, _cfg()), point.meta)

    def test_executor_runs_misaligned_points_correctly(self):
        """End to end through the auto-batching executor: three
        misaligned replicas (one folded task) must come back equal to
        their scalar runs."""
        seeds = [1, 2, 3]
        pts = [Point.make_scenario("fastpass", MISALIGNED, seed=s)
               for s in seeds]
        ex = CampaignExecutor(_cfg(), cache=None, processes=1,
                              auto_batch=True)
        out = ex.run(pts)
        for seed, res in zip(seeds, out):
            scalar = run_scenario("fastpass", MISALIGNED, _cfg(),
                                  seed=seed)
            _same_result(res, scalar, f"executor seed={seed}")


class TestIrregularPoints:
    def test_irregular_point_through_worker(self):
        point = Point.make_irregular("torus:4x4", partitions=4,
                                     slot_cycles=32)
        res = execute_point(point, _cfg())
        assert res.extra["topology"] == "torus:4x4"
        assert res.extra["covers_all"]
        assert res.extra["circuit_len"] == 64
        assert res.extra["delivery_bound"] > 0

    def test_irregular_signature_is_scalar(self):
        point = Point.make_irregular("ring:8", partitions=2)
        assert replica_signature(point) is None


class TestScenarioCli:
    def test_run_hits_cache_second_time(self, capsys):
        from repro.experiments import cli
        argv = ["scenarios", "run", "bursty", "--topologies", "ring:8",
                "--seeds", "1"]
        assert cli.main(list(argv)) == 0
        cache = get_context().cache()
        assert cache.misses > 0 and cache.hits == 0
        cache.hits = cache.misses = 0
        assert cli.main(list(argv)) == 0
        assert cache.misses == 0 and cache.hits > 0
        out = capsys.readouterr().out
        assert "run cache" in out

    def test_record_replay_cli_round_trip(self, tmp_path, capsys):
        from repro.experiments import cli
        out = tmp_path / "t.jsonl"
        assert cli.main(["scenarios", "record", "bursty", "--out",
                         str(out), "--seed", "5"]) == 0
        assert out.exists()
        assert cli.main(["scenarios", "replay", str(out)]) == 0
        text = capsys.readouterr().out
        assert "delivered" in text

    def test_replay_rejects_bad_schema(self, tmp_path, capsys):
        from repro.experiments import cli
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"format": "repro-trace", "schema": 99, '
                       '"mesh": [4, 4], "label": "x", "events": 0}\n')
        assert cli.main(["scenarios", "replay", str(bad)]) == 2
