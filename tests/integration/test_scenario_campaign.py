"""Scenario points through the campaign layer: seed groups, cache
identity, and the CLI entry points.

Seed replicas of a scenario share a task like plain synthetic points
whatever their phase boundaries, and each still runs alone.  A spec
whose boundaries miss the 256-cycle refill quantum (phase-clamped,
ragged fills) must group *and* come back field-for-field equal to its
single-point runs.
"""

import dataclasses
import math
import warnings

from repro.campaign.context import get_context
from repro.campaign.executor import CampaignExecutor, group_items
from repro.campaign.worker import (execute_group, execute_point,
                                   replica_signature)
from repro.config import SimConfig
from repro.sim.parallel import Point
from repro.sim.workload import Irregular, Scenario
from repro.traffic.spec import SCENARIOS, PhaseSpec, ScenarioSpec

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
    def test_group_items_folds_misaligned(self):
        for spec in (ALIGNED, MISALIGNED):
            pts = [(i, Point("fastpass", Scenario(spec), seed=s))
                   for i, s in enumerate([1, 2, 3])]
            assert len({replica_signature(p) for _, p in pts}) == 1
            assert [len(g) for g in group_items(pts)] == [3], \
                f"{spec.name} replicas were not grouped into one task"

    def test_execute_group_matches_execute_point(self):
        """``execute_group`` is the name the benchmark calls; it must
        stay the one task body."""
        pts = [Point("escapevc", Scenario(ALIGNED), seed=s)
               for s in (1, 2)]
        grouped = execute_group(pts, _cfg())
        for point, res in zip(pts, grouped):
            _same_result(res, execute_point(point, _cfg()), point.seed)

    def test_executor_runs_misaligned_points_correctly(self):
        """End to end through the executor: three misaligned replicas
        (one task) must come back equal to their single-point runs."""
        seeds = [1, 2, 3]
        pts = [Point("fastpass", Scenario(MISALIGNED), seed=s)
               for s in seeds]
        assert any(b % 256 for b in MISALIGNED.boundaries())
        ex = CampaignExecutor(_cfg(), cache=None, processes=1)
        out = ex.run(pts)
        assert ex.summary["batched"] == 3
        for seed, res in zip(seeds, out):
            assert res.ejected > 0
            scalar = execute_point(
                Point("fastpass", Scenario(MISALIGNED), seed=seed), _cfg())
            _same_result(res, scalar, f"executor seed={seed}")


class TestIrregularPoints:
    def test_irregular_point_through_worker(self):
        point = Point("fastpass", Irregular("torus:4x4", 4, 32))
        res = execute_point(point, _cfg())
        assert res.extra["topology"] == "torus:4x4"
        assert res.extra["covers_all"]
        assert res.extra["circuit_len"] == 64
        assert res.extra["delivery_bound"] > 0

    def test_irregular_signature_is_scalar(self):
        point = Point("fastpass", Irregular("ring:8", 2))
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
        """Recording leaks no file handle and counts the events it
        wrote; the replay reads them back."""
        from repro.experiments import cli
        out = tmp_path / "t.jsonl"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert cli.main(["scenarios", "record", "bursty", "--out",
                             str(out), "--seed", "5"]) == 0
        assert not [w for w in caught
                    if issubclass(w.category, ResourceWarning)]
        lines = len(out.read_text().splitlines())
        assert f"events={lines - 1} " in capsys.readouterr().out
        assert cli.main(["scenarios", "replay", str(out)]) == 0
        text = capsys.readouterr().out
        assert "delivered" in text

    def test_replay_rejects_bad_schema(self, tmp_path, capsys):
        from repro.experiments import cli
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"format": "repro-trace", "schema": 99, '
                       '"mesh": [4, 4], "label": "x", "events": 0}\n')
        assert cli.main(["scenarios", "replay", str(bad)]) == 2
