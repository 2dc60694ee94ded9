"""Content-addressed run cache.

Every simulation point is keyed by a SHA-256 over its canonical JSON form:
the :class:`~repro.sim.parallel.Point` (scheme, sorted kwargs, pattern,
rate, sorted meta), the full :class:`~repro.config.SimConfig`, and a
code-version salt.  The salt is a hash of the simulator's source files, so
touching any scheme or network code invalidates every cached result while
a pure orchestration change (this package) keeps the cache warm.

Results are stored one JSON file per point under ``<root>/<k[:2]>/<k>.json``
so a cache directory stays browsable and individual points are cheap to
evict.  Writes are atomic (tempfile + ``os.replace``), so a campaign killed
mid-write never leaves a truncated entry behind.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import os
import tempfile
from pathlib import Path

from repro.config import RunResult, SimConfig
from repro.sim.parallel import Point

_code_version: str | None = None


def code_version() -> str:
    """Hash of the simulator source (everything except this package)."""
    global _code_version
    if _code_version is None:
        import repro
        root = Path(repro.__file__).parent
        h = hashlib.sha256()
        for path in sorted(root.rglob("*.py")):
            rel = path.relative_to(root).as_posix()
            # Orchestration layers are excluded from the salt: they decide
            # where and when a point runs, never what it computes (the
            # fabric's bit-identity is differentially enforced), so
            # touching them must keep the cache warm.
            if rel.startswith(("campaign/", "fabric/")):
                continue
            h.update(rel.encode())
            h.update(path.read_bytes())
        _code_version = h.hexdigest()[:16]
    return _code_version


@functools.lru_cache(maxsize=256)
def _cfg_blob(cfg: SimConfig) -> str:
    """The config's part of the key blob.  A sweep keys thousands of
    points under one (frozen, hashable) config, and ``asdict`` alone is
    half the cost of a key."""
    cfg_payload = dataclasses.asdict(cfg)
    # The cycle engine is excluded from the key: every engine is required
    # to produce bit-identical results (differentially enforced), so the
    # engine knob decides *how fast* a point runs, never what it computes
    # — a cache warmed by one engine must serve every other.
    cfg_payload.pop("engine", None)
    return json.dumps(cfg_payload, sort_keys=True, separators=(",", ":"))


def point_key(point: Point, cfg: SimConfig, salt: str) -> str:
    """The content address of one (point, config, code-version) run:
    sha256 over the canonical JSON (sorted keys, no spaces) of
    ``{"cfg": ..., "point": ..., "salt": ...}``, assembled from its
    three parts in that — sorted — order."""
    blob = '{"cfg":%s,"point":%s,"salt":%s}' % (
        _cfg_blob(cfg),
        json.dumps(point.to_json(), sort_keys=True, separators=(",", ":")),
        json.dumps(salt))
    return hashlib.sha256(blob.encode()).hexdigest()


def result_to_json(res: RunResult) -> dict:
    d = dataclasses.asdict(res)
    # The engine that actually produced the result rides along as
    # attribution metadata.  It is NOT a RunResult field: results are
    # engine-invariant by contract, so equality checks and cache keys
    # must never see it.
    engine = getattr(res, "engine_used", None)
    if engine is not None:
        d["engine_used"] = engine
    return d


_RESULT_FIELDS = {f.name for f in dataclasses.fields(RunResult)}


def result_from_json(d: dict) -> RunResult:
    res = RunResult(**{k: v for k, v in d.items() if k in _RESULT_FIELDS})
    engine = d.get("engine_used")
    if engine is not None:
        res.engine_used = engine
    return res


class RunCache:
    """Persistent point-result cache rooted at ``root``."""

    def __init__(self, root: str | Path, salt: str | None = None):
        self.root = Path(root)
        self.salt = salt if salt is not None else code_version()
        self.hits = 0
        self.misses = 0

    # ------------------------------------------------------------------
    def key_for(self, point: Point, cfg: SimConfig) -> str:
        return point_key(point, cfg, self.salt)

    def _path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.json"

    def get(self, key: str) -> RunResult | None:
        path = self._path(key)
        try:
            with open(path) as fh:
                entry = json.load(fh)
        except (FileNotFoundError, json.JSONDecodeError):
            self.misses += 1
            return None
        self.hits += 1
        return result_from_json(entry["result"])

    def get_point(self, point: Point, cfg: SimConfig) -> RunResult | None:
        return self.get(self.key_for(point, cfg))

    def put(self, key: str, point: Point, cfg: SimConfig,
            result: RunResult) -> None:
        path = self._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        entry = {
            "key": key,
            "salt": self.salt,
            "point": point.to_json(),
            "cfg": dataclasses.asdict(cfg),
            # Top-level attribution of which engine produced the entry
            # (also inside result_to_json): `campaign status` scans it
            # without deserialising results.
            "engine": getattr(result, "engine_used", None),
            "result": result_to_json(result),
        }
        fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as fh:
                json.dump(entry, fh)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        if not self.root.is_dir():
            return 0
        return sum(1 for _ in self.root.glob("*/*.json"))

    def engine_counts(self) -> dict[str, int]:
        """Cached entries grouped by the engine that produced them.

        Entries written before engine attribution existed (or by paths
        that never attach it) count as ``"unrecorded"``.
        """
        counts: dict[str, int] = {}
        if not self.root.is_dir():
            return counts
        for path in self.root.glob("*/*.json"):
            try:
                with open(path) as fh:
                    entry = json.load(fh)
            except (OSError, json.JSONDecodeError):
                continue
            engine = entry.get("engine") or "unrecorded"
            counts[engine] = counts.get(engine, 0) + 1
        return counts

    def clear(self) -> int:
        """Delete every entry; returns the number removed."""
        n = 0
        if self.root.is_dir():
            for path in self.root.glob("*/*.json"):
                path.unlink(missing_ok=True)
                n += 1
        return n

    def reset_stats(self) -> None:
        self.hits = self.misses = 0

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0
