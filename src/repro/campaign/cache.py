"""Content-addressed run cache.

Every simulation point is keyed by a SHA-256 over its canonical JSON form:
the :class:`~repro.sim.parallel.Point` (scheme, sorted kwargs, pattern,
rate, sorted meta), the full :class:`~repro.config.SimConfig`, and a
code-version salt.  The salt is a hash of the simulator's source files, so
touching any scheme or network code invalidates every cached result while
a pure orchestration change (this package) keeps the cache warm.

Results are stored one file per point under ``<root>/<k[:2]>/<k>.json``
so a cache directory stays browsable and individual points are cheap to
evict.  An entry is two lines of JSON: the result first, then its
provenance (key, salt, point, config), so a hit reads and decodes only
the line it returns.  Writes are atomic (tempfile + ``os.replace``), so a
campaign killed mid-write never leaves a truncated entry behind.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import os
import tempfile
from json.encoder import c_make_encoder, encode_basestring_ascii
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


def _canonical_encoder():
    """``JSONEncoder(sort_keys=True, separators=(",", ":")).encode``,
    whose output every cache key is made of, without its per-call cost:
    ``encode`` builds a new C encoder on every call, this builds one.
    No circular-reference markers: a key payload is plain nested data,
    and the output is the same with or without them."""
    enc = json.JSONEncoder(sort_keys=True, separators=(",", ":"))
    iterencode = c_make_encoder(
        None, enc.default, encode_basestring_ascii, None,
        enc.key_separator, enc.item_separator, enc.sort_keys,
        enc.skipkeys, enc.allow_nan)
    return lambda obj: "".join(iterencode(obj, 0))


_canonical = _canonical_encoder()


@functools.lru_cache(maxsize=256)
def _key_frame(cfg: SimConfig, salt: str) -> tuple[str, str]:
    """The constant head ``{"cfg":...,"point":`` and tail ``,"salt":...}``
    of every key blob under one config and salt.  A sweep keys thousands
    of points under one (frozen, hashable) config, and ``asdict`` alone
    is half the cost of a key."""
    cfg_payload = dataclasses.asdict(cfg)
    # The cycle engine is excluded from the key: every engine is required
    # to produce bit-identical results (differentially enforced), so the
    # engine knob decides *how fast* a point runs, never what it computes
    # — a cache warmed by one engine must serve every other.
    cfg_payload.pop("engine", None)
    return ('{"cfg":%s,"point":' % _canonical(cfg_payload),
            ',"salt":%s}' % _canonical(salt))


def point_key(point: Point, cfg: SimConfig, salt: str) -> str:
    """The content address of one (point, config, code-version) run:
    sha256 over the canonical JSON (sorted keys, no spaces) of
    ``{"cfg": ..., "point": ..., "salt": ...}``, assembled from its
    three parts in that — sorted — order."""
    head, tail = _key_frame(cfg, salt)
    blob = head + _canonical(point.to_json()) + tail
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


#: RunResult's fields in the order ``result_to_json`` writes them
_FIELD_ORDER = [f.name for f in dataclasses.fields(RunResult)]
_ATTRIBUTED_ORDER = [*_FIELD_ORDER, "engine_used"]
_RESULT_FIELDS = set(_FIELD_ORDER)


def result_from_json(d: dict) -> RunResult:
    if list(d) in (_FIELD_ORDER, _ATTRIBUTED_ORDER):
        # Exactly what ``result_to_json`` writes: the values are
        # RunResult's positional arguments (a unit test pins that every
        # field is one), which skips the copy and the name matching of
        # ``**kwargs``.  ``__init__`` stays: it keeps the attributes in
        # CPython's compact per-instance layout, where assigning
        # ``__dict__`` wholesale gives every held result a dict of its
        # own (~1.4 KB more per result).
        res = RunResult(*tuple(d.values())[:len(_FIELD_ORDER)])
        engine = d.get("engine_used")
    else:
        kwargs = dict(d)        # the caller's dict is never mutated
        engine = kwargs.pop("engine_used", None)
        try:
            res = RunResult(**kwargs)
        except TypeError:
            # Written by a build whose RunResult had other fields: drop
            # the unknown ones.  A missing ``scheme`` still raises.
            res = RunResult(**{k: v for k, v in kwargs.items()
                               if k in _RESULT_FIELDS})
    if engine is not None:
        res.engine_used = engine
    return res


#: bytes per read of an entry; line 1 of an entry is ~0.5 KB
_READ_SIZE = 4096
_scan_json = json.JSONDecoder().scan_once


def _read_line(path: str | Path) -> bytes:
    """The first line of the file at ``path``, newline included; all of
    it if it has none.  One descriptor and no buffered file object: a
    hit is one ``open``, one ``read`` (more only when the first read
    holds no newline) and one ``close``."""
    fd = os.open(path, os.O_RDONLY)
    try:
        chunks = [os.read(fd, _READ_SIZE)]
        while chunks[-1] and b"\n" not in chunks[-1]:
            chunks.append(os.read(fd, _READ_SIZE))
    finally:
        os.close(fd)
    data = b"".join(chunks)
    end = data.find(b"\n")
    return data if end < 0 else data[:end + 1]


def _read_result(path: str | Path) -> dict:
    """The result object of the entry at ``path``: its first line.  An
    entry written before the two-line layout is one object with no
    newline, and the result is its ``"result"``; it is read, never
    rewritten.  Line 1 starts with its value, as every entry is written.
    A malformed entry raises ``ValueError``, ``KeyError`` or
    ``TypeError``."""
    text = _read_line(path).decode()
    try:
        obj, end = _scan_json(text, 0)
    except StopIteration:
        raise ValueError(f"{path}: line 1 does not start with JSON") \
            from None
    # What ``json.loads`` checks after the value: nothing but JSON
    # whitespace may follow it on the line.
    if text[end:].strip(" \t\n\r"):
        raise ValueError(f"{path}: extra data after the result")
    if text[-1:] != "\n":
        obj = obj["result"]
    if type(obj) is not dict:
        raise TypeError(f"{path}: the result is not an object")
    return obj


class RunCache:
    """Persistent point-result cache rooted at ``root``."""

    def __init__(self, root: str | Path, salt: str | None = None):
        self.root = Path(root)
        self._dir = os.fspath(self.root)
        self.salt = salt if salt is not None else code_version()
        self.hits = 0
        self.misses = 0

    # ------------------------------------------------------------------
    def key_for(self, point: Point, cfg: SimConfig) -> str:
        return point_key(point, cfg, self.salt)

    def _path(self, key: str) -> str:
        return f"{self._dir}/{key[:2]}/{key}.json"

    def get(self, key: str) -> RunResult | None:
        try:
            res = result_from_json(_read_result(self._path(key)))
        except (FileNotFoundError, ValueError, KeyError, TypeError):
            # Absent or malformed (JSONDecodeError and UnicodeDecodeError
            # are ValueErrors): either way the point is recomputed.
            self.misses += 1
            return None
        self.hits += 1
        return res

    def get_point(self, point: Point, cfg: SimConfig) -> RunResult | None:
        return self.get(self.key_for(point, cfg))

    def put(self, key: str, point: Point, cfg: SimConfig,
            result: RunResult) -> None:
        path = self._path(key)
        folder = os.path.dirname(path)
        os.makedirs(folder, exist_ok=True)
        # Line 1 is all a hit reads; the engine that produced the result
        # rides inside it (``engine_used``), which is what `campaign
        # status` counts.  Line 2 says where the entry came from.
        provenance = {"key": key, "salt": self.salt,
                      "point": point.to_json(),
                      "cfg": dataclasses.asdict(cfg)}
        text = (json.dumps(result_to_json(result)) + "\n"
                + json.dumps(provenance) + "\n")
        fd, tmp = tempfile.mkstemp(dir=folder, suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as fh:
                fh.write(text)
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
                result = _read_result(path)
            except (OSError, ValueError, KeyError, TypeError):
                continue
            engine = result.get("engine_used") or "unrecorded"
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

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0
