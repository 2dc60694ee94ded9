"""A tests-side workload kind for exercising the executor's fault handling.

``SelfTest(mode, rate)`` points finish instantly (``ok``), raise
(``fail``), kill their worker (``crash``), sleep ``rate`` seconds
(``sleep``) or fail only on their first attempt (``flaky``, which leaves
a sentinel file under ``dir``).  Importing this module registers the
kind, so the points cross the wire (``selftest:<mode>``) to forked pool
children and loopback fabric workers like any production kind; nothing
in ``src/`` knows it exists.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import ClassVar

from repro.config import RunResult
from repro.sim.workload import KINDS


@dataclass(frozen=True)
class SelfTest:
    kind: ClassVar[str] = "selftest"

    mode: str
    rate: float = 0.0
    dir: str | None = None

    @property
    def pattern(self) -> str:
        return f"selftest:{self.mode}"

    def wire_meta(self) -> tuple:
        return (("dir", self.dir),) if self.dir is not None else ()

    @classmethod
    def decode(cls, name: str, rate: float, meta: dict) -> "SelfTest":
        return cls(name, rate, meta.pop("dir", None))

    def _ok(self, point, latency: float = 1.0) -> RunResult:
        res = RunResult(scheme=point.scheme, ejected=1, avg_latency=latency)
        res.extra["rate"] = self.rate
        return res

    def run(self, point, cfg) -> RunResult:
        if self.mode == "ok":
            return self._ok(point)
        if self.mode == "fail":
            raise RuntimeError("selftest: deliberate failure")
        if self.mode == "crash":
            os._exit(3)
        if self.mode == "sleep":
            time.sleep(self.rate)
            return self._ok(point)
        if self.mode == "flaky":
            # Succeed only once a sentinel from the first (failed) attempt
            # exists: exercises the retry path across process boundaries.
            sentinel = os.path.join(self.dir, f"flaky-{self.rate}")
            if os.path.exists(sentinel):
                return self._ok(point, latency=2.0)
            with open(sentinel, "w") as fh:
                fh.write("attempted")
            raise RuntimeError("selftest: flaky first attempt")
        raise ValueError(f"unknown selftest mode {self.mode!r}")


KINDS[SelfTest.kind] = SelfTest
