"""Environment hygiene and provenance for the benchmark.

Nothing here imports ``repro``: the parent process stays a thin driver and
every pass pays its own imports, as a user's CLI invocation would.
"""

from __future__ import annotations

import fcntl
import os
import platform
import shutil
import subprocess
import sys
import tempfile
from contextlib import contextmanager
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
#: scratch space inside the checkout (gitignored): pass directories, the
#: lock file, trace.json.  Never the repo's ``results/``.
WORK = HERE / ".work"

#: ambient knobs that would change what a pass does
NEUTRALISED = ("REPRO_JOBS", "REPRO_CACHE", "REPRO_METRICS",
               "REPRO_NO_BATCH", "REPRO_CACHE_DIR", "REPRO_CAMPAIGN_DIR",
               "REPRO_CAMPAIGN_SELFTEST", "REPRO_FABRIC_PATIENCE_S")
PINNED_THREADS = ("OMP_NUM_THREADS", "MKL_NUM_THREADS",
                  "OPENBLAS_NUM_THREADS")


def nproc() -> int:
    """Cores this process may run on (the affinity mask, not the box)."""
    try:
        return len(os.sched_getaffinity(0)) or 1
    except (AttributeError, OSError):
        return os.cpu_count() or 1


def pass_env(results_dir: Path) -> dict[str, str]:
    """The environment of one pass: ambient ``REPRO_*`` removed, BLAS
    pools pinned to one thread, results pointed at the pass's own
    directory."""
    env = {k: v for k, v in os.environ.items() if k not in NEUTRALISED}
    for name in PINNED_THREADS:
        env[name] = "1"
    env["REPRO_RESULTS_DIR"] = str(results_dir)
    inherited = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + inherited
                                    if inherited else "")
    return env


@contextmanager
def pass_dir():
    """A fresh scratch directory for one pass, removed afterwards."""
    WORK.mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(prefix="pass-", dir=WORK))
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)


class Busy(RuntimeError):
    """Another run.py holds the lock."""


@contextmanager
def exclusive_lock():
    """Refuse to run beside another benchmark in this checkout: two at
    once would time each other."""
    WORK.mkdir(exist_ok=True)
    with open(WORK / "lock", "w") as fh:
        try:
            fcntl.flock(fh, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except OSError as exc:
            raise Busy(f"{WORK / 'lock'} is held by another run.py") \
                from exc
        yield


def git_commit() -> str:
    """HEAD of the checkout, or "unknown" outside a git repository (the
    driver's checkout is a plain directory)."""
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def provenance() -> dict:
    """Where and on what the numbers were taken (load sampled now)."""
    try:
        affinity = sorted(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        affinity = []
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = "missing"
    return {"nproc": nproc(), "affinity": affinity,
            "python": platform.python_version(), "numpy": numpy_version,
            "executable": sys.executable, "git_commit": git_commit(),
            "load_1min_start": os.getloadavg()[0]}


def close_provenance(prov: dict) -> dict:
    """Sample the load again and flag a run the machine was too busy
    for."""
    prov["load_1min_end"] = os.getloadavg()[0]
    prov["noisy"] = max(prov["load_1min_start"],
                        prov["load_1min_end"]) > prov["nproc"]
    return prov
