"""Run the mutant ledger: tier-1 once unmutated, then once per mutant.

    PYTHONPATH=src python -m tests.mutants.run

Nothing in the checkout is mutated: ``src/``, ``tests/``, ``examples/``
(the example scripts are tier-1 tests) and ``pyproject.toml`` are copied
to a temporary directory, and each mutant is applied there and reverted
after its run.  The ledger is the one file written back.  Each run records its failures as they happen
(``tests/mutants/record.py``), fails a test that runs past
``TEST_TIMEOUT_S`` (conftest's ceiling, with pytest-timeout off) and
runs Hypothesis derandomized, so a property test kills a mutant the
same way on every run.  A whole run is cut after ``RUN_TIMEOUT_S``.

The unmutated run must pass: a test that fails there would count as a
killer of every mutant.  No run includes ``tests/unit/test_mutants.py``,
which checks the table and this ledger, not ``src/`` (every mutant
would fail its anchor check).  The ledger, ``tests/data/mutant_kills.json``,
lists for each mutant the sorted tier-1 ids that fail under it and the
seconds its run took.  Exit status 1 if an anchor does not occur exactly
once, the unmutated run fails, or a mutant has no killer.
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from tests.mutants import MUTANTS, ROOT

COPIED = ("src", "tests", "examples", "pyproject.toml")
LEDGER = ROOT / "tests" / "data" / "mutant_kills.json"
#: the tier-1 tests of the table and the ledger themselves
SELF_TESTS = "tests/unit/test_mutants.py"
#: a test that runs this long under a mutant fails (the slowest tier-1
#: test takes a few seconds unmutated): a wedge that only a long
#: ``run_to_completion`` would notice counts as a kill, in bounded time
TEST_TIMEOUT_S = 10
RUN_TIMEOUT_S = 1800


def copy_tree(dest: Path) -> None:
    skip = shutil.ignore_patterns("__pycache__", "*.pyc", ".hypothesis",
                                  ".pytest_cache")
    for name in COPIED:
        src = ROOT / name
        if src.is_dir():
            shutil.copytree(src, dest / name, ignore=skip)
        else:
            shutil.copy2(src, dest / name)


def tier1(tree: Path) -> dict:
    """One tier-1 run in ``tree``: the ids that failed, its exit code
    (``None`` when cut) and its wall time."""
    failures = tree / "failures.txt"
    failures.write_text("")
    cmd = [sys.executable, "-m", "pytest", "-q", "-o", "addopts=",
           "-p", "no:cacheprovider", "-p", "no:timeout",
           "-p", "tests.mutants.record",
           "--hypothesis-profile=mutant-ledger", "--tb=no",
           "--ignore", SELF_TESTS]
    env = dict(os.environ, PYTHONPATH=str(tree / "src"),
               REPRO_MUTANT_FAILURES=str(failures),
               REPRO_TEST_TIMEOUT=str(TEST_TIMEOUT_S))
    start = time.monotonic()
    # Its own process group, so the forked pool and fabric workers of a
    # run that is cut (or that leaks them) go with it.
    proc = subprocess.Popen(cmd, cwd=tree, env=env, start_new_session=True,
                            stdout=subprocess.DEVNULL,
                            stderr=subprocess.DEVNULL)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        code = None
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()
    return {"failed": sorted(set(failures.read_text().split())),
            "returncode": code,
            "seconds": round(time.monotonic() - start, 1)}


def main() -> int:
    stale = [(m.name, m.anchor_count()) for m in MUTANTS
             if m.anchor_count() != 1]
    if stale:
        for name, count in stale:
            print(f"{name}: anchor occurs {count} times", file=sys.stderr)
        return 1

    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        tree = Path(tmp)
        copy_tree(tree)
        base = tier1(tree)
        print(f"unmutated: {len(base['failed'])} failed, "
              f"exit {base['returncode']}, {base['seconds']} s",
              file=sys.stderr)
        if base["failed"] or base["returncode"] != 0:
            print("the unmutated tree must pass first:", *base["failed"],
                  sep="\n  ", file=sys.stderr)
            return 1
        ledger = {}
        for mutant in MUTANTS:
            original = mutant.apply(tree)
            try:
                run = tier1(tree)
            finally:
                (tree / mutant.path).write_text(original)
            ledger[mutant.name] = {"origin": mutant.origin,
                                   "killed_by": run["failed"],
                                   "seconds": run["seconds"]}
            if run["returncode"] is None:
                ledger[mutant.name]["timed_out"] = True
            print(f"{mutant.name}: {len(run['failed'])} killers, "
                  f"{run['seconds']} s", file=sys.stderr)

    LEDGER.write_text(json.dumps({"unmutated_seconds": base["seconds"],
                                  "mutants": ledger}, indent=1) + "\n")
    survivors = [name for name, row in ledger.items()
                 if not row["killed_by"]]
    for name in survivors:
        print(f"{name}: no tier-1 test kills it", file=sys.stderr)
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
