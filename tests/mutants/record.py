"""pytest plugin for the mutant ledger's tier-1 runs
(``tests/mutants/run.py`` loads it with ``-p``).

- Appends the id of every test (or module) that fails, at any phase, to
  the file named by ``REPRO_MUTANT_FAILURES``, one line each, as it
  happens: a run cut short by its timeout still reports its kills.
- Registers the ``mutant-ledger`` Hypothesis profile: derandomized, no
  example database and no shrinking, so a property test kills a mutant
  the same way on every run and reports at its first failure.
"""

from __future__ import annotations

import os

from hypothesis import Phase, settings

settings.register_profile("mutant-ledger", derandomize=True, database=None,
                          phases=(Phase.explicit, Phase.generate))


def _record(nodeid: str) -> None:
    with open(os.environ["REPRO_MUTANT_FAILURES"], "a") as fh:
        fh.write(nodeid + "\n")


def pytest_runtest_logreport(report):
    if report.failed:
        _record(report.nodeid)


def pytest_collectreport(report):
    if report.failed:
        _record(report.nodeid)
