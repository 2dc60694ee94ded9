"""The mutant ledger (``tests/mutants``) against the tree it mutates:
every anchor still occurs exactly once, and the committed ledger names
at least one killer for every mutant in the table."""

import json

import pytest

from tests.mutants import MUTANTS, ROOT
from tests.mutants.run import LEDGER


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda m: m.name)
def test_anchor_occurs_exactly_once(mutant):
    assert mutant.anchor != mutant.replacement
    assert mutant.anchor_count() == 1, \
        f"{mutant.name}: re-anchor it to the code that now carries the fix"


def test_ledger_kills_every_mutant():
    ledger = json.loads(LEDGER.read_text())["mutants"]
    assert list(ledger) == [m.name for m in MUTANTS], \
        "re-run python -m tests.mutants.run"
    for name, row in ledger.items():
        assert row["killed_by"], f"{name} survives tier-1"
        for nodeid in row["killed_by"]:
            assert (ROOT / nodeid.split("::")[0]).is_file(), \
                f"{name}: killer {nodeid} is gone; re-run the ledger"
