"""Golden results: every RunResult field of every scheme, pinned.

The differential suites compare the active engine against the naive
sweep, but both run the same ``Router.step`` and the same retry memo — a
kernel change that breaks the two alike (a vacate site that returns no
credit, so a waiting head is never woken) leaves them in agreement.
This fixture was recorded before the credit-wakeup change and is the
reference that does not run the code under test; see
``tests/golden_results.py`` for its coverage and how to regenerate it.
Do not refresh it to make a failure pass.
"""

import json

import pytest

from tests.golden_results import FIXTURE, cases, encode

GOLDEN = json.loads(FIXTURE.read_text())
CASES = cases()


def test_fixture_covers_every_case():
    assert sorted(GOLDEN) == sorted(cid for cid, _ in CASES)


@pytest.mark.parametrize("cid,run", CASES, ids=[cid for cid, _ in CASES])
def test_result_matches_golden(cid, run):
    got = json.loads(encode(run()))
    want = GOLDEN[cid]
    # compared as canonical text so NaN equals NaN
    differs = {k: (want.get(k), got.get(k)) for k in {*want, *got}
               if json.dumps(want.get(k), sort_keys=True)
               != json.dumps(got.get(k), sort_keys=True)}
    assert not differs, f"{cid}: (golden, got) per field: {differs}"
