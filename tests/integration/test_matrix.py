"""Tier-1 slice of the conformance matrix (``tests/matrix.py``): its
pairwise sample of cells and the table's own consistency.  The engine
checks that are not plain cells (mid-run engine switch, naive-path
guard, provoked bounces, closed-loop consume calls, trace replay) are in
``test_engine_equivalence.py``."""

import dataclasses

import pytest

from tests.matrix import (AXES, DECLARED, FAULTS, NO_REROUTE, PRODUCT,
                          SAMPLE, SCHEMES, TOPOLOGIES, UNDELIVERED, WEDGES,
                          WORKLOADS, check, covers, declared, instruments,
                          pairs)

__all__ = ["instruments"]   # the fixture the cells take


@pytest.mark.parametrize("cell", SAMPLE, ids=str)
def test_cell(cell, instruments):
    check(cell, instruments)


# -- The table ------------------------------------------------------------

def _lost(cell) -> frozenset:
    want = declared(cell)
    return want.detail & {WEDGES, UNDELIVERED} \
        if want.kind == "fallback" else frozenset()


def test_every_declaration_names_real_cells():
    """A misspelt or shadowed row would declare, and hide, nothing."""
    values = dict(zip(AXES, ([s[0] for s in SCHEMES], WORKLOADS, FAULTS,
                             TOPOLOGIES)))
    for axes, outcome in DECLARED:
        for axis, covered in axes.items():
            assert set(covered) <= set(values[axis]), (axis, covered)
        assert any(covers(axes, c) and (
            declared(c) == outcome
            or outcome.kind == declared(c).kind == "fallback"
            and outcome.detail <= declared(c).detail)
            for c in PRODUCT), f"row {axes} -> {outcome} is dead"


def test_fastpass_is_never_declared_to_wedge():
    assert not any(WEDGES in _lost(c) for c in PRODUCT
                   if c.point.scheme == "fastpass")


def test_only_schemes_without_reroute_lose_traffic_to_a_cut():
    """A rerouting scheme's row may strand traffic under a cut only
    where it strands it on the healthy network too."""
    for cell in PRODUCT:
        if cell.faults == "permanent" and cell.scheme not in NO_REROUTE:
            healthy = dataclasses.replace(cell, faults="none")
            assert _lost(cell) <= _lost(healthy), cell


def test_sample_covers_every_pair():
    assert len(set(SAMPLE)) == len(SAMPLE)
    assert set().union(*map(pairs, SAMPLE)) \
        == set().union(*map(pairs, PRODUCT))
