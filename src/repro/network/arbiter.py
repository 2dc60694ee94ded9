"""The switch-allocation arbitration order, in one place.

:meth:`repro.network.router.Router.step` grants the switch in **exactly**
this order under both cycle engines (active-set and naive), or they stop
being bit-identical.  That order used to be implicit in the loop; it is
now specified here and the router calls these helpers.

The full priority spec
----------------------

1.  Routers arbitrate independently; within a cycle they are stepped in
    ascending router id (the naive sweep order, which the active-set
    engine reproduces).
2.  Within a router, the occupied VC slots are visited in *rotated list
    order*: the occupied list left-rotated by ``rr % len(occupied)``,
    where ``rr`` is the router's monotonically increasing round-robin
    offset.  ``rr`` advances by exactly one per step in which the
    occupied list is non-empty (an empty router's step is a no-op and
    does **not** advance ``rr``).  List order itself is arrival order:
    packets are appended by :meth:`Router.admit` and survivors are
    re-appended in visit order each cycle.
3.  The first ready head in that order wins each output port for the
    whole cycle (ports are granted at most once per cycle — the
    ``taken`` bitmask); later heads wanting the same port lose.
4.  A head tries its candidate moves in route order (the tuple returned
    by :meth:`Router.moves`, i.e. routing-function port order), and
    within a move claims the **lowest-indexed** free downstream VC of
    the move's VC range.
5.  A head whose first move is the local port only ever tries ejection,
    never the network ports.

A *skipped* step (a parked router's) would
only have advanced ``rr`` and rotated the list; :func:`skipped_rotation`
replays ``k`` such steps in closed form.  The replay is valid only while
the occupied list membership is unchanged since the skip began — any
membership change must be applied by a real (or replayed-then-real)
step first.
"""

from __future__ import annotations


def granted_order(occupied: list, rr: int) -> tuple[list, int]:
    """Visit order of one switch-allocation step.

    Returns ``(rotated_list, new_rr)``.  ``occupied`` must be non-empty;
    callers handle the empty case (no rotation, ``rr`` unchanged).
    """
    start = rr % len(occupied)
    if start:
        occupied = occupied[start:] + occupied[:start]
    return occupied, rr + 1


def skipped_rotation(rr: int, n: int, skipped: int) -> tuple[int, int]:
    """Net effect of ``skipped`` consecutive no-op steps on a stable
    ``n``-element occupied list: each advanced ``rr`` by one and
    left-rotated by its pre-increment ``rr % n``.  Returns
    ``(total_rotation, new_rr)``; composition is closed-form because the
    offsets are consecutive integers.
    """
    rot = (skipped * rr + skipped * (skipped - 1) // 2) % n
    return rot, rr + skipped
