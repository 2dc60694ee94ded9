"""Routing functions and the route table built from them.

Every routing function has the signature ``route(mesh, rid, dst) -> tuple``
returning the candidate output ports at router ``rid`` for a packet headed
to ``dst`` (``PORT_LOCAL`` alone when ``rid == dst``).  All routing here is
minimal; misrouting baselines (SWAP/DRAIN/MinBD) misroute through their own
mechanisms, not through the routing function.

Every function here reads only ``sign(dx), sign(dy)``, so the candidate
moves of a whole network fit one :class:`RouteTable`: nine direction
classes x 6 VNs x 2 escape bits, identical at every router of every mesh.
A routing function that is *not* sign-determined (an odd-even turn model,
say) must not be served from the table; ``tests/unit/test_route_table.py``
compares the table against direct evaluation on real meshes and fails for
such a function.
"""

from __future__ import annotations

from functools import lru_cache

from repro.network.topology import (
    Mesh,
    PORT_E,
    PORT_LOCAL,
    PORT_N,
    PORT_S,
    PORT_W,
)

LOCAL_ONLY = (PORT_LOCAL,)


def productive_ports(mesh: Mesh, rid: int, dst: int) -> tuple[int, ...]:
    """All minimal (productive) directions."""
    if rid == dst:
        return LOCAL_ONLY
    x, y = mesh.xy(rid)
    dx, dy = mesh.xy(dst)
    outs = []
    if dx > x:
        outs.append(PORT_E)
    elif dx < x:
        outs.append(PORT_W)
    if dy > y:
        outs.append(PORT_N)
    elif dy < y:
        outs.append(PORT_S)
    return tuple(outs)


def route_xy(mesh: Mesh, rid: int, dst: int) -> tuple[int, ...]:
    """Dimension-ordered XY routing (X first).  Deadlock-free."""
    if rid == dst:
        return LOCAL_ONLY
    x, y = mesh.xy(rid)
    dx, dy = mesh.xy(dst)
    if dx > x:
        return (PORT_E,)
    if dx < x:
        return (PORT_W,)
    if dy > y:
        return (PORT_N,)
    return (PORT_S,)


def route_yx(mesh: Mesh, rid: int, dst: int) -> tuple[int, ...]:
    """Dimension-ordered YX routing (Y first).  Deadlock-free."""
    if rid == dst:
        return LOCAL_ONLY
    x, y = mesh.xy(rid)
    dx, dy = mesh.xy(dst)
    if dy > y:
        return (PORT_N,)
    if dy < y:
        return (PORT_S,)
    if dx > x:
        return (PORT_E,)
    return (PORT_W,)


def route_adaptive(mesh: Mesh, rid: int, dst: int) -> tuple[int, ...]:
    """Fully adaptive minimal routing: any productive direction.

    Permits all turns, so cyclic channel dependences — and thus
    network-level deadlock — are possible; the schemes under study must
    provide the escape mechanism.
    """
    return productive_ports(mesh, rid, dst)


def route_west_first(mesh: Mesh, rid: int, dst: int) -> tuple[int, ...]:
    """West-first turn-model routing (Glass & Ni): if the destination is to
    the West, go West first (deterministically); otherwise route adaptively
    among the remaining productive (non-West) directions.  Deadlock-free.
    """
    if rid == dst:
        return LOCAL_ONLY
    x, y = mesh.xy(rid)
    dx, dy = mesh.xy(dst)
    if dx < x:
        return (PORT_W,)
    outs = []
    if dx > x:
        outs.append(PORT_E)
    if dy > y:
        outs.append(PORT_N)
    elif dy < y:
        outs.append(PORT_S)
    return tuple(outs)


ROUTERS = {
    "xy": route_xy,
    "yx": route_yx,
    "adaptive": route_adaptive,
    "west_first": route_west_first,
}


# -- the route table -----------------------------------------------------
#
# How candidate moves are stored is decided here and nowhere else: the
# move tuple of ``(rid, dst, vn, escape)`` is
# ``moves[rows[rid][dst] + vn * 2 + escape]``, the class rows holding the
# direction class of ``dst`` seen from ``rid`` pre-multiplied by
# ``_CLASS_STRIDE``.  ``Router.step`` carries the one inlined copy of
# that probe; every other reader goes through :class:`RouteTable`'s
# methods.

N_CLASSES = 9
_CLASS_STRIDE = 12      # 6 VNs x 2 escape bits per direction class

# A direction class is numbered as the router id of a destination with
# that ``(sign dx, sign dy)`` seen from the centre of a 3x3 mesh, so a
# class's moves are the move rule evaluated right there.
_REF_MESH = Mesh(3, 3)
_REF_CENTRE = 4


class RouteTable:
    """Candidate moves for every ``(router, dst, vn, escape)`` of one
    network; obtained from :func:`route_table`, shared by every network
    with the same derivation and never written."""

    __slots__ = ("rows", "moves")

    def __init__(self, rows: tuple, moves: tuple):
        self.rows = rows
        self.moves = moves

    def lookup(self, rid: int, dst: int, vn: int, escape: int = 0) -> tuple:
        return self.moves[self.rows[rid][dst] + vn * 2 + escape]

    def class_moves(self, cls: int, vn: int, escape: int = 0) -> tuple:
        """The moves of direction class ``cls`` (``0 <= cls < N_CLASSES``)."""
        return self.moves[cls * _CLASS_STRIDE + vn * 2 + escape]

    def class_ids(self) -> bytes:
        """Direction class of every ``(rid, dst)`` pair, row-major."""
        return bytes(off // _CLASS_STRIDE
                     for row in self.rows for off in row)


@lru_cache(maxsize=32)
def vn_vc_ranges(n_vns: int, n_vcs: int) -> tuple:
    """Per-VN VC index ranges; a single "VN" (FastPass, Pitstop) shares
    all VCs among every message class."""
    if n_vns > 1:
        return tuple(tuple(range(vn * n_vcs, (vn + 1) * n_vcs))
                     for vn in range(n_vns))
    return (tuple(range(n_vcs)),) * 6


@lru_cache(maxsize=32)
def _class_rows(rows: int, cols: int) -> tuple:
    def offsets(n: int, unit: int) -> list:
        return [[((b > a) - (b < a) + 1) * unit for b in range(n)]
                for a in range(n)]
    xs = offsets(cols, _CLASS_STRIDE)
    ys = offsets(rows, 3 * _CLASS_STRIDE)
    return tuple(bytes(oy + ox for oy in ys[y] for ox in xs[x])
                 for y in range(rows) for x in range(cols))


@lru_cache(maxsize=32)
def _class_moves(rule, routing_fn, n_vns: int, n_vcs: int) -> tuple:
    return tuple(rule(routing_fn, _REF_MESH, _REF_CENTRE, cls, vn, escape,
                      n_vns, n_vcs)
                 for cls in range(N_CLASSES)
                 for vn in range(6) for escape in (0, 1))


@lru_cache(maxsize=32)
def route_table(rule, routing_fn, n_vns: int, n_vcs: int,
                rows: int, cols: int) -> RouteTable:
    """The table for a router class's move ``rule`` (see
    :meth:`repro.network.router.Router.move_rule`) under ``routing_fn``
    on a ``rows x cols`` mesh.  A pure function of its arguments, so the
    cache is the whole sharing model: every network of one derivation in
    a process — seed replicas, sweep points, fork children of a parent
    that built one — holds the same object."""
    return RouteTable(_class_rows(rows, cols),
                      _class_moves(rule, routing_fn, n_vns, n_vcs))
