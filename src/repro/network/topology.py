"""Topologies: 2-D mesh (the paper's evaluation substrate) and arbitrary
irregular graphs (Sec. III-F).

Router ids in a mesh are row-major: ``id = y * cols + x`` with ``x`` growing
East and ``y`` growing North.  Port numbering is fixed:

====  =====
port  means
====  =====
0     Local (injection/ejection)
1     North (+y)
2     East  (+x)
3     South (-y)
4     West  (-x)
====  =====
"""

from __future__ import annotations

PORT_LOCAL = 0
PORT_N = 1
PORT_E = 2
PORT_S = 3
PORT_W = 4

PORT_NAMES = ("Local", "North", "East", "South", "West")

#: opposite[p] is the input port on the neighbour reached through output p.
OPPOSITE = {PORT_N: PORT_S, PORT_S: PORT_N, PORT_E: PORT_W, PORT_W: PORT_E}

_DELTA = {PORT_N: (0, 1), PORT_E: (1, 0), PORT_S: (0, -1), PORT_W: (-1, 0)}


class Mesh:
    """A ``rows x cols`` 2-D mesh."""

    def __init__(self, rows: int, cols: int):
        if rows < 2 or cols < 2:
            raise ValueError("mesh must be at least 2x2")
        self.rows = rows
        self.cols = cols
        self.n_routers = rows * cols

    # -- coordinates ----------------------------------------------------
    def xy(self, rid: int) -> tuple[int, int]:
        return rid % self.cols, rid // self.cols

    def rid(self, x: int, y: int) -> int:
        return y * self.cols + x

    def in_bounds(self, x: int, y: int) -> bool:
        return 0 <= x < self.cols and 0 <= y < self.rows

    # -- neighbourhood ---------------------------------------------------
    def neighbor(self, rid: int, port: int) -> int | None:
        """Router on the other side of output ``port``, or None at an edge."""
        if port == PORT_LOCAL:
            return None
        x, y = self.xy(rid)
        dx, dy = _DELTA[port]
        nx_, ny = x + dx, y + dy
        if not self.in_bounds(nx_, ny):
            return None
        return self.rid(nx_, ny)

    def ports_of(self, rid: int) -> list[int]:
        """Network output ports that actually have a link (edge routers
        have fewer)."""
        return [p for p in (PORT_N, PORT_E, PORT_S, PORT_W)
                if self.neighbor(rid, p) is not None]

    def hops(self, a: int, b: int) -> int:
        """Minimal hop distance."""
        ax, ay = self.xy(a)
        bx, by = self.xy(b)
        return abs(ax - bx) + abs(ay - by)

    @property
    def diameter(self) -> int:
        return (self.rows - 1) + (self.cols - 1)

    # -- path helpers (used by FastPass lanes and Pitstop) ---------------
    def xy_path(self, src: int, dst: int) -> list[tuple[int, int]]:
        """Directed link list ``[(router, out_port), ...]`` of the XY route."""
        path = []
        x, y = self.xy(src)
        dx, dy = self.xy(dst)
        while x != dx:
            port = PORT_E if dx > x else PORT_W
            path.append((self.rid(x, y), port))
            x += 1 if dx > x else -1
        while y != dy:
            port = PORT_N if dy > y else PORT_S
            path.append((self.rid(x, y), port))
            y += 1 if dy > y else -1
        return path

    def yx_path(self, src: int, dst: int) -> list[tuple[int, int]]:
        """Directed link list of the YX route (vertical first)."""
        path = []
        x, y = self.xy(src)
        dx, dy = self.xy(dst)
        while y != dy:
            port = PORT_N if dy > y else PORT_S
            path.append((self.rid(x, y), port))
            y += 1 if dy > y else -1
        while x != dx:
            port = PORT_E if dx > x else PORT_W
            path.append((self.rid(x, y), port))
            x += 1 if dx > x else -1
        return path

    def hamiltonian_ring(self) -> list[int]:
        """A Hamiltonian cycle over the mesh (requires an even number of
        rows or columns), used by the DRAIN baseline's circulation.

        Built as a boustrophedon over rows 1..rows-1 restricted to columns
        1..cols-1, closed through row 0 / column 0.
        """
        if self.rows % 2 != 0 and self.cols % 2 != 0:
            raise ValueError("Hamiltonian ring needs an even dimension")
        if self.rows % 2 == 0:
            ring = [self.rid(0, y) for y in range(self.rows)]  # up column 0
            # snake back down through columns 1..cols-1
            for i, y in enumerate(reversed(range(self.rows))):
                xs = range(1, self.cols)
                if i % 2 == 1:
                    xs = reversed(xs)
                ring.extend(self.rid(x, y) for x in xs)
            return ring
        # transpose construction when only cols is even
        ring = [self.rid(x, 0) for x in range(self.cols)]
        for i, x in enumerate(reversed(range(self.cols))):
            ys = range(1, self.rows)
            if i % 2 == 1:
                ys = reversed(ys)
            ring.extend(self.rid(x, y) for y in ys)
        return ring

    def to_graph(self) -> "nx.Graph":
        """Undirected channel graph (each edge = a bidirectional channel)."""
        import networkx as nx    # ~170 ms: kept off every other start-up

        g = nx.Graph()
        g.add_nodes_from(range(self.n_routers))
        for rid in range(self.n_routers):
            for port in self.ports_of(rid):
                g.add_edge(rid, self.neighbor(rid, port))
        return g

    def __repr__(self) -> str:  # pragma: no cover
        return f"Mesh({self.rows}x{self.cols})"
