"""Dense route tables for the SoA kernel.

The scalar router reads candidate moves per ``(dst, vn, escape)`` from the
network's :class:`~repro.network.routing.RouteTable` as a tuple of
``(out_port, downstream_vc_indices)`` pairs.  The kernel needs the same
information as a gather: for H head packets, one fancy-indexing read must
yield every head's move list.  This module re-encodes the table as
rectangular arrays:

``mv_out[rid, dst, esc, k]``
    Output port of the k-th candidate move (``-1`` padding past the end;
    ``PORT_LOCAL`` = 0 can only appear at k = 0, and means ejection).

``mv_rlo/mv_rhi[rid, dst, esc, k]``
    Downstream VC range of the move, *relative to the packet's VN base*
    (half-open).  The scalar VC preference order is always a contiguous
    ascending run inside the packet's VN — asserted during the build — so
    two ints encode it exactly.  The VN base is ``vn * n_vcs`` when VNs
    partition the VC space and 0 when a single VN shares all VCs, so the
    absolute range is ``rel + vn_base[vn]``.

The arrays are encoded per direction class from the ``vn=0`` table
entries, spread over ``(rid, dst)`` with one gather through the class
matrix, and rely on the structural fact that every VN's entry is the vn-0
entry shifted by the VN base (:func:`verify_tables` checks the full
``(rid, dst, vn, esc)`` product against ``Router.moves``; the unit tests
run it for every supported scheme).

``dport_base[rid, out]`` precomputes the flat SoA index of the first VC
slot of the downstream input port behind ``links_out[out]`` (``-1`` where
no link exists), so the kernel's credit scan is pure arithmetic.
"""

from __future__ import annotations

from functools import lru_cache
from types import SimpleNamespace

import numpy as np

from repro.network.routing import N_CLASSES
from repro.network.topology import OPPOSITE, PORT_LOCAL, Mesh

#: widest move list in the tree: EscapeVC's adaptive entries concatenate
#: <=2 productive adaptive ports and <=2 west-first escape ports
MAX_MOVES = 4


def flat_index_bound(R: int, V: int) -> int:
    """Largest flat slot index the ``(router, port, vc)`` coordinate
    system can produce, with a loud guard against int64 overflow.

    The kernel's flat index is ``(rid * 5 + port) * V + vc`` and every
    derived table (``dport_base``, ``mv_plo/mv_phi``) lives in the same
    int64 space.  The bound is checked eagerly so a pathological mesh
    fails at build time with the computed value instead of silently
    wrapping inside a gather.
    """
    bound = R * 5 * V
    if bound >= np.iinfo(np.int64).max:
        raise OverflowError(
            f"flat SoA slot index space {bound} (R={R}, V={V}) "
            f"overflows int64 (max {np.iinfo(np.int64).max})")
    return bound


class DenseTables:
    """Immutable gather-friendly form of a route table.

    Beyond the raw move lists, the build precomputes every screen-ready
    derived view so the kernel's per-cycle refresh is pure gathering:

    ``mv_valid[rid, dst, esc, k]``
        The move exists, is not ejection, and its output link is wired.

    ``mv_ej[rid, dst, esc]``
        The head's first (only) move is ejection.

    ``mv_lidx[rid, dst, esc, k]``
        Flat ``(rid, out)`` index into the link-busy mirror.

    ``mv_plo/mv_phi[rid, dst, esc, k]``
        The move's downstream VC range as *flat slot indices* (half-open,
        ``dport_base`` already added; shift by the VN base for vn > 0):
        exactly the two positions the credit prefix sum is compared at,
        and the range the apply loop scans for the first free slot.
    """

    __slots__ = ("R", "V", "E", "vn_spread", "vn_base",
                 "mv_out", "mv_rlo", "mv_rhi", "dport_base", "dport_l",
                 "mv_valid", "mv_ej", "mv_lidx", "mv_plo", "mv_phi")


def build_tables(net) -> DenseTables:
    """The dense form of ``net.routes``, shared by every network of the
    same derivation in this process."""
    cfg = net.cfg
    return _dense_tables(net.routes, cfg.rows, cfg.cols, cfg.n_vns,
                         cfg.n_vcs, 2 if net.routers[0]._esc_stride else 1)


@lru_cache(maxsize=8)
def _dense_tables(routes, rows: int, cols: int, n_vns: int, n_vcs: int,
                  E: int) -> DenseTables:
    mesh = Mesh(rows, cols)
    R = mesh.n_routers
    V = n_vns * n_vcs

    flat_index_bound(R, V)
    t = DenseTables()
    t.R, t.V, t.E = R, V, E
    t.vn_spread = n_vns > 1
    # Per-VN first-VC offset; indexable for any vn < 6 (packets only ever
    # carry vn < n_vns, the padding keeps the gather in-bounds).
    t.vn_base = np.array(
        [vn * n_vcs if t.vn_spread and vn < n_vns else 0
         for vn in range(6)], dtype=np.int64)

    # Encode the nine direction classes, then one gather through the
    # class matrix spreads them over every (rid, dst) pair.
    c_out = np.full((N_CLASSES, E, MAX_MOVES), -1, dtype=np.int64)
    c_rlo = np.zeros((N_CLASSES, E, MAX_MOVES), dtype=np.int64)
    c_rhi = np.zeros((N_CLASSES, E, MAX_MOVES), dtype=np.int64)
    for c in range(N_CLASSES):
        for e in range(E):
            mv = routes.class_moves(c, 0, e)
            if len(mv) > MAX_MOVES:
                raise ValueError(
                    f"direction class {c}: {len(mv)} moves exceed the "
                    f"dense-table width {MAX_MOVES}")
            for k, (out, vcs) in enumerate(mv):
                c_out[c, e, k] = out
                if out == PORT_LOCAL:
                    continue         # ejection: VC range unused
                lo, hi = vcs[0], vcs[-1] + 1
                if tuple(vcs) != tuple(range(lo, hi)):
                    raise ValueError(
                        f"direction class {c}: non-contiguous VC "
                        f"preference {vcs} cannot be densified")
                c_rlo[c, e, k] = lo
                c_rhi[c, e, k] = hi
    cls = np.frombuffer(routes.class_ids(), dtype=np.uint8).reshape(R, R)
    mv_out = c_out[cls]
    mv_rlo, mv_rhi = c_rlo[cls], c_rhi[cls]
    t.mv_out, t.mv_rlo, t.mv_rhi = mv_out, mv_rlo, mv_rhi

    dpb = np.full((R, 5), -1, dtype=np.int64)
    for rid in range(R):
        for out in mesh.ports_of(rid):
            dpb[rid, out] = (mesh.neighbor(rid, out) * 5 + OPPOSITE[out]) * V
    t.dport_base = dpb
    t.dport_l = dpb.tolist()             # plain-int reads for the apply loop

    # Screen-ready derived views (vectorized over the whole table).
    rids = np.arange(R, dtype=np.int64)[:, None, None, None]
    out0 = np.maximum(mv_out, 0)
    dbase = dpb[rids, out0]
    t.mv_valid = (mv_out > 0) & (dbase >= 0)
    t.mv_ej = mv_out[:, :, :, 0] == 0
    t.mv_lidx = rids * 5 + out0
    dbase0 = np.maximum(dbase, 0)        # invalid rows: in-bounds garbage
    t.mv_plo = dbase0 + mv_rlo
    t.mv_phi = dbase0 + mv_rhi
    for name in DenseTables.__slots__:
        if isinstance(getattr(t, name), np.ndarray):
            getattr(t, name).flags.writeable = False   # shared process-wide
    return t


def verify_tables(net, t: DenseTables) -> int:
    """Cross-check the dense tables against the scalar routers.

    Reconstructs each ``(rid, dst, vn, esc)`` move tuple from the arrays
    and compares it to ``Router.moves`` verbatim.  Returns the number of
    entries checked (test hook; never called on the hot path).
    """
    cfg = net.cfg
    stride = net.routers[0]._esc_stride
    checked = 0
    for rid, router in enumerate(net.routers):
        for dst in range(t.R):
            for vn in range(cfg.n_vns):
                vb = int(t.vn_base[vn])
                for e in range(t.E):
                    # A packet in its VN's escape VC iff ``e`` is set.
                    expect = router.moves(
                        SimpleNamespace(dst=dst, vn=vn),
                        SimpleNamespace(vc=vn * stride) if e else None)
                    got = []
                    for k in range(MAX_MOVES):
                        out = int(t.mv_out[rid, dst, e, k])
                        if out < 0:
                            break
                        if out == PORT_LOCAL:
                            got.append((out, None))
                        else:
                            got.append((out, tuple(range(
                                int(t.mv_rlo[rid, dst, e, k]) + vb,
                                int(t.mv_rhi[rid, dst, e, k]) + vb))))
                    if len(got) != len(expect):
                        raise AssertionError(
                            f"r{rid} dst{dst} vn{vn} e{e}: "
                            f"{len(got)} dense moves vs {expect}")
                    for (go, gv), (eo, ev) in zip(got, expect):
                        if go != eo or (gv is not None
                                        and gv != tuple(ev)):
                            raise AssertionError(
                                f"r{rid} dst{dst} vn{vn} e{e}: "
                                f"dense {got} != moves {expect}")
                    checked += 1
    return checked
