"""Dense route tables for the SoA kernel.

The scalar router memoises candidate moves per ``(dst, vn, escape)`` as a
tuple of ``(out_port, downstream_vc_indices)`` pairs.  The kernel needs
the same information as a gather: for H head packets, one fancy-indexing
read must yield every head's move list.  This module re-encodes the
warmed memo dicts as rectangular arrays:

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

The tables are built from the ``vn=0`` memo entries and the structural
fact that every VN's entry is the vn-0 entry shifted by the VN base
(:func:`verify_tables` checks the full ``(dst, vn, esc)`` product against
the memos; the unit tests run it for every supported scheme).

``dport_base[rid, out]`` precomputes the flat SoA index of the first VC
slot of the downstream input port behind ``links_out[out]`` (``-1`` where
no link exists), so the kernel's credit scan is pure arithmetic.
"""

from __future__ import annotations

import numpy as np

from repro.network.topology import PORT_LOCAL

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
    """Immutable gather-friendly form of the warmed route memos.

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
    """Densify ``net``'s warmed route memos (``warm_routes`` must have
    run, which :class:`~repro.network.network.Network` guarantees)."""
    cfg = net.cfg
    routers = net.routers
    R = len(routers)
    V = cfg.total_vcs
    stride = routers[0]._esc_stride
    E = 2 if stride else 1

    flat_index_bound(R, V)
    t = DenseTables()
    t.R, t.V, t.E = R, V, E
    t.vn_spread = cfg.n_vns > 1
    # Per-VN first-VC offset; indexable for any vn < 6 (packets only ever
    # carry vn < n_vns, the padding keeps the gather in-bounds).
    t.vn_base = np.array(
        [vn * cfg.n_vcs if t.vn_spread and vn < cfg.n_vns else 0
         for vn in range(6)], dtype=np.int64)

    mv_out = np.full((R, R, E, MAX_MOVES), -1, dtype=np.int64)
    mv_rlo = np.zeros((R, R, E, MAX_MOVES), dtype=np.int64)
    mv_rhi = np.zeros((R, R, E, MAX_MOVES), dtype=np.int64)
    for rid, router in enumerate(routers):
        memo = router._mv_memo
        for dst in range(R):
            base_key = dst * 12          # (dst*6 + vn=0) * 2
            for e in range(E):
                mv = memo[base_key + e]
                if len(mv) > MAX_MOVES:
                    raise ValueError(
                        f"router {rid}: {len(mv)} moves for dst {dst} "
                        f"exceed the dense-table width {MAX_MOVES}")
                for k, (out, vcs) in enumerate(mv):
                    mv_out[rid, dst, e, k] = out
                    if out == PORT_LOCAL:
                        continue         # ejection: VC range unused
                    lo, hi = vcs[0], vcs[-1] + 1
                    if tuple(vcs) != tuple(range(lo, hi)):
                        raise ValueError(
                            f"router {rid}: non-contiguous VC preference "
                            f"{vcs} for dst {dst} cannot be densified")
                    mv_rlo[rid, dst, e, k] = lo
                    mv_rhi[rid, dst, e, k] = hi
    t.mv_out, t.mv_rlo, t.mv_rhi = mv_out, mv_rlo, mv_rhi

    dpb = np.full((R, 5), -1, dtype=np.int64)
    for rid, router in enumerate(routers):
        for out in range(1, 5):
            link = router.links_out[out]
            if link is not None:
                dpb[rid, out] = (link.dst * 5 + link.dst_port) * V
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
    return t


def verify_tables(net, t: DenseTables) -> int:
    """Cross-check the dense tables against every live memo entry.

    Reconstructs each ``(dst, vn, esc)`` move tuple from the arrays and
    compares it to the scalar memo verbatim.  Returns the number of
    entries checked (test hook; never called on the hot path).
    """
    cfg = net.cfg
    checked = 0
    for rid, router in enumerate(net.routers):
        memo = router._mv_memo
        for dst in range(t.R):
            for vn in range(cfg.n_vns):
                vb = int(t.vn_base[vn])
                for e in range(t.E):
                    expect = memo[(dst * 6 + vn) * 2 + e]
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
                                f"dense {got} != memo {expect}")
                    checked += 1
    return checked
