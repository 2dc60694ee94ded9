"""The route table against direct evaluation of the routing functions.

``repro.network.routing.route_table`` serves every router's candidate
moves from nine direction classes evaluated on a 3x3 reference mesh.
That is exact only while every routing function and move rule reads
nothing but ``sign(dx), sign(dy)``; these tests evaluate the rule on the
*real* mesh at every ``(rid, dst, vn, escape)`` and compare it with what
``Router.moves`` serves, for every routing function and every registered
scheme — generated from the registries, so a new entry is covered (and a
position-dependent one fails) without editing this file.
"""

from types import SimpleNamespace

import pytest

from repro.config import SimConfig
from repro.fault.plan import LINK_FLAP, FaultEvent, FaultPlan
from repro.network.routing import ROUTERS, route_xy, route_yx
from repro.network.topology import PORT_E, Mesh
from repro.schemes import get_scheme, scheme_names
from repro.sim.engine import build_network

from tests.conftest import make_network

MESHES = [(4, 4), (8, 8), (16, 16), (3, 5), (6, 4)]


def _probe(router, dst, vn, escape):
    """``router.moves`` for a VN-``vn`` packet to ``dst`` sitting in its
    VN's escape VC (``escape`` = 1) or anywhere else."""
    slot = SimpleNamespace(vc=vn * router._esc_stride if escape else -1)
    return router.moves(SimpleNamespace(dst=dst, vn=vn), slot)


def assert_moves_match_direct_evaluation(net) -> int:
    """Full ``(rid, dst, vn, escape)`` product; returns entries checked."""
    cfg, mesh = net.cfg, net.mesh
    rule = type(net.routers[0]).move_rule
    stride = net.routers[0]._esc_stride
    pkt, slot = SimpleNamespace(dst=0, vn=0), SimpleNamespace(vc=-1)
    checked = 0
    for router in net.routers:
        rid = router.id
        for dst in range(mesh.n_routers):
            pkt.dst = dst
            for vn in range(6):
                pkt.vn = vn
                for escape in (0, 1) if stride else (0,):
                    slot.vc = vn * stride if escape else -1
                    want = rule(net.routing_fn, mesh, rid, dst, vn, escape,
                                cfg.n_vns, cfg.n_vcs)
                    got = router.moves(pkt, slot)
                    if got != want:     # (a plain raise: ~1M probes a mesh)
                        raise AssertionError(
                            f"r{rid} dst{dst} vn{vn} esc{escape}: table "
                            f"serves {got}, direct evaluation gives {want}")
                    checked += 1
    return checked


@pytest.mark.parametrize("rows,cols", MESHES,
                         ids=[f"{r}x{c}" for r, c in MESHES])
def test_every_routing_function_and_scheme(rows, cols):
    cfg = SimConfig(rows=rows, cols=cols)
    nets = {f"routing:{name}": make_network(cfg, routing=name)
            for name in ROUTERS}
    for name in scheme_names():
        try:
            nets[f"scheme:{name}"] = build_network(cfg, get_scheme(name))
        except ValueError:
            # The scheme itself rejects this mesh (FastPass needs a
            # square one, DRAIN an even dimension).
            assert rows != cols, name
    assert "scheme:baseline" in nets and "scheme:escapevc" in nets
    # Networks of one derivation hold the same table object and the same
    # ``moves`` code: checking the pair once checks them all.
    distinct = {(id(net.routes), type(net.routers[0]).moves): net
                for net in nets.values()}
    for net in distinct.values():
        escapes = 2 if net.routers[0]._esc_stride else 1
        assert assert_moves_match_direct_evaluation(net) == \
            (rows * cols) ** 2 * 6 * escapes


def test_position_dependent_routing_is_caught():
    """The guard has teeth: a routing function that reads more than the
    direction signs (here the column parity, as an odd-even turn model
    would) is served wrongly by the table, and the comparison says so."""
    def route_by_column_parity(mesh, rid, dst):
        fn = route_xy if mesh.xy(rid)[0] % 2 == 0 else route_yx
        return fn(mesh, rid, dst)

    from repro.network.network import Network
    net = Network(SimConfig(rows=4, cols=4), Mesh(4, 4),
                  route_by_column_parity)
    with pytest.raises(AssertionError, match="direct evaluation"):
        assert_moves_match_direct_evaluation(net)


class TestCacheKeysCannotLeak:
    """Structures memoised for one derivation must never serve another.
    Builds that differ in exactly one key field run back to back in one
    process; each must get what a direct evaluation (which no cache can
    touch) gives it."""

    @pytest.mark.parametrize("first,second", [
        (("escapevc", {"n_vcs": 2}, 4), ("escapevc", {"n_vcs": 3}, 4)),
        (("fastpass", {"n_vcs": 2}, 4), ("fastpass", {"n_vcs": 4}, 4)),
        (("escapevc", {}, 4), ("escapevc", {}, 8)),
        (("fastpass", {}, 4), ("fastpass", {}, 8)),
        (("baseline", {}, 4), ("tfc", {}, 4)),
    ], ids=["escapevc-vcs", "fastpass-vcs", "escapevc-mesh",
            "fastpass-mesh", "routing-fn"])
    @pytest.mark.parametrize("engine", ["active", "soa"])
    def test_neighbouring_derivations(self, first, second, engine):
        from repro.sim.soa import SUPPORTED_SCHEMES
        from repro.sim.soa.tables import verify_tables
        nets = []
        for name, kwargs, n in (first, second, first):
            cfg = SimConfig(rows=n, cols=n, engine=engine)
            net = build_network(cfg, get_scheme(name, **kwargs))
            nets.append(net)
            assert_moves_match_direct_evaluation(net)
            assert len(net.routes.rows) == n * n
            if engine == "soa" and name in SUPPORTED_SCHEMES:
                assert verify_tables(net, net.soa.tables) > 0
                assert net.soa.tables.R == n * n
                assert net.soa.tables.V == net.cfg.total_vcs
            if name == "fastpass":
                mgr = net.fastpass
                assert mgr.schedule.K == net.cfg.fastpass_slot()
                assert mgr.schedule.P == n
                assert len(mgr._rt) == (n * n) ** 2
        a, b, a_again = nets
        assert a.routes is not b.routes
        # ... and builds of one derivation still share.
        assert a.routes is a_again.routes
        if first[0] == "fastpass":
            assert a.fastpass.schedule is a_again.fastpass.schedule
            assert a.fastpass._rt is a_again.fastpass._rt
            assert a.fastpass._rt is not b.fastpass._rt
        if a.soa is not None:
            assert a.soa.tables is a_again.soa.tables
            assert b.soa is None or a.soa.tables is not b.soa.tables


class TestDegradedModeBypassesTheTable:
    def _net(self):
        plan = FaultPlan(events=(FaultEvent(LINK_FLAP, 10, 5, PORT_E, 20),))
        return make_network(SimConfig(rows=4, cols=4, fault_plan=plan),
                            scheme=get_scheme("escapevc"))

    def test_cut_serves_live_lookups_heal_restores_table_tuples(self):
        net = self._net()
        router = net.routers[5]
        probes = [(dst, vn, esc) for dst in range(16)
                  for vn in (0, 3) for esc in (0, 1)]
        before = [_probe(router, *p) for p in probes]
        assert all(a is b for a, b in
                   zip(before, (_probe(router, *p) for p in probes)))

        while net.cycle <= 11:
            net.step()
        assert net.reroute is not None
        for (dst, vn, esc), healthy in zip(probes, before):
            live = _probe(router, dst, vn, esc)
            ports = {out for out, _vcs in live}
            if dst != 5:
                assert PORT_E not in ports      # around the dead link
                assert ports == set(net.reroute.ports(5, dst))
            if PORT_E in {out for out, _vcs in healthy}:
                assert live != healthy

        while net.cycle <= 31:
            net.step()
        assert net.reroute is None
        after = [_probe(router, *p) for p in probes]
        assert all(a is b for a, b in zip(before, after))
