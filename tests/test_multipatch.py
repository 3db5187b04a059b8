import warnings

import numpy as np
import pytest
from scipy import sparse
from scipy.sparse import csgraph
from scipy.sparse.linalg import splu

from eggmix.assembly import MixedSystem, boundary_values_from_faces, \
    single_patch_system
from eggmix.errors import InputError, KnotMismatchError, ModeError
from eggmix.io_cli import parse_geometry, solve
from eggmix.geometries import build_bat, build_two_patch_square
from eggmix.mapping import unit_square_map
from eggmix.multipatch import AffinePatchMap, Interface, _components, \
    build_restriction, build_topology, single_patch_topology
from eggmix.solver import SolverConfig, build_system_hierarchy, newton_solve
from eggmix.splines import TensorBasis, uniform_knots

from oracles import constant_blocks


def solved_maps(topology, boundary_data, config):
    """Per-patch maps of the direct solve from the transfinite start, and its
    report."""
    bvals = boundary_values_from_faces(topology, boundary_data)
    system, c, rep = solve(build_system_hierarchy(topology, bvals, 0),
                           "transfinite", config)
    control = system.full_control_net(c)
    return [topology.patch_map(i, control)
            for i in range(topology.n_patches)], rep


def linear_patch(ne=1):
    kv = uniform_knots(1, ne)
    return TensorBasis(kv, kv)


def two_patch_strip(p=1, ne=1):
    """Two unit patches glued east-west."""
    tb = TensorBasis(uniform_knots(p, ne), uniform_knots(p, ne))
    shift = AffinePatchMap(np.eye(2), np.array([1.0, 0.0]))
    return build_topology(
        [(tb, AffinePatchMap.identity()), (tb, shift)],
        [Interface(0, "east", 1, "west")])


def test_two_patch_dof_count():
    topo = two_patch_strip()
    assert topo.n_sigma == 6  # 2 * 4 local minus 2 shared


def test_bat_center_has_three_contributors():
    geo = parse_geometry(build_bat(n1=3, n2=3, n3=3))
    restriction = build_restriction(geo.topology)
    valences = sorted(len(w) for w in restriction.weights)
    assert valences[-1] == 3          # the extraordinary vertex
    assert valences.count(3) == 1


def test_bat_global_dimension_formula():
    p = 2
    n1, n2, n3 = 10, 11, 12
    geo = parse_geometry(build_bat(p, n1, n2, n3))
    topo = geo.topology
    local = sum(tb.dim for tb in topo.bases)
    expect = local - (n1 + p) - (n2 + p) - (n3 + p) + 1
    assert topo.n_sigma == expect


def test_interface_knot_mismatch_rejected():
    a = TensorBasis(uniform_knots(1, 2), uniform_knots(1, 2))
    b = TensorBasis(uniform_knots(1, 3), uniform_knots(1, 3))
    with pytest.raises(KnotMismatchError):
        build_topology([(a, None), (b, None)], [Interface(0, "east", 1, "west")])
    c = TensorBasis(uniform_knots(2, 2), uniform_knots(2, 2))
    with pytest.raises(KnotMismatchError):
        build_topology([(a, None), (c, None)], [Interface(0, "east", 1, "west")])


def test_duplicate_gluing_rejected():
    tb = linear_patch()
    with pytest.raises(InputError):
        build_topology(
            [(tb, None), (tb, None)],
            [Interface(0, "east", 1, "west"), Interface(0, "east", 1, "east")])


def test_disconnected_topology_rejected():
    tb = linear_patch()
    with pytest.raises(InputError):
        build_topology([(tb, None), (tb, None)], [])


def test_single_direction_mode_rejected_on_multipatch():
    topo = two_patch_strip(p=2, ne=2)
    bvals = np.zeros((len(topo.boundary_indices), 2))
    with pytest.raises(ModeError):
        MixedSystem(topo, bvals, mode="xi")


def test_restriction_weights():
    # equal determinants: plain averaging on the shared face
    topo = two_patch_strip()
    r = build_restriction(topo)
    counts = sorted(len(w) for w in r.weights)
    shared = [w for w in r.weights if len(w) == 2]
    assert shared and all(np.array_equal(w, [0.5, 0.5]) for w in shared)
    passthrough = [w for w in r.weights if len(w) == 1]
    assert all(w[0] == 1.0 for w in passthrough)
    # determinant-weighted: dets 1 and 3 give 0.25 / 0.75
    tb = linear_patch()
    stretch = AffinePatchMap(np.array([[3.0, 0.0], [0.0, 1.0]]),
                             np.array([1.0, 0.0]))
    topo2 = build_topology(
        [(tb, AffinePatchMap.identity()), (tb, stretch)],
        [Interface(0, "east", 1, "west")])
    r2 = build_restriction(topo2)
    shared2 = [w for w in r2.weights if len(w) == 2]
    assert shared2 and all(np.allclose(w, [0.25, 0.75]) for w in shared2)
    for w in r2.weights:
        assert w.sum() == 1.0  # exact unit sum by construction


def test_degenerate_single_patch_bitwise():
    tb = TensorBasis(uniform_knots(2, 3), uniform_knots(2, 3))
    m = unit_square_map(tb)
    rng = np.random.default_rng(12)
    m.control[m.inner_indices] += 0.1 * rng.standard_normal(
        (len(m.inner_indices), 2))
    s_single = single_patch_system(m)
    topo = build_topology([(tb, AffinePatchMap.identity())], [])
    s_multi = MixedSystem(topo, m.control[topo.boundary_indices])
    c0 = s_single.net_as_c(m.control[m.inner_indices])
    d0 = s_single.project_d(c0)
    d1 = s_multi.project_d(c0)
    np.testing.assert_array_equal(d0, d1)
    np.testing.assert_array_equal(s_single.eval_RN(d0, c0),
                                  s_multi.eval_RN(d1, c0))
    c_a, rep_a = newton_solve(s_single, c0.copy(), SolverConfig())
    c_b, rep_b = newton_solve(s_multi, c0.copy(), SolverConfig())
    np.testing.assert_array_equal(c_a, c_b)
    assert rep_a.residual_norms == rep_b.residual_norms
    assert rep_a.step_norms == rep_b.step_norms


def test_rotated_patch_pullback_equivariance():
    kv = uniform_knots(2, 4)
    tb = TensorBasis(kv, kv)
    m = unit_square_map(tb)
    topoA = single_patch_topology(tb)
    sysA = MixedSystem(topoA, m.control[topoA.boundary_indices])
    CA = tb.greville_grid().copy()
    bump = 0.07 * np.sin(3 * np.pi * CA[:, 0]) * np.cos(2 * np.pi * CA[:, 1])
    CA += np.stack([bump, -0.5 * bump], axis=1)
    CA[topoA.boundary_indices] = m.control[topoA.boundary_indices]
    cA = sysA.net_as_c(CA[topoA.inner_indices])
    dA = sysA.project_d(cA)
    # same discrete problem with the patch parameterized through a rotation:
    # m(s, t) = (1 - t, s), so coefficients transpose and flip
    rot = AffinePatchMap(np.array([[0.0, -1.0], [1.0, 0.0]]),
                         np.array([1.0, 0.0]))
    topoB = build_topology([(tb, rot)], [])
    CB = np.transpose(CA.reshape(kv.dim, kv.dim, 2)[::-1], (1, 0, 2)).reshape(-1, 2)
    sysB = MixedSystem(topoB, CB[topoB.boundary_indices])
    cB = sysB.net_as_c(CB[topoB.inner_indices])
    dB = sysB.project_d(cB)
    assert abs(np.linalg.norm(sysA.eval_RN(dA, cA))
               - np.linalg.norm(sysB.eval_RN(dB, cB))) < 1e-12
    assert abs(np.linalg.norm(sysA.eval_RL(dA, cA))
               - np.linalg.norm(sysB.eval_RL(dB, cB))) < 1e-12


def test_ainv_b_exact_on_single_patch(rng):
    sys_ = single_patch_system(unit_square_map(
        TensorBasis(uniform_knots(2, 2), uniform_knots(2, 2))))
    s = rng.standard_normal(sys_.c_size)
    got = sys_.apply_ainv_b(s)
    A, B, _ = constant_blocks(sys_)
    ref = np.linalg.solve(A.toarray(), B.toarray() @ s)
    assert np.abs(got - ref).max() < 1e-11 * max(1.0, np.abs(ref).max())


def test_ainv_b_symmetric_on_two_patch_square():
    geo = parse_geometry(build_two_patch_square(2, 2))
    bv = boundary_values_from_faces(geo.topology, geo.boundary_data)
    sys_ = MixedSystem(geo.topology, bv)
    topo = geo.topology
    # an s-field symmetric under the mirror that swaps the two patches
    net = np.zeros((topo.n_sigma, 2))
    grid0 = topo.maps[0].apply(topo.bases[0].greville_grid())
    for p in range(2):
        grid = topo.maps[p].apply(topo.bases[p].greville_grid())
        vals = np.sin(np.pi * grid[:, 0]) * grid[:, 1] * (1 - grid[:, 1])
        net[topo.sig_l2g[p], 0] = vals
    s = sys_.net_as_c(net[topo.inner_indices])
    q = sys_.apply_ainv_b(s).reshape(4, -1)
    # the xi-derivative of the mirror-even field is mirror-odd
    ux = q[0]
    for g_left, g_right in zip(topo.bar_l2g[0].reshape(
            topo.bar_bases[0].n_xi, -1),
            topo.bar_l2g[1].reshape(topo.bar_bases[1].n_xi, -1)[::-1]):
        np.testing.assert_allclose(ux[g_left], -ux[g_right], atol=1e-11)


def test_ainv_b_coupled_projection_residual_ratio(capsys):
    geo = parse_geometry(build_bat(2, 4, 4, 4))
    bv = boundary_values_from_faces(geo.topology, geo.boundary_data)
    sys_ = MixedSystem(geo.topology, bv)
    rng = np.random.default_rng(3)
    s = rng.standard_normal(sys_.c_size)
    y = sys_.apply_ainv_b(s)
    A, B, _ = constant_blocks(sys_)
    num = np.linalg.norm(A @ y - B @ s)
    den = np.linalg.norm((B @ s))
    ratio = num / den
    print(f"coupled-projection residual ratio: {ratio:.3e}")
    assert np.isfinite(ratio) and ratio < 1e-12


@pytest.mark.parametrize("builder", [build_bat, build_two_patch_square])
def test_ainv_exact_matches_dense_coupled_mass(builder, rng):
    geo = parse_geometry(builder())
    bv = boundary_values_from_faces(geo.topology, geo.boundary_data)
    sys_ = MixedSystem(geo.topology, bv)
    n = geo.topology.n_sigbar
    tilde = rng.standard_normal((sys_.n_fields, geo.topology.n_tilde))
    calls = []
    solve = sys_._mass_pcg

    def counting_solve(b):
        calls.append(b.shape)
        return solve(b)

    sys_._mass_pcg = counting_solve
    got = sys_.ainv_exact(tilde)
    # every field in one call of the one solve entry
    assert calls == [(sys_.n_fields, geo.topology.n_tilde)]
    A, _, _ = constant_blocks(sys_)
    mass = A.toarray()[:n, :n]
    ref = np.linalg.solve(mass, sys_.reduce_tilde(tilde).T).T
    assert got.shape == ref.shape
    assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()


def reversed_rectangle():
    """Two unit patches forming [0, 2] x [0, 1]: patch 1 is rotated by 180
    degrees, so the shared segment runs against patch 0's east face and
    needs the reversed flag. Returns the topology and the boundary curves
    of the identity map."""
    kv = uniform_knots(2, 3)
    tb = TensorBasis(kv, kv)
    rot = AffinePatchMap(np.array([[-1.0, 0.0], [0.0, -1.0]]),
                         np.array([2.0, 1.0]))
    topo = build_topology(
        [(tb, AffinePatchMap.identity()), (tb, rot)],
        [Interface(0, "east", 1, "east", reversed=True)])
    g = kv.greville
    boundary = {}
    for p in range(2):
        for face in topo.unglued_faces[p]:
            idx = tb.face_indices(face)
            pts = np.stack([g[idx // tb.n_eta], g[idx % tb.n_eta]], axis=1)
            boundary[(p, face)] = topo.maps[p].apply(pts)
    return topo, boundary


def geometry_system(doc, level=0):
    """Mixed system of a geometry document, h-refined ``level`` times."""
    geo = parse_geometry(doc)
    bv = boundary_values_from_faces(geo.topology, geo.boundary_data)
    return build_system_hierarchy(geo.topology, bv, level)[-1].system


def reversed_rectangle_system():
    topo, boundary = reversed_rectangle()
    return MixedSystem(topo, boundary_values_from_faces(topo, boundary))


MASS_CASES = {
    "bat-L0": lambda: geometry_system(build_bat()),
    "bat-L1": lambda: geometry_system(build_bat(), 1),
    "two_patch_square": lambda: geometry_system(build_two_patch_square()),
    "reversed_rectangle": reversed_rectangle_system,
    "bat-p3-uneven": lambda: geometry_system(build_bat(3, 3, 5, 8)),
}


def coupled_mass(system):
    """Sparse coupled auxiliary mass of one field."""
    A, _, _ = constant_blocks(system)
    n = system.topology.n_sigbar
    return A[:n, :n].tocsc()


@pytest.mark.parametrize("case", sorted(MASS_CASES))
def test_condensed_mass_matches_direct_solve(case, rng):
    sys_ = MASS_CASES[case]()
    assert len(sys_._gamma) > 0
    tilde = rng.standard_normal((sys_.n_fields, sys_.topology.n_tilde))
    got = sys_.ainv_exact(tilde)
    mass = coupled_mass(sys_)
    rhs = sys_.reduce_tilde(tilde).T
    # dense where it fits in memory, a sparse LU at bat L1 (n = 6000)
    if mass.shape[0] <= 3000:
        ref = np.linalg.solve(mass.toarray(), rhs).T
    else:
        ref = splu(mass).solve(rhs).T
    assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()


@pytest.mark.parametrize("level, n_gamma", [(0, 70), (1, 136)])
def test_interface_schur_complement_is_spd(level, n_gamma):
    sys_ = geometry_system(build_bat(), level)
    gamma = sys_._gamma
    assert len(gamma) == n_gamma
    # the factored S_Gamma against A_GG - A_GI A_II^-1 A_IG of the coupled mass
    factor = np.tril(sys_._gamma_factor[0])
    mass = coupled_mass(sys_)
    inner = np.setdiff1d(np.arange(mass.shape[0]), gamma)
    a_ig = mass[inner][:, gamma].toarray()
    ref = (mass[gamma][:, gamma].toarray()
           - a_ig.T @ splu(mass[inner][:, inner].tocsc()).solve(a_ig))
    assert np.abs(ref - ref.T).max() <= 1e-14 * np.abs(ref).max()
    assert np.linalg.eigvalsh(ref).min() > 0.0
    assert np.abs(factor @ factor.T - ref).max() <= 1e-13 * np.abs(ref).max()


@pytest.mark.parametrize("mode", ["full", "xi"])
def test_single_patch_mass_solve_is_the_kronecker_solve(mode, rng):
    tb = TensorBasis(uniform_knots(2, 3), uniform_knots(2, 5))
    sys_ = single_patch_system(unit_square_map(tb), mode=mode)
    ctx = sys_.patches[0]
    bb = sys_.topology.bar_bases[0]
    assert len(sys_._gamma) == 0
    assert (ctx.kron.n_xi, ctx.kron.n_eta) == (bb.n_xi, bb.n_eta)
    tilde = rng.standard_normal((sys_.n_fields, sys_.topology.n_tilde))
    want = ctx.kron.solve_block(tilde)
    assert sys_.ainv_exact(tilde).tobytes() == want.tobytes()


def test_reversed_interface_two_patch_rectangle():
    topo, boundary = reversed_rectangle()
    tb = topo.bases[0]
    assert topo.n_sigma == 2 * tb.dim - tb.n_eta
    maps, rep = solved_maps(topo, boundary, SolverConfig(newton_tol=1e-10))
    assert rep.converged
    ts = np.linspace(0, 1, 17)
    for p, m in enumerate(maps):
        X = m.grid_jet(ts, ts, 0)["x"]
        tgt = topo.maps[p].apply(
            np.stack(np.meshgrid(ts, ts, indexing="ij"), axis=-1).reshape(-1, 2)
        ).reshape(len(ts), len(ts), 2)
        assert np.abs(X - tgt).max() < 1e-9
    shared_a = maps[0].grid_jet([1.0], ts, 0)["x"][0]
    shared_b = maps[1].grid_jet([1.0], ts[::-1], 0)["x"][0]
    assert np.abs(shared_a - shared_b).max() < 1e-12


def test_two_patch_square_solves_to_identity():
    geo = parse_geometry(build_two_patch_square())
    maps, rep = solved_maps(geo.topology, geo.boundary_data,
                            SolverConfig(newton_tol=1e-10))
    assert rep.converged
    ts = np.linspace(0, 1, 21)
    for p, m in enumerate(maps):
        X = m.grid_jet(ts, ts, 0)["x"]
        tgt = np.stack(np.meshgrid(0.5 * ts + 0.5 * p, ts, indexing="ij"),
                       axis=-1)
        assert np.abs(X - tgt).max() < 1e-9
    edge = maps[0].grid_jet([1.0], ts, 0)["x"][0]
    assert np.abs(edge[:, 0] - 0.5).max() < 1e-12


def test_interface_continuity_of_solved_maps(bat_solved):
    topo = bat_solved.topology
    ts = np.linspace(0.0, 1.0, 100)
    for itf in topo.interfaces:
        ma = topo.patch_map(itf.patch_a, bat_solved.control)
        mb = topo.patch_map(itf.patch_b, bat_solved.control)
        A = ma.grid_jet([0.0], ts, 0)["x"][0]       # west face, param t
        B = mb.grid_jet(ts, [0.0], 0)["x"][:, 0]    # south face, param s
        assert np.abs(A - B).max() <= 1e-12


def test_affine_equivariance_under_rigid_motion():
    doc = build_bat(2, 4, 4, 4)
    geo = parse_geometry(doc)
    maps0, rep0 = solved_maps(geo.topology, geo.boundary_data,
                              SolverConfig(newton_tol=1e-9))
    th = 0.7
    R = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
    t = np.array([0.3, -1.1])
    patches = [(tb, AffinePatchMap(R @ am.A, R @ am.b + t))
               for tb, am in zip(geo.topology.bases, geo.topology.maps)]
    topo_r = build_topology(patches, geo.topology.interfaces)
    bd_r = {k: v @ R.T + t for k, v in geo.boundary_data.items()}
    maps1, rep1 = solved_maps(topo_r, bd_r, SolverConfig(newton_tol=1e-9))
    assert rep0.converged and rep1.converged
    for m0, m1 in zip(maps0, maps1):
        np.testing.assert_allclose(m1.control, m0.control @ R.T + t, atol=1e-9)


def test_patchwise_bijectivity_of_bundled_solves(bat_solved, lbend_solved):
    from eggmix.mapping import sampled_bijectivity
    for i in range(bat_solved.topology.n_patches):
        rep = sampled_bijectivity(bat_solved.patch_map(i), 5)
        assert rep.fold_count == 0 and rep.min_detj > 0
    rep = sampled_bijectivity(lbend_solved.patch_map(0), 5)
    assert rep.fold_count == 0 and rep.min_detj > 0


def test_convexity_warning_on_l_shaped_union():
    tb = linear_patch(2)
    shift_x = AffinePatchMap(np.eye(2), np.array([1.0, 0.0]))
    shift_y = AffinePatchMap(np.eye(2), np.array([0.0, 1.0]))
    topo = build_topology(
        [(tb, AffinePatchMap.identity()), (tb, shift_x), (tb, shift_y)],
        [Interface(0, "east", 1, "west"), Interface(0, "north", 2, "south")])
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert topo.convexity_warning()
    assert any("nonconvex" in str(w.message) for w in caught)
    # convex unions stay quiet
    topo2 = two_patch_strip()
    with warnings.catch_warnings(record=True) as caught2:
        warnings.simplefilter("always")
        assert not topo2.convexity_warning()
    assert not caught2


def test_components_match_csgraph():
    # random graphs with isolated nodes, self-loops and repeated edges, a
    # shuffled path (the longest label propagation) and the smallest graphs
    rng = np.random.default_rng(3)
    cases = [(1, []), (1, [(0, 0)]), (4, []), (2, [(1, 0)])]
    for _ in range(300):
        n = int(rng.integers(1, 80))
        cases.append((n, rng.integers(0, n, size=(int(rng.integers(0, n + 1)), 2))))
    path = rng.permutation(500)
    cases.append((500, np.stack([path[:-1], path[1:]], axis=1)))
    for n, edges in cases:
        e = np.asarray(edges, dtype=int).reshape(-1, 2)
        graph = sparse.coo_matrix((np.ones(len(e)), (e[:, 0], e[:, 1])), shape=(n, n))
        n_want, want = csgraph.connected_components(graph, directed=False)
        n_got, got = _components(n, edges)
        assert n_got == n_want
        np.testing.assert_array_equal(got, want)
