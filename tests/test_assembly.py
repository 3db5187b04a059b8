import dataclasses

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from eggmix import assembly
from eggmix.assembly import MixedSystem, boundary_values_from_faces, \
    build_quadrature, single_patch_system
from eggmix.errors import InputError, ModeError
from eggmix.io_cli import parse_geometry
from eggmix.geometries import BUILDERS, build_bat, build_lbend, \
    build_quarter_annulus, exact_annulus_map
from eggmix.mapping import unit_square_map
from eggmix.multipatch import AffinePatchMap, build_topology
from eggmix.settings import MODES
from eggmix.splines import KnotVector, TensorBasis, uniform_knots

from conftest import dense_laplacian, knot_vectors
from oracles import boundary_c, constant_blocks, dense_row, \
    greville_interpolate_2d, loop_univariate_matrices, \
    reference_univariate_integral


def square_system(p=2, ne=3, mode="full", **kw):
    tb = TensorBasis(uniform_knots(p, ne), uniform_knots(p, ne))
    m = unit_square_map(tb)
    return single_patch_system(m, mode=mode, **kw), m


def test_quadrature_points_interior_weights_positive():
    tb = TensorBasis(uniform_knots(3, 2, c0_breaks=(0.5,)), uniform_knots(3, 3))
    bar = tb.refine()[0]
    cache = build_quadrature(tb, bar)
    weights = np.multiply.outer(cache.xi.weights, cache.eta.weights)
    assert (weights > 0).all()
    # per element, the tensor weights sum to the element area
    fx, fy = cache.xi, cache.eta
    per_element = weights.reshape(fx.n_spans, fx.nq, fy.n_spans, fy.nq).sum(axis=(1, 3))
    areas = np.multiply.outer(np.diff(bar.kv_xi.breakpoints),
                              np.diff(bar.kv_eta.breakpoints))
    np.testing.assert_allclose(per_element, areas, atol=1e-15)
    assert abs(weights.sum() - 1.0) < 1e-13  # unit square area
    # strictly element-interior: no point sits on any knot line
    kx = bar.kv_xi.breakpoints
    for v in cache.xi.points:
        assert np.abs(kx - v).min() > 1e-10


def test_quadrature_integrates_bilinear_exactly():
    tb = TensorBasis(uniform_knots(1, 1), uniform_knots(1, 1))
    cache = build_quadrature(tb, tb.refine()[0])
    val = np.sum(np.multiply.outer(cache.xi.weights * cache.xi.points,
                                   cache.eta.weights * cache.eta.points))
    assert abs(val - 0.25) < 1e-15


def test_mass_of_constant_is_area():
    sys_, _ = square_system(2, 3)
    A, _, _ = constant_blocks(sys_)
    nbar = sys_.topology.n_sigbar
    ones = np.ones(nbar)
    total = ones @ (A[:nbar, :nbar] @ ones)
    assert abs(total - 1.0) < 1e-13


def test_hat_mass_matrix():
    kv = KnotVector(1, [0, 0, 1, 1])
    tb = TensorBasis(kv, kv)
    sys_ = MixedSystem(build_topology([(tb, None)], []),
                       unit_square_map(tb).control[tb.boundary_indices])
    mbar_1d = reference_univariate_integral(sys_.topology.bar_bases[0].kv_xi,
                                            sys_.topology.bar_bases[0].kv_xi)
    # the univariate auxiliary factor on [0, 1] for a refined p=1 basis has
    # the classic hat overlap pattern; check the unrefined case directly
    M = reference_univariate_integral(kv, kv)
    np.testing.assert_allclose(M, [[1 / 3, 1 / 6], [1 / 6, 1 / 3]], atol=1e-15)
    assert mbar_1d.shape == (3, 3)


def test_derivative_matrix_column_sums_vanish_for_interior():
    sys_, _ = square_system(2, 3)
    _, B, B_bnd = constant_blocks(sys_)
    topo = sys_.topology
    nbar = topo.n_sigbar
    # first field block row of B holds the xi-derivative columns of the
    # inner DOFs; sum over test functions = integral of the derivative
    col_sums = np.asarray(B[:nbar, : sys_.n_inner].sum(axis=0)).ravel()
    tb = topo.bases[0]
    for k, j in enumerate(topo.inner_indices):
        j_xi = j // tb.n_eta
        edge = dense_row(tb.kv_xi, 1.0)[j_xi] - dense_row(tb.kv_xi, 0.0)[j_xi]
        mass_eta = reference_univariate_integral(tb.kv_eta, tb.kv_eta)[0].sum()
        assert abs(col_sums[k] - edge * np.nan_to_num(mass_eta, nan=0.0)) < 1e-12 \
            or abs(col_sums[k]) < 1e-12
        # interior in xi means the edge term itself vanishes
        if 0 < j_xi < tb.n_xi - 1:
            assert abs(col_sums[k]) < 1e-13


def test_mass_matches_reference_quadrature():
    kv = uniform_knots(3, 4)
    tb = TensorBasis(kv, kv)
    sys_ = MixedSystem(build_topology([(tb, None)], []),
                       unit_square_map(tb).control[tb.boundary_indices])
    A, _, _ = constant_blocks(sys_)
    bb = sys_.topology.bar_bases[0]
    ref_1d = reference_univariate_integral(bb.kv_xi, bb.kv_xi)
    ref = np.kron(ref_1d, ref_1d)
    nbar = sys_.topology.n_sigbar
    assert np.abs(A[:nbar, :nbar].toarray() - ref).max() < 1e-13


def test_mass_times_ones_gives_basis_integrals():
    sys_, _ = square_system(3, 2)
    A, _, _ = constant_blocks(sys_)
    bb = sys_.topology.bar_bases[0]
    nbar = sys_.topology.n_sigbar
    got = A[:nbar, :nbar] @ np.ones(nbar)
    ints_x = reference_univariate_integral(bb.kv_xi, bb.kv_xi).sum(axis=1)
    ints_y = reference_univariate_integral(bb.kv_eta, bb.kv_eta).sum(axis=1)
    ref = np.kron(ints_x, ints_y)
    assert np.abs(got - ref).max() < 1e-13


def test_eval_RL_zero_for_consistent_state():
    sys_, m = square_system(2, 3)
    c = sys_.net_as_c(m.control[m.inner_indices])
    d = sys_.project_d(c)
    assert np.abs(sys_.eval_RL(d, c)).max() < 1e-12


def test_eval_RL_zero_state_gives_boundary_term():
    sys_, _ = square_system(2, 3)
    d = np.zeros(sys_.d_size)
    c = np.zeros(sys_.c_size)
    _, _, B_bnd = constant_blocks(sys_)
    expect = -(B_bnd @ boundary_c(sys_))
    np.testing.assert_allclose(sys_.eval_RL(d, c), expect, atol=1e-14)


def test_eval_RL_matches_direct_quadrature_oracle(rng):
    sys_, m = square_system(2, 2)
    topo = sys_.topology
    d = rng.standard_normal(sys_.d_size)
    c = rng.standard_normal(sys_.c_size)
    got = sys_.eval_RL(d, c)
    # direct loop: int wbar_i (u - x_xi) and (v - x_eta) per component
    tb, bb = topo.bases[0], topo.bar_bases[0]
    net = sys_.full_control_net(c)
    q = np.polynomial.legendre.leggauss(8)
    pts = 0.5 * (q[0] + 1)
    wts = 0.5 * q[1]
    nbar = topo.n_sigbar
    ref = np.zeros(4 * nbar)
    breaks = bb.kv_xi.breakpoints
    for ax, bx in zip(breaks[:-1], breaks[1:]):
        for ay, by in zip(breaks[:-1], breaks[1:]):
            for qx, wx in zip(ax + (bx - ax) * pts, (bx - ax) * wts):
                for qy, wy in zip(ay + (by - ay) * pts, (by - ay) * wts):
                    # every basis function's value at (qx, qy), flat order
                    w_xi = np.outer(dense_row(tb.kv_xi, qx, 1),
                                    dense_row(tb.kv_eta, qy)).ravel()
                    w_eta = np.outer(dense_row(tb.kv_xi, qx),
                                     dense_row(tb.kv_eta, qy, 1)).ravel()
                    wb = np.outer(dense_row(bb.kv_xi, qx),
                                  dense_row(bb.kv_eta, qy)).ravel()
                    x_xi = w_xi @ net
                    x_eta = w_eta @ net
                    for f, (dcomp, comp) in enumerate(
                            [("xi", 0), ("xi", 1), ("eta", 0), ("eta", 1)]):
                        u = wb @ d[f * nbar:(f + 1) * nbar]
                        tgt = x_xi[comp] if dcomp == "xi" else x_eta[comp]
                        ref[f * nbar: (f + 1) * nbar] += wx * wy * wb * (u - tgt)
    np.testing.assert_allclose(got, ref, atol=1e-13)


@settings(max_examples=15, deadline=None)
@given(st.floats(-3, 3), st.floats(-3, 3), st.integers(0, 2 ** 31 - 1))
def test_eval_RL_linearity(alpha, beta, seed):
    rng = np.random.default_rng(seed)
    sys_, _ = square_system(1, 2)
    c = rng.standard_normal(sys_.c_size)
    d1 = rng.standard_normal(sys_.d_size)
    d2 = rng.standard_normal(sys_.d_size)
    lhs = sys_.eval_RL(alpha * d1 + beta * d2, c)
    rhs = (alpha * sys_.eval_RL(d1, c) + beta * sys_.eval_RL(d2, c)
           + (alpha + beta - 1.0) * -sys_.eval_RL(np.zeros(sys_.d_size), c))
    # rearranged: RL(a d1 + b d2, c) = a RL(d1,c) + b RL(d2,c) - (a+b-1) RL(0,c)
    scale = max(1.0, np.abs(lhs).max())
    assert np.abs(lhs - rhs).max() < 1e-10 * scale


@pytest.mark.filterwarnings("ignore:affine patch map reverses orientation")
@settings(max_examples=25, deadline=None)
@given(knot_vectors(), knot_vectors(), st.sampled_from(MODES),
       st.floats(0.0, 2 * np.pi), st.floats(0.5, 2.0), st.floats(0.5, 2.0),
       st.floats(-0.5, 0.5), st.booleans(), st.integers(0, 2 ** 31 - 1))
def test_linear_blocks_on_random_patch(kv_xi, kv_eta, mode, angle, s1, s2, shear,
                                       reflect, seed):
    # one patch under a random affine map: the rotation makes the inverse
    # Jacobian off-diagonal, a reflection gives det < 0 (vol = |det|)
    other = {"xi": kv_eta, "eta": kv_xi}.get(mode)
    assume(other is None or other.max_interior_multiplicity() <= other.degree - 1)
    rot = np.array([[np.cos(angle), -np.sin(angle)], [np.sin(angle), np.cos(angle)]])
    flip = np.diag([1.0, -1.0 if reflect else 1.0])
    rng = np.random.default_rng(seed)
    am = AffinePatchMap(rot @ np.array([[s1, shear], [0.0, s2]]) @ flip,
                        rng.uniform(-1, 1, 2))
    tb = TensorBasis(kv_xi, kv_eta)
    topo = build_topology([(tb, am)], [])
    net = am.apply(unit_square_map(tb).control)
    net += 0.05 * rng.standard_normal(net.shape)
    system = MixedSystem(topo, net[topo.boundary_indices], mode=mode)
    A, B, B_bnd = constant_blocks(system)
    c = system.net_as_c(net[topo.inner_indices])
    d = rng.standard_normal(system.d_size)
    s = rng.standard_normal(system.c_size)

    def close(got, want):
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()

    close(system.eval_RL(d, c), A @ d - B @ c - B_bnd @ boundary_c(system))
    q = system.apply_ainv_b(s)
    close(q, np.linalg.solve(A.toarray(), B @ s))
    # a later solve leaves the result of the earlier one as it was
    kept = q.copy()
    system.apply_ainv_b(2.0 * s + 1.0)
    assert np.array_equal(q, kept)
    bnd = net[topo.boundary_indices] - net[topo.boundary_indices[0]]
    close(system.residual_scale(),
          np.linalg.norm(B_bnd @ np.concatenate([bnd[:, 0], bnd[:, 1]])))


def test_eval_RN_identity_state_residual_below_projection_error():
    for mode in ("full", "xi", "eta"):
        sys_, m = square_system(2, 3, mode=mode)
        c = sys_.net_as_c(m.control[m.inner_indices])
        d = sys_.project_d(c)
        assert np.abs(sys_.eval_RN(d, c)).max() < 1e-10


def test_chi_variants_differ_but_agree_on_identity(rng):
    tb = TensorBasis(uniform_knots(2, 3), uniform_knots(2, 3))
    m = unit_square_map(tb)
    res = {}
    for chi in (0.0, 1.0):
        sys_ = single_patch_system(m, mode="full", chi=chi)
        c_id = sys_.net_as_c(m.control[m.inner_indices])
        d_id = sys_.project_d(c_id)
        assert np.abs(sys_.eval_RN(d_id, c_id)).max() < 1e-10
        rng_local = np.random.default_rng(11)
        c = c_id + 0.2 * rng_local.standard_normal(sys_.c_size)
        d = d_id + 0.1 * rng_local.standard_normal(sys_.d_size)
        res[chi] = sys_.eval_RN(d, c)
    assert np.abs(res[0.0] - res[1.0]).max() > 1e-6


def test_denominator_floor(rng):
    sys_, m = square_system(2, 3, mode="full", mu=1e-4)
    c = rng.standard_normal(sys_.c_size)
    d = rng.standard_normal(sys_.d_size)
    sys_.eval_RN(d, c)
    assert sys_.min_denominator() >= sys_.mu


def test_min_denominator_refuses_without_a_residual_pass():
    # the minimum is read from the metric a residual pass leaves behind
    sys_, _ = square_system(2, 3, mode="full", mu=1e-4)
    with pytest.raises(RuntimeError, match="call eval_RN first"):
        sys_.min_denominator()


def test_scaling_consistency():
    geo = parse_geometry(build_quarter_annulus(2, 4))
    from eggmix.assembly import boundary_values_from_faces
    from eggmix.solver import SolverConfig, newton_solve, transfinite_global
    bv = boundary_values_from_faces(geo.topology, geo.boundary_data)
    sys_ = MixedSystem(geo.topology, bv, mode="full", mu=1e-4)
    c0 = sys_.net_as_c(transfinite_global(sys_)[geo.topology.inner_indices])
    c, rep = newton_solve(sys_, c0, SolverConfig(newton_tol=1e-10))
    d = sys_.project_d(c)
    r0 = np.linalg.norm(sys_.eval_RN(d, c))
    s = 3.0
    sys_s = MixedSystem(geo.topology, s * bv, mode="full", mu=1e-4 * s * s)
    # converged state stays converged after scaling (the zero set is unchanged)
    assert np.linalg.norm(sys_s.eval_RN(s * d, s * c)) <= 10 * s * max(r0, 1e-14)
    # at an O(1) state the residual scales exactly linearly with s
    rng = np.random.default_rng(6)
    c_r = c + 0.2 * rng.standard_normal(sys_.c_size)
    d_r = d + 0.1 * rng.standard_normal(sys_.d_size)
    r_plain = sys_.eval_RN(d_r, c_r)
    r_scaled = sys_s.eval_RN(s * d_r, s * c_r)
    np.testing.assert_allclose(r_scaled, s * r_plain, rtol=1e-10, atol=1e-13)


def test_element_order_independence(rng):
    sys_, m = square_system(2, 3)
    c = sys_.net_as_c(m.control[m.inner_indices]) \
        + 0.1 * rng.standard_normal(sys_.c_size)
    d = sys_.project_d(c) + 0.05 * rng.standard_normal(sys_.d_size)
    r1 = sys_.eval_RN(d, c)
    K1 = dense_laplacian(sys_, c)
    # permute whole xi spans of a second system before its kernels first
    # run, which fixes their plans and the Laplacian's pair factors: the
    # span tables, the factor rows and the weights, and walk the permuted
    # spans in strips of two spans each; the square's xi and eta share
    # their factors, so the xi side gets a permuted copy
    sys_ = square_system(2, 3)[0]
    ctx = sys_.patches[0]
    fx = ctx.cache.xi
    assert fx is ctx.cache.eta
    spans = rng.permutation(fx.n_spans)
    perm = (spans[:, None] * fx.nq + np.arange(fx.nq)).ravel()
    fx = dataclasses.replace(
        fx, **{name: getattr(fx, name)[spans]
               for name in ("first_sig", "tab_sig", "first_bar", "tab_bar")},
        sig=np.ascontiguousarray(fx.sig[:, perm]),
        bar=np.ascontiguousarray(fx.bar[:, perm]))
    ctx.cache = dataclasses.replace(ctx.cache, xi=fx)
    ctx.wgrid = np.ascontiguousarray(ctx.wgrid[perm])
    ctx.strips = assembly._strip_layout(fx, assembly.STRIP_BYTES // (2 * fx.nq))
    assert len(ctx.strips) == fx.n_spans // 2
    r2 = sys_.eval_RN(d, c)
    assert np.abs(r1 - r2).max() < 1e-13
    K2 = dense_laplacian(sys_, c)
    assert np.abs(K1 - K2).max() < 1e-13


@pytest.mark.parametrize("kv", [
    uniform_knots(1, 3), uniform_knots(2, 5), uniform_knots(3, 4, c0_breaks=(0.5,)),
    KnotVector(2, [0, 0, 0, 0.1, 0.45, 0.45, 0.7, 1, 1, 1]),
], ids=["p1", "p2", "p3-C0", "p2-nonuniform"])
def test_univariate_matrices_match_pointwise_loop(kv):
    kv_bar = kv.refine()[0]
    f = build_quadrature(TensorBasis(kv, kv), TensorBasis(kv_bar, kv_bar)).xi
    for g, want in zip((f.mbar, f.obar, f.kbar), loop_univariate_matrices(kv_bar, kv)):
        assert g.shape == want.shape
        assert np.abs(g - want).max() <= 1e-14 * np.abs(want).max()


@pytest.mark.parametrize("build, mode, calls", [
    (build_bat, "full", 6), (build_lbend, "xi", 4)], ids=["bat", "lbend"])
def test_system_build_tabulates_each_knot_vector_once(monkeypatch, build, mode, calls):
    """One ``eval_many`` table per distinct knot vector (primal and
    auxiliary) of the system's patch directions, on its Gauss grid."""
    geo = parse_geometry(build())
    bv = boundary_values_from_faces(geo.topology, geo.boundary_data)
    real = KnotVector.eval_many
    tabulated = []

    def counting(self, pts, nderiv):
        tabulated.append(self)
        return real(self, pts, nderiv)

    monkeypatch.setattr(KnotVector, "eval_many", counting)
    MixedSystem(geo.topology, bv, mode=mode)
    distinct = {(kv.degree, tuple(kv.knots)) for tb in geo.topology.bases
                for kv in (tb.kv_xi, tb.kv_eta)}
    assert len(tabulated) == calls == 2 * len(distinct)


@pytest.mark.parametrize("name, mode, distinct", [
    ("bat", "full", 3), ("two_patch_square", "full", 1), ("square", "full", 1),
    ("quarter_annulus", "full", 1), ("lbend", "xi", 2), ("tube", "xi", 2)])
def test_system_shares_direction_factors(name, mode, distinct):
    # one DirectionFactors per distinct knot vector of the system, shared
    # by every patch direction that has it
    geo = parse_geometry(BUILDERS[name]())
    bv = boundary_values_from_faces(geo.topology, geo.boundary_data)
    system = MixedSystem(geo.topology, bv, mode=mode)
    factors = [f for ctx in system.patches for f in (ctx.cache.xi, ctx.cache.eta)]
    assert len({id(f) for f in factors}) == distinct
    for tb, ctx in zip(geo.topology.bases, system.patches):
        for kv, f in ((tb.kv_xi, ctx.cache.xi), (tb.kv_eta, ctx.cache.eta)):
            assert f.sig.shape[-1] == kv.dim


def test_shared_direction_factors_are_read_only():
    system, _ = square_system(2, 3)
    f = system.patches[0].cache.xi
    arrays = {k: v for k, v in vars(f).items() if isinstance(v, np.ndarray)}
    assert len(arrays) == 11
    for name, value in arrays.items():
        with pytest.raises(ValueError):
            value.reshape(-1)[0] = 1.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        f.sig = f.bar


def test_nearly_equal_knot_vectors_do_not_share_factors():
    # KnotVector.__eq__ calls these two equal (within KNOT_TOL); the tables
    # are keyed on exact values, so each keeps its own factors
    kv = KnotVector(2, [0, 0, 0, 0.4, 1, 1, 1])
    near = KnotVector(2, [0, 0, 0, 0.4 + 1e-14, 1, 1, 1])
    assert kv == near
    tables = {}
    a = build_quadrature(TensorBasis(kv, kv), TensorBasis(kv, kv).bisected(),
                         tables=tables)
    b = build_quadrature(TensorBasis(near, kv), TensorBasis(near, kv).bisected(),
                         tables=tables)
    assert a.xi is a.eta is b.eta
    assert b.xi is not a.xi
    assert not np.array_equal(b.xi.points, a.xi.points)
    assert len(tables) == 2


def test_mode_validation():
    tb = TensorBasis(uniform_knots(1, 3), uniform_knots(1, 3))
    m = unit_square_map(tb)
    with pytest.raises(ModeError):
        single_patch_system(m, mode="xi")
    # C0 break in eta forbids keeping eta second derivatives
    tb2 = TensorBasis(uniform_knots(3, 4), uniform_knots(3, 4, c0_breaks=(0.5,)))
    m2 = unit_square_map(tb2)
    with pytest.raises(ModeError):
        single_patch_system(m2, mode="xi")
    single_patch_system(m2, mode="eta")  # aux handles the C0 direction: fine
    with pytest.raises(InputError):
        single_patch_system(m, mode="diagonal")
    with pytest.raises(InputError):
        single_patch_system(m, chi=1.5)
    for mu in (0.0, float("nan"), float("inf")):
        with pytest.raises(InputError):
            single_patch_system(m, mu=mu)


def test_exact_solution_residual_decreases_under_refinement():
    norms = []
    for ne in (4, 8, 16):
        geo = parse_geometry(build_quarter_annulus(2, ne))
        from eggmix.assembly import boundary_values_from_faces
        bv = boundary_values_from_faces(geo.topology, geo.boundary_data)
        sys_ = MixedSystem(geo.topology, bv, mode="full")
        control = greville_interpolate_2d(
            geo.topology.bases[0],
            lambda x, y: exact_annulus_map(x, y))
        c = sys_.net_as_c(control[geo.topology.inner_indices])
        d = sys_.project_d(c)
        norms.append(np.linalg.norm(sys_.eval_RN(d, c)))
    assert norms[1] < 0.6 * norms[0]
    assert norms[2] < 0.6 * norms[1]


def test_rn_eval_counter_increments(rng):
    sys_, m = square_system(1, 2)
    c = rng.standard_normal(sys_.c_size)
    d = rng.standard_normal(sys_.d_size)
    n0 = sys_.rn_eval_count
    sys_.eval_RN(d, c)
    sys_.eval_RN(d, c)
    assert sys_.rn_eval_count == n0 + 2
