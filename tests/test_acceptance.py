"""Acceptance gate: each test implements one release criterion at its stated
tolerance and prints a PASS line (run with -s or -rP to see them)."""

import time

import numpy as np
import pytest

from eggmix.assembly import MixedSystem, boundary_values_from_faces, \
    single_patch_system
from eggmix.errors import ModeError
from eggmix.io_cli import parse_geometry
from eggmix.geometries import build_quarter_annulus, exact_annulus_map
from eggmix.linalg import KronSolver
from eggmix.mapping import sampled_bijectivity, unit_square_map, winslow, \
    winslow_descent
from eggmix.multipatch import AffinePatchMap, build_restriction, \
    build_topology
from eggmix.solver import NewtonState, SolverConfig, newton_solve, \
    schur_matvec, schur_rhs, transfinite_global
from eggmix.splines import TensorBasis, gauss_legendre, uniform_knots

from oracles import explicit_schur, reference_univariate_integral


def report(name, detail):
    print(f"ACCEPTANCE {name}: PASS ({detail})")


def test_criterion_1_identity_exactness():
    t0 = time.perf_counter()
    for p in (1, 2, 3):
        for mode in ("full", "xi", "eta"):
            # single-direction modes need C>=1 across the strong direction;
            # for p = 1 only the single-element (Bezier) mesh provides it
            ne = 1 if (p == 1 and mode != "full") else 3
            tb = TensorBasis(uniform_knots(p, ne), uniform_knots(p, ne))
            m = unit_square_map(tb)
            sys_ = single_patch_system(m, mode=mode)
            c, rep = newton_solve(sys_, sys_.net_as_c(m.control[m.inner_indices]),
                                  SolverConfig())
            assert rep.converged, (p, mode)
            assert rep.newton_iterations <= 2, (p, mode)
            assert rep.final_residual < 1e-10, (p, mode)
            if len(tb.inner_indices):  # p=1 Bezier mesh has no inner DOFs
                err = np.abs(c.reshape(2, -1).T
                             - tb.greville_grid()[tb.inner_indices]).max()
                assert err < 1e-9, (p, mode, err)
    # the invalid combination is rejected, not silently mis-assembled
    tb = TensorBasis(uniform_knots(1, 3), uniform_knots(1, 3))
    with pytest.raises(ModeError):
        single_patch_system(unit_square_map(tb), mode="xi")
    wall = time.perf_counter() - t0
    assert wall < 1.0
    report("1 identity exactness", f"all degrees and modes, {wall:.2f} s")


def _annulus_l2_error(topology, control):
    m = topology.patch_map(0, control)
    q, w = gauss_legendre(6)
    kx = m.basis.kv_xi
    pts = (kx.breakpoints[:-1, None] + np.diff(kx.breakpoints)[:, None] * q).ravel()
    wts = (np.diff(kx.breakpoints)[:, None] * w).ravel()
    X = m.grid_jet(pts, pts, 0)["x"]
    exact = exact_annulus_map(pts[:, None] * np.ones_like(pts)[None, :],
                              np.ones_like(pts)[:, None] * pts[None, :])
    err2 = ((X - exact) ** 2).sum(-1)
    return float(np.sqrt(np.sum(wts[:, None] * wts[None, :] * err2)))


def test_criterion_2_exact_solution_convergence():
    t0 = time.perf_counter()
    # oracle sanity: the inverse components log2(r) and 2 theta / pi of the
    # closed-form map are harmonic (checked by finite-difference Laplacians)
    h = 1e-4
    rng = np.random.default_rng(0)
    for x, y in rng.uniform(1.05, 1.6, size=(20, 2)):
        for f in (lambda x_, y_: np.log(np.hypot(x_, y_)) / np.log(2.0),
                  lambda x_, y_: np.arctan2(y_, x_) * 2.0 / np.pi):
            lap = (f(x + h, y) + f(x - h, y) + f(x, y + h) + f(x, y - h)
                   - 4 * f(x, y)) / h ** 2
            assert abs(lap) < 1e-5
    orders = {}
    for p in (2, 3):
        errs = []
        for ne in (4, 8, 16):
            geo = parse_geometry(build_quarter_annulus(p, ne))
            bv = boundary_values_from_faces(geo.topology, geo.boundary_data)
            sys_ = MixedSystem(geo.topology, bv, mode="full")
            c0 = sys_.net_as_c(
                transfinite_global(sys_)[geo.topology.inner_indices])
            c, rep = newton_solve(sys_, c0, SolverConfig(newton_tol=1e-10))
            assert rep.converged
            errs.append(_annulus_l2_error(geo.topology,
                                          sys_.full_control_net(c)))
        assert errs[1] < errs[0] and errs[2] < errs[1]
        # observed order as the least-squares slope over the three levels
        slope = np.polyfit(np.log([4, 8, 16]), np.log(errs), 1)[0]
        orders[p] = -slope
        assert orders[p] >= p, (p, errs)
    wall = time.perf_counter() - t0
    assert wall < 60.0
    report("2 exact-solution convergence",
           f"orders {orders[2]:.2f} (p=2), {orders[3]:.2f} (p=3), {wall:.1f} s")


def test_criterion_3_jacobian_fidelity():
    t0 = time.perf_counter()
    rng = np.random.default_rng(7)
    tb = TensorBasis(uniform_knots(2, 3), uniform_knots(2, 3))  # 5x5 DOFs
    assert tb.n_xi == 5 and tb.n_eta == 5
    m = unit_square_map(tb)
    sys_ = single_patch_system(m, mode="full")
    c = sys_.net_as_c(m.control[m.inner_indices]) \
        + 0.15 * rng.standard_normal(sys_.c_size)
    d = sys_.project_d(c) + 0.1 * rng.standard_normal(sys_.d_size)
    Dt, rhs_ref = explicit_schur(sys_, d, c, h=1e-6)
    state = NewtonState(sys_, d, c)
    worst = 0.0
    for _ in range(20):
        s = rng.standard_normal(sys_.c_size)
        got = schur_matvec(sys_, state, s)
        ref = Dt @ s
        worst = max(worst, np.linalg.norm(got - ref) / np.linalg.norm(ref))
    assert worst < 1e-5
    rhs = schur_rhs(sys_, state)
    rhs_err = np.linalg.norm(rhs - rhs_ref) / np.linalg.norm(rhs_ref)
    assert rhs_err < 1e-5
    wall = time.perf_counter() - t0
    assert wall < 10.0
    report("3 jacobian fidelity",
           f"matvec {worst:.1e}, rhs {rhs_err:.1e}, {wall:.1f} s")


def test_criterion_4_kronecker_oracle():
    rng = np.random.default_rng(11)
    checked = 0
    for p in (1, 2, 3):
        for nx in (1, 2, 3, 5):
            for ny in (1, 2, 4):
                kx = uniform_knots(p, nx)
                ky = uniform_knots(p, ny)
                mx = reference_univariate_integral(kx, kx)
                me = reference_univariate_integral(ky, ky)
                n = mx.shape[0] * me.shape[0]
                if n > 64:
                    continue
                A = np.kron(mx, me)
                ks = KronSolver(mx, me)
                rhs = rng.standard_normal(n)
                ref = np.linalg.solve(A, rhs)
                err = np.abs(ks.solve_block(rhs) - ref).max()
                assert err < 1e-11 * max(1.0, np.abs(ref).max()), (p, nx, ny)
                checked += 1
    assert checked >= 15
    report("4 kronecker solver oracle", f"{checked} blocks with dim <= 64")


def test_criterion_5_lbend(lbend_solved):
    t0 = time.perf_counter()
    rep = lbend_solved.report
    assert rep.converged and rep.newton_iterations <= 10
    m = lbend_solved.patch_map(0)
    bij = sampled_bijectivity(m, 5)
    assert bij.fold_count == 0
    C = m.net()
    sym = np.abs(C - C[::-1][:, :, ::-1]).max()  # mirror x<->y, xi -> 1-xi
    assert sym <= 1e-8
    w_mf = winslow(m)
    c_w, info = winslow_descent(m, max_iter=300)
    m_w = m.copy()
    m_w.control[m.inner_indices] = c_w
    w_w = winslow(m_w)
    gap = w_mf - w_w
    assert gap >= -1e-9
    assert gap <= 0.01 * w_w
    wall = lbend_solved.wall + time.perf_counter() - t0
    assert wall < 120.0
    report("5 L-bend analog",
           f"{rep.newton_iterations} newton its, symmetric to {sym:.1e}, "
           f"winslow gap {gap / w_w * 100:.3f}% ({w_mf:.5f} vs {w_w:.5f}), "
           f"{wall:.1f} s")


def test_criterion_6_multipatch_bat(bat_solved):
    t0 = time.perf_counter()
    rep = bat_solved.report
    assert rep.converged and rep.newton_iterations <= 12
    init_folds = sum(
        sampled_bijectivity(bat_solved.topology.patch_map(
            i, bat_solved.initial_net), 5).fold_count
        for i in range(3))
    assert init_folds > 0  # the start really is folded
    for i in range(3):
        bij = sampled_bijectivity(bat_solved.patch_map(i), 5)
        assert bij.fold_count == 0 and bij.min_detj > 0.0, i
    ts = np.linspace(0.0, 1.0, 101)
    worst = 0.0
    for itf in bat_solved.topology.interfaces:
        ma = bat_solved.topology.patch_map(itf.patch_a, bat_solved.control)
        mb = bat_solved.topology.patch_map(itf.patch_b, bat_solved.control)
        A = ma.grid_jet([0.0], ts, 0)["x"][0]
        B = mb.grid_jet(ts, [0.0], 0)["x"][:, 0]
        worst = max(worst, float(np.abs(A - B).max()))
    assert worst <= 1e-12
    wall = bat_solved.wall + time.perf_counter() - t0
    assert wall < 300.0
    report("6 multipatch bat analog",
           f"{rep.newton_iterations} newton its from {init_folds} folded "
           f"samples, interface mismatch {worst:.1e}, {wall:.1f} s")


def test_criterion_7_degenerate_multipatch_bitwise():
    tb = TensorBasis(uniform_knots(2, 3), uniform_knots(2, 3))
    m = unit_square_map(tb)
    rng = np.random.default_rng(3)
    m.control[m.inner_indices] += 0.1 * rng.standard_normal(
        (len(m.inner_indices), 2))
    s_single = single_patch_system(m)
    topo = build_topology([(tb, AffinePatchMap.identity())], [])
    s_multi = MixedSystem(topo, m.control[topo.boundary_indices])
    c0 = s_single.net_as_c(m.control[m.inner_indices])
    c_a, rep_a = newton_solve(s_single, c0.copy(), SolverConfig())
    c_b, rep_b = newton_solve(s_multi, c0.copy(), SolverConfig())
    assert c_a.tobytes() == c_b.tobytes()
    assert rep_a.residual_norms == rep_b.residual_norms
    assert rep_a.step_norms == rep_b.step_norms
    assert rep_a.gmres_iterations == rep_b.gmres_iterations
    report("7 degenerate multipatch", "bitwise-identical solve")


def test_criterion_8_property_suites(lbend_solved):
    t0 = time.perf_counter()
    # partition of unity at the quadrature points of a mixed system
    tb = TensorBasis(uniform_knots(3, 3, c0_breaks=(0.5,)), uniform_knots(2, 4))
    from eggmix.assembly import build_quadrature
    cache = build_quadrature(tb, tb.refine()[0])
    # primal values on the tensor grid: products of the univariate factors
    w = np.einsum("pa,qb->pqab", cache.xi.sig[0], cache.eta.sig[0])
    assert np.abs(w.sum(axis=(2, 3)) - 1.0).max() < 1e-12
    # metric identity on a random net, on the grid of the sampled
    # coordinates (the sampled points among its nodes)
    m = unit_square_map(TensorBasis(uniform_knots(3, 3), uniform_knots(3, 3)))
    rng = np.random.default_rng(5)
    m.control += 0.1 * rng.standard_normal(m.control.shape)
    pts = rng.uniform(0, 1, size=(40, 2))
    jet = m.grid_jet(pts[:, 0], pts[:, 1], 1)
    a, b = jet["x_xi"], jet["x_eta"]
    g11, g12, g22 = (a * a).sum(-1), (a * b).sum(-1), (b * b).sum(-1)
    detj = a[..., 0] * b[..., 1] - a[..., 1] * b[..., 0]
    assert (np.abs(g11 * g22 - g12 ** 2 - detj ** 2)
            < 1e-11 * np.maximum(1.0, detj ** 2)).all()
    # restriction weights sum to one exactly
    geo = parse_geometry(__import__("eggmix.geometries",
                                    fromlist=["build_bat"]).build_bat(2, 3, 3, 3))
    r = build_restriction(geo.topology)
    assert all(w.sum() == 1.0 for w in r.weights)
    # line-search decrease on the recorded L-bend run
    rep = lbend_solved.report
    for k, nu in enumerate(rep.nu_values):
        assert rep.residual_norms[k + 1] <= (1 - 1e-4 * nu) * rep.residual_norms[k]
    # determinism of a full solve
    runs = []
    for _ in range(2):
        geo = parse_geometry(build_quarter_annulus(2, 4))
        bv = boundary_values_from_faces(geo.topology, geo.boundary_data)
        sys_ = MixedSystem(geo.topology, bv)
        c0 = sys_.net_as_c(transfinite_global(sys_)[geo.topology.inner_indices])
        c, rep2 = newton_solve(sys_, c0, SolverConfig())
        runs.append((c.tobytes(), tuple(rep2.residual_norms)))
    assert runs[0] == runs[1]
    wall = time.perf_counter() - t0
    assert wall < 120.0
    report("8 property suites", f"core invariants re-checked in {wall:.1f} s")
