import json
import numpy as np
import pytest

import eggmix.solver
from eggmix.assembly import MixedSystem, boundary_values_from_faces, \
    single_patch_system
from eggmix.errors import InputError, StagnationError
from eggmix.io_cli import parse_geometry, solve
from eggmix.geometries import BUILDERS, build_bat, build_lbend, \
    build_quarter_annulus, build_two_patch_square, exact_annulus_map, \
    load as load_bundled
from eggmix.mapping import unit_square_map
from eggmix.solver import NewtonState, SolverConfig, _line_search, \
    build_system_hierarchy, fd_epsilon, \
    folded_initial_guess, newton_solve, schur_matvec, schur_rhs, \
    transfinite_global
from eggmix.splines import TensorBasis, uniform_knots, gauss_legendre

from oracles import boundary_c, constant_blocks, \
    coons_loop_transfinite_global, explicit_schur, loop_prolong_net
from test_multipatch import self_glued_system
from test_preconditioner import GLUED_CASES


def square_system(p=2, ne=3, mode="full"):
    tb = TensorBasis(uniform_knots(p, ne), uniform_knots(p, ne))
    m = unit_square_map(tb)
    return single_patch_system(m, mode=mode), m


def annulus_system(p=2, ne=4):
    geo = parse_geometry(build_quarter_annulus(p, ne))
    bv = boundary_values_from_faces(geo.topology, geo.boundary_data)
    return MixedSystem(geo.topology, bv, mode="full"), geo


def test_initial_d_constant_fields():
    sys_, m = square_system(2, 3)
    c = sys_.net_as_c(m.control[m.inner_indices])
    d = sys_.project_d(c).reshape(4, -1)
    nbar = sys_.topology.n_sigbar
    np.testing.assert_allclose(d[0], np.ones(nbar), atol=1e-12)   # u_x = 1
    np.testing.assert_allclose(d[1], np.zeros(nbar), atol=1e-12)  # u_y = 0
    np.testing.assert_allclose(d[2], np.zeros(nbar), atol=1e-12)  # v_x = 0
    np.testing.assert_allclose(d[3], np.ones(nbar), atol=1e-12)   # v_y = 1


def test_initial_d_anisotropic_scaling():
    sys_, m = square_system(2, 3)
    m2 = m.copy()
    m2.control[:, 0] *= 2.0
    m2.control[:, 1] *= 3.0
    sys2 = single_patch_system(m2)
    c = sys2.net_as_c(m2.control[m2.inner_indices])
    d = sys2.project_d(c).reshape(4, -1)
    np.testing.assert_allclose(d[0], 2.0, atol=1e-12)
    np.testing.assert_allclose(d[3], 3.0, atol=1e-12)


def test_initial_d_solves_normal_equations(rng):
    sys_, _ = square_system(2, 3)
    c = rng.standard_normal(sys_.c_size)
    d = sys_.project_d(c)
    A, B, B_bnd = constant_blocks(sys_)
    res = A @ d - (B @ c + B_bnd @ boundary_c(sys_))
    assert np.abs(res).max() < 1e-11


def test_schur_matvec_and_rhs_match_explicit_oracle(rng):
    for mode in ("full", "xi", "eta"):
        sys_, m = square_system(2, 3, mode=mode)
        c = sys_.net_as_c(m.control[m.inner_indices]) \
            + 0.15 * rng.standard_normal(sys_.c_size)
        d = sys_.project_d(c) + 0.1 * rng.standard_normal(sys_.d_size)
        Dt, rhs_ref = explicit_schur(sys_, d, c)
        state = NewtonState(sys_, d, c)
        for _ in range(5):
            s = rng.standard_normal(sys_.c_size)
            got = schur_matvec(sys_, state, s)
            ref = Dt @ s
            assert np.linalg.norm(got - ref) < 1e-5 * np.linalg.norm(ref)
        rhs = schur_rhs(sys_, state)
        assert np.linalg.norm(rhs - rhs_ref) < 1e-5 * np.linalg.norm(rhs_ref)


def test_schur_matvec_matches_oracle_under_coupling(rng):
    # coupled topology: the mass inverses run through static condensation
    from eggmix.geometries import build_two_patch_square
    geo = parse_geometry(build_two_patch_square(2, 2))
    bv = boundary_values_from_faces(geo.topology, geo.boundary_data)
    sys_ = MixedSystem(geo.topology, bv)
    c0 = sys_.net_as_c(transfinite_global(sys_)[geo.topology.inner_indices])
    c = c0 + 0.1 * rng.standard_normal(sys_.c_size)
    d = sys_.project_d(c) + 0.05 * rng.standard_normal(sys_.d_size)
    Dt, rhs_ref = explicit_schur(sys_, d, c)
    state = NewtonState(sys_, d, c)
    for _ in range(5):
        s = rng.standard_normal(sys_.c_size)
        got = schur_matvec(sys_, state, s)
        ref = Dt @ s
        assert np.linalg.norm(got - ref) < 1e-5 * np.linalg.norm(ref)
    rhs = schur_rhs(sys_, state)
    assert np.linalg.norm(rhs - rhs_ref) < 1e-5 * np.linalg.norm(rhs_ref)


def test_forward_quotient_matches_central_in_linear_configuration(rng):
    # with c fixed the metric factors are frozen, so R_N is exactly linear
    # along pure-d directions: forward and central quotients must coincide
    # far below the general finite-difference tolerance
    sys_, m = square_system(2, 3)
    c = sys_.net_as_c(m.control[m.inner_indices])
    d = sys_.project_d(c)
    state = NewtonState(sys_, d, c)
    for _ in range(5):
        q = rng.standard_normal(sys_.d_size)
        eps = fd_epsilon(state.state_norm, float(np.linalg.norm(q)))
        forward = (sys_.eval_RN(d + eps * q, c) - state.r_n) / eps
        central = (sys_.eval_RN(d + eps * q, c)
                   - sys_.eval_RN(d - eps * q, c)) / (2 * eps)
        assert np.linalg.norm(forward - central) <= 1e-7 * max(
            1.0, np.linalg.norm(central))


def test_schur_matvec_guards_tiny_direction(rng):
    sys_, m = square_system(2, 3)
    c = sys_.net_as_c(m.control[m.inner_indices])
    d = sys_.project_d(c)
    state = NewtonState(sys_, d, c)
    out = schur_matvec(sys_, state, np.zeros(sys_.c_size))
    assert np.isfinite(out).all()


def test_schur_rhs_short_circuits_on_consistent_d():
    sys_, m = square_system(2, 3)
    rng = np.random.default_rng(0)
    c = sys_.net_as_c(m.control[m.inner_indices]) \
        + 0.1 * rng.standard_normal(sys_.c_size)
    d = sys_.project_d(c)
    state = NewtonState(sys_, d, c)
    rhs = schur_rhs(sys_, state)
    np.testing.assert_array_equal(rhs, -state.r_n)


def test_newton_identity_converges_immediately():
    # the identity net is the exact solution on the square: the start meets
    # the stopping test, so no step and no Schur solve is taken
    sys_, m = square_system(3, 3)
    before = m.control[m.boundary_indices].tobytes()
    c, rep = newton_solve(sys_, sys_.net_as_c(m.control[m.inner_indices]),
                          SolverConfig())
    assert rep.converged and rep.newton_iterations == 0
    assert rep.rn_evals == 1 and rep.gmres_iterations == []
    assert len(rep.residual_norms) == len(rep.min_denominators) == 1
    assert rep.final_residual < 1e-10
    assert m.control[m.boundary_indices].tobytes() == before  # bitwise fixed
    np.testing.assert_allclose(
        c.reshape(2, -1).T, m.basis.greville_grid()[m.inner_indices], atol=1e-9)


def test_newton_start_is_the_flat_inner_coefficients():
    # one form of start: the (n_inner, 2) net it flattens to is refused
    sys_, m = square_system(3, 3)
    with pytest.raises(InputError, match="flat inner coefficients"):
        newton_solve(sys_, m.control[m.inner_indices], SolverConfig())


def test_kernels_take_only_the_flat_inner_coefficients():
    # one layout for c below newton_solve too: the (n_inner, 2) net is refused
    sys_, m = square_system(3, 3)
    net = m.control[m.inner_indices]
    d = np.zeros(sys_.d_size)
    for kernel in (sys_.full_control_net, sys_.project_d,
                   lambda c: sys_.eval_RN(d, c),
                   lambda c: sys_.eval_RL_tilde(d, c)):
        with pytest.raises(InputError, match=r"expected \(%d,\)" % sys_.c_size):
            kernel(net)


def test_residual_scale_is_the_boundary_net_residual(rng):
    sys_, geo = annulus_system(2, 4)
    bnd = geo.topology.boundary_indices
    bv = sys_._template[bnd]
    # R_L(0, 0) of the boundary data moved to put its first point at 0
    moved = MixedSystem(geo.topology, bv - bv[0])
    rl = moved.eval_RL(np.zeros(moved.d_size), np.zeros(moved.c_size))
    assert sys_.residual_scale() == np.linalg.norm(rl)
    # translation invariant, linear in the size of the domain
    shifted = MixedSystem(geo.topology, bv + rng.uniform(-50, 50, 2))
    assert abs(shifted.residual_scale() - sys_.residual_scale()) \
        <= 1e-12 * sys_.residual_scale()
    scaled = MixedSystem(geo.topology, 3.0 * bv)
    assert abs(scaled.residual_scale() - 3.0 * sys_.residual_scale()) \
        <= 1e-12 * sys_.residual_scale()
    # zero, and refused, when every boundary point is the same point
    point = MixedSystem(geo.topology, np.full_like(bv, 0.3))
    assert point.residual_scale() == 0.0
    with pytest.raises(InputError, match="coincide"):
        newton_solve(point, np.zeros(point.c_size), SolverConfig())


@pytest.mark.parametrize("key", ["newton_tol"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), 0.0, -1e-8])
def test_solver_config_rejects_bad_tolerances(key, value):
    with pytest.raises(InputError, match=key):
        SolverConfig(**{key: value})


@pytest.mark.parametrize("key", ["max_newton"])
@pytest.mark.parametrize("value", [0, -3, 2.0, True, "5", None])
def test_solver_config_rejects_bad_counts(key, value):
    with pytest.raises(InputError, match=key):
        SolverConfig(**{key: value})


def test_solver_config_accepts_numpy_counts():
    assert SolverConfig(max_newton=np.int64(1)).max_newton == 1
    assert SolverConfig(max_newton=np.int32(3)).max_newton == 3


def test_restart_from_converged_lbend_xi_l1():
    # a restart that used to iterate on roundoff until the line search
    # stagnated
    geo = parse_geometry(build_lbend())
    bv = boundary_values_from_faces(geo.topology, geo.boundary_data)
    sys_ = build_system_hierarchy(geo.topology, bv, 1, mode="xi")[-1].system
    c0 = sys_.net_as_c(transfinite_global(sys_)[sys_.topology.inner_indices])
    c, rep = newton_solve(sys_, c0, SolverConfig())
    assert rep.converged
    c2, rep2 = newton_solve(sys_, c, SolverConfig())
    assert rep2.converged and rep2.newton_iterations <= 1
    assert np.abs(c2 - c).max() <= 1e-8 * np.abs(c).max()


def test_line_search_accepts_full_step():
    nu, r_new, probes = _line_search(lambda nu: 0.5, 1.0)
    assert nu == 1.0 and probes == 1


def test_line_search_backtracks_then_accepts():
    calls = []

    def trial(nu):
        calls.append(nu)
        return 2.0 if nu > 0.3 else 0.9

    nu, r_new, probes = _line_search(trial, 1.0)
    assert nu == 0.25 and probes == 3


def test_line_search_stagnates():
    with pytest.raises(StagnationError):
        _line_search(lambda nu: 1.0, 1.0)


def test_unconverged_gmres_never_counts_as_newton_convergence(monkeypatch):
    # one GMRES iteration cannot meet 1e-12; its steps are only
    # line-searched, and convergence is judged on the residual alone
    sys_, geo = annulus_system(2, 4)
    c0 = sys_.net_as_c(transfinite_global(sys_)[geo.topology.inner_indices])
    monkeypatch.setattr(eggmix.solver, "GMRES_MAX_ITER", 1)
    monkeypatch.setattr(eggmix.solver, "GMRES_TOL", 1e-12)
    c, rep = newton_solve(sys_, c0, SolverConfig(max_newton=3))
    assert not rep.converged and rep.newton_iterations == 3
    assert rep.gmres_converged == [False, False, False]
    assert rep.to_dict()["gmres_converged"] == [False, False, False]


def test_converged_solve_records_gmres_flags():
    sys_, geo = annulus_system(2, 4)
    c0 = sys_.net_as_c(transfinite_global(sys_)[geo.topology.inner_indices])
    c, rep = newton_solve(sys_, c0, SolverConfig())
    assert rep.converged
    assert rep.gmres_converged == [True] * rep.newton_iterations


def test_stagnation_error_declares_system(monkeypatch, capsys):
    # a line search without descent ends the solve with a stagnated report
    # and the last accepted iterate, not an exception; the step's --verbose
    # record has no accepted step
    sys_, geo = annulus_system(2, 4)
    c0 = sys_.net_as_c(transfinite_global(sys_)[geo.topology.inner_indices])

    def stuck(*args):
        raise StagnationError("stuck")

    monkeypatch.setattr("eggmix.solver._line_search", stuck)
    c, rep = newton_solve(sys_, c0, SolverConfig(verbose=True))
    assert rep.stagnated and not rep.converged and rep.newton_iterations == 1
    (line,) = capsys.readouterr().err.splitlines()
    record = json.loads(line)
    assert record["nu"] is None and record["level"] == 0
    assert rep.final_residual == rep.residual_norms[-1]
    np.testing.assert_array_equal(c, c0)


def test_accepted_steps_decrease_residual():
    sys_, geo = annulus_system(2, 4)
    c0 = sys_.net_as_c(transfinite_global(sys_)[geo.topology.inner_indices])
    c, rep = newton_solve(sys_, c0, SolverConfig(newton_tol=1e-10))
    assert rep.converged
    for k, nu in enumerate(rep.nu_values):
        r_old = rep.residual_norms[k]
        r_new = rep.residual_norms[k + 1]
        assert r_new <= (1 - 1e-4 * nu) * r_old


def test_superlinear_tail_on_annulus():
    sys_, geo = annulus_system(2, 8)
    c0 = sys_.net_as_c(transfinite_global(sys_)[geo.topology.inner_indices])
    c, rep = newton_solve(sys_, c0, SolverConfig(newton_tol=1e-10))
    assert rep.converged and rep.newton_iterations >= 3
    # window above the finite-difference noise floor, inside the Newton basin
    tail = [n for n in rep.step_norms if 1e-8 < n < 1e-2]
    pairs = [(a, b) for a, b in zip(rep.step_norms, rep.step_norms[1:])
             if a in tail]
    assert pairs
    for a, b in pairs:
        assert b <= 10.0 * a ** 1.5


def test_determinism_bitwise():
    results = []
    for _ in range(2):
        sys_, geo = annulus_system(2, 4)
        c0 = sys_.net_as_c(transfinite_global(sys_)[geo.topology.inner_indices])
        c, rep = newton_solve(sys_, c0, SolverConfig())
        results.append((c.tobytes(), tuple(rep.residual_norms),
                        tuple(rep.step_norms), tuple(rep.gmres_iterations)))
    assert results[0] == results[1]


def test_rn_eval_accounting():
    sys_, geo = annulus_system(2, 4)
    c0 = sys_.net_as_c(transfinite_global(sys_)[geo.topology.inner_indices])
    n0 = sys_.rn_eval_count
    c, rep = newton_solve(sys_, c0, SolverConfig())
    assert rep.rn_evals == sys_.rn_eval_count - n0
    # one eval at the start (every later state is the accepted line-search
    # probe) + gmres matvecs + line-search probes + at most one rhs
    # finite-difference eval per iteration
    base = 1 + sum(rep.gmres_iterations) + rep.line_search_evals
    assert base <= rep.rn_evals <= base + rep.newton_iterations


def test_solver_report_serializable():
    sys_, m = square_system(1, 2)
    c, rep = newton_solve(sys_, sys_.net_as_c(m.control[m.inner_indices]),
                          SolverConfig())
    import json
    json.dumps(rep.to_dict())


def test_verbose_emits_json_lines(capsys):
    # the square's own net is exact, so start from a perturbed one
    sys_, m = square_system(2, 3)
    c0 = sys_.net_as_c(m.control[m.inner_indices]) \
        + 0.05 * np.random.default_rng(0).standard_normal(sys_.c_size)
    newton_solve(sys_, c0, SolverConfig(verbose=True))
    out = capsys.readouterr().err.strip().splitlines()
    import json
    assert len(out) >= 1
    rec = json.loads(out[0])
    assert {"newton_iteration", "residual_norm", "step_norm"} <= set(rec)


def test_verbose_rn_evals_count_each_step_alone(capsys):
    geo = parse_geometry(build_lbend())
    bv = boundary_values_from_faces(geo.topology, geo.boundary_data)
    _, _, rep = solve(build_system_hierarchy(geo.topology, bv, 0, mode="xi"),
                      "transfinite", SolverConfig(verbose=True))
    assert rep.converged
    import json
    counts = [json.loads(ln)["rn_evals"]
              for ln in capsys.readouterr().err.splitlines()]
    assert len(counts) == rep.newton_iterations
    # the start's evaluation, then each step's right-hand side, GMRES
    # matvecs and line-search probes
    assert sum(counts) + 1 == rep.rn_evals
    assert all(n >= m + 1 for n, m in zip(counts, rep.gmres_iterations))


def test_coarse_to_fine_square_matches_direct():
    tb = TensorBasis(uniform_knots(2, 2), uniform_knots(2, 2))
    m = unit_square_map(tb)
    topo = single_patch_system(m).topology
    bv = m.control[topo.boundary_indices]
    hier = build_system_hierarchy(topo, bv, 1)
    _, c_h, rep_h = solve(hier, "transfinite", SolverConfig())
    fine = hier[1].system
    cf0 = fine.net_as_c(
        transfinite_global(fine)[fine.topology.inner_indices])
    c_d, rep_d = newton_solve(fine, cf0, SolverConfig())
    assert rep_h.converged and rep_d.converged
    assert np.abs(c_h - c_d).max() < 1e-10
    assert len(rep_h.levels) == 2


def test_solve_rejects_unknown_start_and_misshapen_net():
    geo = parse_geometry(build_quarter_annulus())
    bv = boundary_values_from_faces(geo.topology, geo.boundary_data)
    hier = build_system_hierarchy(geo.topology, bv, 1)
    with pytest.raises(InputError, match="unknown start 'coons'"):
        solve(hier, "coons")
    # a start net lives on the coarsest level
    with pytest.raises(InputError, match="coarsest level"):
        solve(hier, hier[1].system._template)


def test_coarse_to_fine_prolongation_reproduces_coarse_map():
    geo = parse_geometry(build_lbend(nelems_xi=4, nelems_eta=4))
    bv = boundary_values_from_faces(geo.topology, geo.boundary_data)
    hier = build_system_hierarchy(geo.topology, bv, 1, mode="xi")
    sys_c = hier[0].system
    c0 = sys_c.net_as_c(transfinite_global(sys_c)[geo.topology.inner_indices])
    c_c, rep_c = newton_solve(sys_c, c0, SolverConfig())
    net_c = sys_c.full_control_net(c_c)
    net_f = hier[1].transfer @ net_c
    mc = geo.topology.patch_map(0, net_c)
    mf = hier[1].system.topology.patch_map(0, net_f)
    rng = np.random.default_rng(8)
    for x, y in rng.uniform(0, 1, size=(50, 2)):
        np.testing.assert_allclose(mc.grid_jet([x], [y], 0)["x"],
                                   mf.grid_jet([x], [y], 0)["x"], atol=1e-12)


def geometry_root(doc):
    """The topology and boundary values of a geometry document."""
    geo = parse_geometry(doc)
    return geo.topology, boundary_values_from_faces(geo.topology, geo.boundary_data)


def system_root(system):
    """The topology and boundary values a system was built from."""
    return system.topology, system._template[system.topology.boundary_indices]


REVERSED_P2_P3 = next(case for case in GLUED_CASES
                      if case.__name__ == "reversed_p2_p3_case")


@pytest.mark.parametrize("root, mode, levels", [
    pytest.param(lambda: geometry_root(build_bat()), "full", 1, id="build_bat-1"),
    pytest.param(lambda: geometry_root(build_two_patch_square()), "full", 2,
                 id="build_two_patch_square-2"),
    # a C0 line
    pytest.param(lambda: geometry_root(build_lbend()), "xi", 2, id="lbend_xi-2"),
    pytest.param(lambda: system_root(REVERSED_P2_P3(np.random.default_rng(0))[0]),
                 "full", 2, id="reversed_p2_p3-2"),
    # a patch glued to itself holds a fine DOF at two of its local indices
    pytest.param(lambda: system_root(self_glued_system([("west", "east")])),
                 "full", 2, id="glued_to_itself-2"),
    pytest.param(lambda: system_root(self_glued_system([("west", "east"),
                                                        ("south", "north")])),
                 "full", 2, id="glued_twice_to_itself-2"),
])
def test_hierarchy_reuses_auxiliary_refinement(root, mode, levels, rng):
    hier = build_system_hierarchy(*root(), levels, mode=mode)
    assert hier[0].transfer is None
    for coarse, fine in zip(hier[:-1], hier[1:]):
        tc, tf = coarse.system.topology, fine.system.topology
        assert all(b is bb for b, bb in zip(tf.bases, tc.bar_bases))
        assert fine.transfer.shape == (tf.n_sigma, tc.n_sigma)
        prolongations = [tb.refine()[1] for tb in tc.bases]
        net = rng.standard_normal((tc.n_sigma, 2))
        want = loop_prolong_net(tc, tf, prolongations, net)
        assert np.array_equal(fine.transfer @ net, want)
        bnd = tf.boundary_indices
        want = loop_prolong_net(tc, tf, prolongations, coarse.system._template)
        assert np.array_equal(fine.system._template[bnd], want[bnd])


def test_coarse_to_fine_lbend_iterations_not_worse():
    geo = parse_geometry(build_lbend(nelems_xi=4, nelems_eta=4))
    bv = boundary_values_from_faces(geo.topology, geo.boundary_data)
    hier = build_system_hierarchy(geo.topology, bv, 1, mode="xi")
    _, c_h, rep_h = solve(hier, "transfinite", SolverConfig())
    fine = hier[1].system
    cf0 = fine.net_as_c(transfinite_global(fine)[fine.topology.inner_indices])
    c_d, rep_d = newton_solve(fine, cf0, SolverConfig())
    assert rep_h.converged and rep_d.converged
    assert rep_h.levels[1].newton_iterations <= rep_d.newton_iterations


def test_eta_mode_on_transposed_lbend_matches_winslow(lbend_solved):
    # swapping parameters and physical coordinates turns the xi-only problem
    # into the eta-only one with the same Winslow energy
    doc = build_lbend()
    patch = doc["patches"][0]
    swapped = {
        "degree_xi": patch["degree_eta"], "degree_eta": patch["degree_xi"],
        "knots_xi": patch["knots_eta"], "knots_eta": patch["knots_xi"],
        "boundary": {
            "south": [[y, x] for x, y in patch["boundary"]["west"]],
            "north": [[y, x] for x, y in patch["boundary"]["east"]],
            "west": [[y, x] for x, y in patch["boundary"]["south"]],
            "east": [[y, x] for x, y in patch["boundary"]["north"]],
        },
    }
    geo = parse_geometry({"version": 1, "patches": [swapped], "interfaces": []})
    bv = boundary_values_from_faces(geo.topology, geo.boundary_data)
    sys_ = MixedSystem(geo.topology, bv, mode="eta")
    c0 = sys_.net_as_c(transfinite_global(sys_)[geo.topology.inner_indices])
    c, rep = newton_solve(sys_, c0, SolverConfig(newton_tol=1e-10))
    assert rep.converged and rep.newton_iterations <= 10
    from eggmix.mapping import sampled_bijectivity, winslow
    m = geo.topology.patch_map(0, sys_.full_control_net(c))
    assert sampled_bijectivity(m, 5).fold_count == 0
    w_ref = winslow(lbend_solved.patch_map(0))
    assert abs(winslow(m) - w_ref) < 1e-8 * w_ref


def test_driver_terminates_when_pushed_past_achievable_accuracy():
    # demanding a residual below the roundoff floor must end in a clean
    # stagnated or non-convergence report, never a hang
    sys_, geo = annulus_system(2, 4)
    c0 = sys_.net_as_c(transfinite_global(sys_)[geo.topology.inner_indices])
    cfg = SolverConfig(newton_tol=1e-30, max_newton=25)
    c, rep = newton_solve(sys_, c0, cfg)
    assert not rep.converged
    if rep.stagnated:
        assert rep.residual_norms[-1] < 1e-6  # stalled deep in the tail
    else:
        assert rep.newton_iterations == 25


def test_exact_annulus_interpolant_l2_error_decreases():
    # the solved map approaches the closed-form solution under refinement
    errs = []
    for ne in (4, 8):
        sys_, geo = annulus_system(2, ne)
        c0 = sys_.net_as_c(
            transfinite_global(sys_)[geo.topology.inner_indices])
        c, rep = newton_solve(sys_, c0, SolverConfig(newton_tol=1e-10))
        assert rep.converged
        m = geo.topology.patch_map(0, sys_.full_control_net(c))
        q, w = gauss_legendre(5)
        kx = m.basis.kv_xi
        pts = (kx.breakpoints[:-1, None]
               + np.diff(kx.breakpoints)[:, None] * q).ravel()
        wts = (np.diff(kx.breakpoints)[:, None] * w).ravel()
        X = m.grid_jet(pts, pts, 0)["x"]
        exact = exact_annulus_map(pts[:, None] * np.ones_like(pts)[None, :],
                                  np.ones_like(pts)[:, None] * pts[None, :])
        err2 = ((X - exact) ** 2).sum(-1)
        errs.append(np.sqrt(np.sum(wts[:, None] * wts[None, :] * err2)))
        from eggmix.mapping import sampled_bijectivity
        assert sampled_bijectivity(m, 5).min_detj > 0.0
    assert errs[1] < 0.3 * errs[0]


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_transfinite_global_matches_coons_loop(name):
    geo = parse_geometry(load_bundled(name))
    bv = boundary_values_from_faces(geo.topology, geo.boundary_data)
    system = MixedSystem(geo.topology, bv)
    ref = coons_loop_transfinite_global(system)
    net = transfinite_global(system)
    assert net.tobytes() == ref.tobytes()
    assert folded_initial_guess(system).tobytes() == \
        folded_initial_guess(system, ref).tobytes()
