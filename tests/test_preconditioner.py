"""The frozen-metric Laplacian that right-preconditions the Schur GMRES:
assembly against a pointwise oracle, definiteness on a folded iterate, the
true-residual stopping test and iteration-count regression guards."""

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from eggmix.assembly import MixedSystem, boundary_values_from_faces, \
    single_patch_system
from eggmix.geometries import build_bat, build_lbend, build_quarter_annulus, \
    build_two_patch_square
from eggmix.io_cli import parse_geometry
from eggmix.mapping import sampled_bijectivity, unit_square_map
from eggmix.multipatch import AffinePatchMap, build_topology
from eggmix.solver import NewtonState, SolverConfig, build_system_hierarchy, \
    newton_solve, schur_matvec, schur_rhs, schur_solve
from eggmix.splines import TensorBasis, uniform_knots

from conftest import knot_vectors, start
from oracles import element_union_laplacian_pattern, loop_frozen_laplacian


def geometry_system(doc, mode="full"):
    geo = parse_geometry(doc)
    bv = boundary_values_from_faces(geo.topology, geo.boundary_data)
    return MixedSystem(geo.topology, bv, mode=mode)


def square_case(rng):
    tb = TensorBasis(uniform_knots(3, 4), uniform_knots(2, 5))
    system = single_patch_system(unit_square_map(tb))
    c = start(system) + 0.02 * rng.standard_normal(system.c_size)
    return system, c


def lbend_case(rng):
    system = geometry_system(build_lbend(), "xi")
    return system, start(system)


def bat_folded_case(rng):
    system = geometry_system(build_bat())
    return system, start(system, folded=True)


@pytest.mark.parametrize("case", [square_case, lbend_case, bat_folded_case])
def test_frozen_laplacian_matches_pointwise_loop(case, rng):
    system, c = case(rng)
    K = system.frozen_laplacian(c).toarray()
    K_ref = loop_frozen_laplacian(system, c)
    assert K.shape == (system.n_inner, system.n_inner)
    assert np.abs(K - K_ref).max() <= 1e-12 * np.abs(K_ref).max()


def lbend_xi_l1_system():
    geo = parse_geometry(build_lbend())
    bv = boundary_values_from_faces(geo.topology, geo.boundary_data)
    return build_system_hierarchy(geo.topology, bv, 1, mode="xi")[-1].system


@pytest.mark.parametrize("make_system", [
    lambda: geometry_system(build_bat()),
    lbend_xi_l1_system,
    lambda: geometry_system(build_two_patch_square()),
], ids=["bat", "lbend-xi-L1", "two_patch_square"])
def test_laplacian_pattern_matches_union1d_loop(make_system):
    system = make_system()
    lf = system._laplacian_factors
    indices_ref, indptr_ref = element_union_laplacian_pattern(system)
    for got, want in ((lf.indices, indices_ref), (lf.indptr, indptr_ref)):
        assert got.dtype == want.dtype and np.array_equal(got, want)


@settings(max_examples=25, deadline=None)
@given(knot_vectors(), knot_vectors(), st.floats(0.0, 2 * np.pi),
       st.floats(0.5, 2.0), st.floats(0.5, 2.0), st.floats(-0.5, 0.5),
       st.integers(0, 2 ** 31 - 1))
def test_frozen_laplacian_on_random_patch(kv_xi, kv_eta, angle, s1, s2, shear, seed):
    # one patch under a random affine map (det > 0) with a perturbed net:
    # at C0 lines the coupled pairs are narrower than the 2p + 1 band
    rot = np.array([[np.cos(angle), -np.sin(angle)], [np.sin(angle), np.cos(angle)]])
    rng = np.random.default_rng(seed)
    am = AffinePatchMap(rot @ np.array([[s1, shear], [0.0, s2]]), rng.uniform(-1, 1, 2))
    tb = TensorBasis(kv_xi, kv_eta)
    topo = build_topology([(tb, am)], [])
    net = am.apply(unit_square_map(tb).control)
    net += 0.05 * rng.standard_normal(net.shape)
    system = MixedSystem(topo, net[topo.boundary_indices])
    c = system.net_as_c(net[topo.inner_indices])
    K = system.frozen_laplacian(c)
    K_ref = loop_frozen_laplacian(system, c)
    assert np.abs(K.toarray() - K_ref).max() <= 1e-12 * np.abs(K_ref).max()
    indices_ref, indptr_ref = element_union_laplacian_pattern(system)
    assert np.array_equal(K.indices, indices_ref)
    assert np.array_equal(K.indptr, indptr_ref)


def test_frozen_laplacian_spd_on_folded_bat():
    system, c = bat_folded_case(None)
    net = system.full_control_net(c)
    assert any(sampled_bijectivity(system.topology.patch_map(i, net), 5).fold_count
               for i in range(system.topology.n_patches))
    K = system.frozen_laplacian(c).toarray()
    # P = -K preconditions the Schur operator: -P must be SPD
    np.testing.assert_allclose(K, K.T, rtol=0.0, atol=1e-14 * np.abs(K).max())
    np.linalg.cholesky(K)


def test_preconditioner_solves_both_components(rng):
    system, c = lbend_case(rng)
    K = system.frozen_laplacian(c).toarray()
    y = rng.standard_normal(system.c_size)
    z = system.laplace_preconditioner(c)(y)
    n = system.n_inner
    np.testing.assert_allclose(-K @ z[:n], y[:n], atol=1e-10)
    np.testing.assert_allclose(-K @ z[n:], y[n:], atol=1e-10)


@pytest.mark.parametrize("case", [lbend_case, bat_folded_case])
def test_right_preconditioning_keeps_true_residual_test(case, rng):
    system, c = case(rng)
    cfg = SolverConfig()
    state = NewtonState(system, system.project_d(c), c)
    rhs = schur_rhs(system, state)
    delta_c, gm = schur_solve(system, state, rhs, cfg.gmres_tol, cfg)
    assert gm.converged
    true_res = rhs - schur_matvec(system, state, delta_c)
    assert np.linalg.norm(true_res) <= cfg.gmres_tol * np.linalg.norm(rhs)


@pytest.mark.parametrize("level", [0, 1, 2])
def test_annulus_gmres_per_newton_step_bounded(level):
    geo = parse_geometry(build_quarter_annulus())
    bv = boundary_values_from_faces(geo.topology, geo.boundary_data)
    system = build_system_hierarchy(geo.topology, bv, level)[-1].system
    c, rep = newton_solve(system, start(system), SolverConfig())
    assert rep.converged and rep.newton_iterations == 3
    assert max(rep.gmres_iterations) <= 8


def test_bat_folded_gmres_total_bounded(bat_solved):
    rep = bat_solved.report
    assert rep.converged and rep.newton_iterations == 9
    assert sum(rep.gmres_iterations) <= 80
    assert all(rep.gmres_converged)


def test_report_records_gmres_residuals_and_denominators(capsys):
    system = geometry_system(build_quarter_annulus())
    cfg = SolverConfig(verbose=True)
    c, rep = newton_solve(system, start(system), cfg)
    n = rep.newton_iterations
    # one GMRES solve per step, one denominator per iterate
    assert len(rep.gmres_residuals) == n
    assert len(rep.min_denominators) == len(rep.residual_norms) == n + 1
    assert all(0.0 <= r <= cfg.gmres_tol for r in rep.gmres_residuals)
    assert all(m >= system.mu for m in rep.min_denominators)
    d = rep.to_dict()
    assert d["gmres_residuals"] == rep.gmres_residuals
    assert d["min_denominators"] == rep.min_denominators
    lines = [json.loads(ln) for ln in capsys.readouterr().err.splitlines()]
    assert [ln["gmres_residual"] for ln in lines] == rep.gmres_residuals
    assert [ln["min_denominator"] for ln in lines] == rep.min_denominators[:-1]

