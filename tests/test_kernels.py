"""The sum-factorised and matmul/tensordot kernels agree with their
batched-einsum references (tests/oracles.py) to 1e-12 relative to the size
of the result."""

import numpy as np
import pytest

from eggmix.assembly import MixedSystem, boundary_values_from_faces, \
    single_patch_system
from eggmix.geometries import build_bat, build_lbend
from eggmix.io_cli import parse_geometry
from eggmix.mapping import SplineMap, unit_square_map, winslow_gradient
from eggmix.solver import build_system_hierarchy, transfinite_global
from eggmix.splines import TensorBasis, uniform_knots

from conftest import start
from oracles import einsum_eval_RN, einsum_grid_jet, einsum_winslow_gradient, \
    loop_frozen_laplacian

RTOL = 1e-12


def assert_rel_close(actual, expected):
    assert actual.shape == expected.shape
    scale = np.abs(expected).max()
    assert np.abs(actual - expected).max() <= RTOL * scale


def geometry_system(doc, mode):
    geo = parse_geometry(doc)
    bvals = boundary_values_from_faces(geo.topology, geo.boundary_data)
    return MixedSystem(geo.topology, bvals, mode=mode)


def random_state(system, rng):
    """A transfinite start with noisy inner points and random auxiliary
    coefficients, so every term of the residual is nonzero."""
    net = transfinite_global(system)[system.topology.inner_indices]
    c = system.net_as_c(net + 0.01 * rng.standard_normal(net.shape))
    d = rng.standard_normal(system.d_size)
    return d, c


def assert_eval_rn_matches(system, d, c):
    """eval_RN and its minimum Winslow denominator against the oracle."""
    got = system.eval_RN(d, c)
    want, min_denom = einsum_eval_RN(system, d, c)
    assert_rel_close(got, want)
    assert abs(system.last_min_denominator - min_denom) <= RTOL * min_denom


@pytest.mark.parametrize("mode", ["full", "xi", "eta"])
def test_eval_rn_matches_einsum_single_patch(mode, rng):
    tb = TensorBasis(uniform_knots(3, 4), uniform_knots(2, 5))
    system = single_patch_system(unit_square_map(tb), mode=mode, chi=0.3)
    d, c = random_state(system, rng)
    assert_eval_rn_matches(system, d, c)


def test_eval_rn_matches_einsum_eta_mode_c0_line(rng):
    # degree 3 with a C0 knot line at eta = 0.5, running along xi: eta mode
    # keeps the xi second derivatives and carries v ~ x_eta across the line
    tb = TensorBasis(uniform_knots(3, 4), uniform_knots(3, 4, c0_breaks=(0.5,)))
    system = single_patch_system(unit_square_map(tb), mode="eta", chi=0.3)
    d, c = random_state(system, rng)
    assert_eval_rn_matches(system, d, c)


def test_eval_rn_matches_einsum_lbend_xi(rng):
    system = geometry_system(build_lbend(), "xi")
    d, c = random_state(system, rng)
    assert_eval_rn_matches(system, d, c)


def test_eval_rn_matches_einsum_bat(rng):
    system = geometry_system(build_bat(), "full")
    assert system.topology.n_patches == 3
    d, c = random_state(system, rng)
    assert_eval_rn_matches(system, d, c)


def test_eval_rn_matches_einsum_bat_l1_folded():
    geo = parse_geometry(build_bat())
    bv = boundary_values_from_faces(geo.topology, geo.boundary_data)
    system = build_system_hierarchy(geo.topology, bv, 1)[-1].system
    c = start(system)
    system.eval_RN(system.project_d(c), c)
    unfolded = system.last_min_denominator
    c = start(system, folded=True)
    assert_eval_rn_matches(system, system.project_d(c), c)
    # the folded start has the smaller Winslow denominators
    assert system.last_min_denominator < 0.5 * unfolded


def test_frozen_laplacian_matches_pointwise_loop_lbend_xi_l1():
    geo = parse_geometry(build_lbend())
    bv = boundary_values_from_faces(geo.topology, geo.boundary_data)
    system = build_system_hierarchy(geo.topology, bv, 1, mode="xi")[-1].system
    c = start(system)
    K = system.frozen_laplacian(c).toarray()
    K_ref = loop_frozen_laplacian(system, c)
    assert np.abs(K - K_ref).max() <= RTOL * np.abs(K_ref).max()


@pytest.mark.parametrize("nderiv", [0, 1, 2])
def test_grid_jet_matches_einsum(nderiv, rng):
    tb = TensorBasis(uniform_knots(3, 4, c0_breaks=(0.5,)), uniform_knots(2, 5))
    m = SplineMap(tb, rng.standard_normal((tb.dim, 2)))
    xs = np.sort(rng.uniform(0.0, 1.0, 17))
    ys = np.sort(rng.uniform(0.0, 1.0, 11))
    got = m.grid_jet(xs, ys, nderiv)
    want = einsum_grid_jet(m, xs, ys, nderiv)
    assert set(got) == set(want)
    for key in want:
        assert_rel_close(got[key], want[key])


def test_winslow_gradient_matches_einsum(rng):
    tb = TensorBasis(uniform_knots(3, 4), uniform_knots(2, 5))
    m = unit_square_map(tb)
    m.control[m.inner_indices] += 0.02 * rng.standard_normal(
        (len(m.inner_indices), 2))
    W, grad = winslow_gradient(m, 5)
    W_ref, grad_ref = einsum_winslow_gradient(m, 5)
    assert abs(W - W_ref) <= RTOL * abs(W_ref)
    assert_rel_close(grad, grad_ref)
