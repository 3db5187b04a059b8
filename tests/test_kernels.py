"""The sum-factorised and matmul/tensordot kernels agree with their
batched-einsum references (tests/oracles.py) to 1e-12 relative to the size
of the result."""

import tracemalloc

import numpy as np
import pytest

from eggmix.assembly import MixedSystem, boundary_values_from_faces, \
    single_patch_system
from eggmix.geometries import BUILDERS, build_bat, build_lbend
from eggmix.io_cli import parse_geometry
from eggmix.mapping import SplineMap, unit_square_map, winslow_gradient
from eggmix.solver import SolverConfig, build_system_hierarchy, newton_solve, \
    transfinite_global
from eggmix.splines import TensorBasis, uniform_knots

from conftest import dense_laplacian, start
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


def refined_system(name, mode, level):
    """Finest system of a bundled geometry's hierarchy."""
    geo = parse_geometry(BUILDERS[name]())
    bv = boundary_values_from_faces(geo.topology, geo.boundary_data)
    return build_system_hierarchy(geo.topology, bv, level, mode=mode)[-1].system


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
    # every patch is walked in more than one strip
    assert min(len(ctx.strips) for ctx in system.patches) >= 2
    c = start(system)
    system.eval_RN(system.project_d(c), c)
    unfolded = system.last_min_denominator
    c = start(system, folded=True)
    assert_eval_rn_matches(system, system.project_d(c), c)
    # the folded start has the smaller Winslow denominators
    assert system.last_min_denominator < 0.5 * unfolded


@pytest.mark.parametrize("level, min_strips", [(1, 2), (2, 3)],
                         ids=["lbend_xi_l1", "lbend_xi_l2"])
def test_eval_rn_matches_einsum_in_strips(level, min_strips, rng):
    # a patch walked in several strips: the xi moments of neighbouring
    # strips overlap on the functions of their common span end
    system = refined_system("lbend", "xi", level)
    assert len(system.patches[0].strips) >= min_strips
    c = start(system)
    d = system.project_d(c) + 0.1 * rng.standard_normal(system.d_size)
    assert_eval_rn_matches(system, d, c)


@pytest.mark.parametrize("name, mode, level", [
    ("bat", "full", 0), ("bat", "full", 1), ("lbend", "xi", 0), ("lbend", "xi", 2),
])
def test_strips_partition_spans_and_hold_active_columns(name, mode, level):
    system = refined_system(name, mode, level)
    for ctx in system.patches:
        fx = ctx.cache.xi
        points = [pts for pts, _, _ in ctx.strips]
        # consecutive strips of whole spans, covering every point once
        assert points[0].start == 0 and points[-1].stop == len(fx.points)
        assert all(a.stop == b.start for a, b in zip(points, points[1:]))
        assert all(pts.start % fx.nq == 0 for pts in points)
        if level == 0:
            assert len(ctx.strips) == 1
        for pts, cols, bar_cols in ctx.strips:
            # no function outside a strip's bands is active on its points
            for factor, band in ((fx.sig, cols), (fx.bar, bar_cols)):
                outside = np.ones(factor.shape[-1], dtype=bool)
                outside[band] = False
                assert not factor[:, pts][..., outside].any()


@pytest.mark.parametrize("seen", [True, False], ids=["same_iterate", "unseen_iterate"])
def test_frozen_laplacian_after_eval_rn_matches_pointwise_loop(seen, rng):
    # after eval_RN at c the Laplacian reuses its metric; after eval_RN at
    # another iterate it must compute the metric of c itself
    system = refined_system("lbend", "xi", 1)
    c = start(system)
    other = c + 0.01 * rng.standard_normal(c.shape)
    system.eval_RN(system.project_d(c), c if seen else other)
    K = dense_laplacian(system, c)
    K_ref = loop_frozen_laplacian(system, c)
    assert np.abs(K - K_ref).max() <= RTOL * np.abs(K_ref).max()


def test_failed_eval_rn_leaves_no_stale_metric():
    # auxiliary coefficients too short for the last patch only: the call
    # fails after the first patch's metric was overwritten at the new net,
    # and the Laplacian at the earlier iterate must not take that metric
    system = refined_system("bat", "full", 0)
    c = start(system)
    d = system.project_d(c)
    system.eval_RN(d, c)
    short = d[: system.patches[0].bar_idx.max() + 1]
    with pytest.raises(IndexError):
        system.eval_RN(short, start(system, folded=True))
    K = dense_laplacian(system, c)
    K_ref = loop_frozen_laplacian(system, c)
    assert np.abs(K - K_ref).max() <= RTOL * np.abs(K_ref).max()


def test_newton_solve_runs_no_metric_pass_in_frozen_laplacian(monkeypatch):
    # every preconditioner build of a folded-bat solve follows an eval_RN
    # at its iterate, so it takes the metric from there; frozen_laplacian
    # walks the strips itself only at an iterate eval_RN has not seen
    system = refined_system("bat", "full", 0)
    passes = []         # per strip pass: was it inside frozen_laplacian?
    inside = [False]
    strip_pass, frozen_laplacian = system._strip_pass, system.frozen_laplacian

    def counted(ctx, net, d):
        passes.append(inside[0])
        return strip_pass(ctx, net, d)

    def laplacian(c):
        inside[0] = True
        try:
            return frozen_laplacian(c)
        finally:
            inside[0] = False
    monkeypatch.setattr(system, "_strip_pass", counted)
    monkeypatch.setattr(system, "frozen_laplacian", laplacian)
    c, rep = newton_solve(system, start(system, folded=True), SolverConfig())
    assert rep.converged and rep.newton_iterations == 10
    assert passes.count(False) == rep.rn_evals * system.topology.n_patches
    assert passes.count(True) == 0
    system.frozen_laplacian(c + 1e-3)
    assert passes.count(True) == system.topology.n_patches


def test_frozen_laplacian_matches_pointwise_loop_lbend_xi_l1():
    geo = parse_geometry(build_lbend())
    bv = boundary_values_from_faces(geo.topology, geo.boundary_data)
    system = build_system_hierarchy(geo.topology, bv, 1, mode="xi")[-1].system
    c = start(system)
    K = dense_laplacian(system, c)
    K_ref = loop_frozen_laplacian(system, c)
    assert np.abs(K - K_ref).max() <= RTOL * np.abs(K_ref).max()


def test_iterate_kernels_reuse_scratch_memory(rng):
    # eval_RN and frozen_laplacian share their grid arrays across patches
    # (of three sizes on the bat) and calls: interleaved calls at two
    # iterates still match the oracles, and after the first call eval_RN
    # allocates no grid-sized array, since every fresh one costs page
    # faults once the allocator has returned its memory to the system
    system = geometry_system(build_bat(), "full")
    states = [random_state(system, rng) for _ in range(2)]
    for d, c in states:
        assert_eval_rn_matches(system, d, c)
        K = dense_laplacian(system, c)
        assert np.abs(K - loop_frozen_laplacian(system, c)).max() \
            <= RTOL * np.abs(K).max()
    tracemalloc.start()
    system.eval_RN(*states[1])
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert peak < 4 * max(ctx.wgrid.nbytes for ctx in system.patches)


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
