"""The sum-factorised and matmul/tensordot kernels agree with their
batched-einsum references (tests/oracles.py) to 1e-12 relative to the size
of the result."""

import tracemalloc

import numpy as np
import pytest

import eggmix.assembly
from eggmix.assembly import MixedSystem, boundary_values_from_faces, \
    single_patch_system
from eggmix.geometries import BUILDERS, build_bat, build_lbend
from eggmix.io_cli import parse_geometry
from eggmix.mapping import SplineMap, unit_square_map, winslow_gradient
from eggmix.solver import SolverConfig, build_system_hierarchy, newton_solve, \
    transfinite_global
from eggmix.splines import TensorBasis, uniform_knots

from conftest import dense_laplacian, start
from oracles import constant_blocks, einsum_eval_RN, einsum_grid_jet, \
    einsum_winslow_gradient, loop_frozen_laplacian

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
    assert abs(system.min_denominator() - min_denom) <= RTOL * min_denom


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
    unfolded = system.min_denominator()
    c = start(system, folded=True)
    assert_eval_rn_matches(system, system.project_d(c), c)
    # the folded start has the smaller Winslow denominators
    assert system.min_denominator() < 0.5 * unfolded


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
    # the kernels share their scratch across patches (of three sizes on the
    # bat) and calls: interleaved calls at two iterates of the bat and of
    # the lbend, a system of another patch size, still match the oracles,
    # every result stays what its call returned, so none is a scratch array
    # a later call writes, and after the first call eval_RN allocates no
    # grid-sized array, since every fresh one costs page faults once the
    # allocator has returned its memory to the system
    systems = [geometry_system(build_bat(), "full"),
               geometry_system(build_lbend(), "xi")]
    calls = []
    for _ in range(2):
        for system in systems:
            d, c = random_state(system, rng)
            tilde = rng.standard_normal((system.n_fields, system.topology.n_tilde))
            got = (system.eval_RN(d, c), system.ainv_exact(tilde),
                   system.apply_ainv_b(c))
            want, min_denom = einsum_eval_RN(system, d, c)
            assert abs(system.min_denominator() - min_denom) <= RTOL * min_denom
            K = dense_laplacian(system, c)
            assert np.abs(K - loop_frozen_laplacian(system, c)).max() \
                <= RTOL * np.abs(K).max()
            calls.append((system, c, tilde, want, got, [g.copy() for g in got]))
    for system, c, tilde, want, got, kept in calls:
        assert all(np.array_equal(g, k) for g, k in zip(got, kept))
        rn, ainv, ainv_b = got
        assert_rel_close(rn, want)
        A, B, _ = constant_blocks(system)
        n = system.topology.n_sigbar
        mass = A[:n, :n].toarray()
        assert_rel_close(ainv, np.linalg.solve(mass, system.reduce_tilde(tilde).T).T)
        assert_rel_close(ainv_b, np.linalg.solve(
            mass, (B @ c).reshape(system.n_fields, n).T).T.ravel())
    system = systems[0]
    d, c = random_state(system, rng)
    tracemalloc.start()
    system.eval_RN(d, c)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert peak < 4 * max(ctx.wgrid.nbytes for ctx in system.patches)


def test_laplacian_views_share_the_residual_scratch_in_either_call_order(rng):
    # the frozen Laplacian works in views of the residual kernels' scratch,
    # whether it is called before or after the first eval_RN of a fresh
    # system: a view taken while the plans still grow the scratch would be
    # of a dropped array. K is the same in either order
    doc = build_bat()
    d, c = random_state(geometry_system(doc, "full"), rng)
    bands = []
    for rn_first in (True, False):
        system = geometry_system(doc, "full")
        if rn_first:
            system.eval_RN(d, c)
        bands.append(system.frozen_laplacian(c).copy())
        system.eval_RN(d, c)
        for lp in system._laplacian_factors.patches:
            assert np.shares_memory(lp.M, system._buffers["rows"])
            assert np.shares_memory(lp.Z, system._buffers["eta_bar"])
    assert np.array_equal(bands[0], bands[1])


@pytest.mark.parametrize("rn_first", [True, False], ids=["eval_RN", "frozen_laplacian"])
def test_system_tables_are_built_once_in_either_call_order(rn_first, rng, monkeypatch):
    # a fresh system makes one plan per patch, whichever kernel runs first,
    # and finds the cell length of each DirectionFactors once, when the
    # factors are made: a second plan pass or a recount is wasted set-up
    plans, cells = [], []
    real_plan, real_cells = MixedSystem._patch_plan, eggmix.assembly._spans_per_cell

    def plan(self, ctx, out):
        plans.append(id(ctx))
        return real_plan(self, ctx, out)

    def spans_per_cell(first_sig):
        cells.append(first_sig)
        return real_cells(first_sig)

    monkeypatch.setattr(MixedSystem, "_patch_plan", plan)
    monkeypatch.setattr(eggmix.assembly, "_spans_per_cell", spans_per_cell)
    system = geometry_system(build_bat(), "full")
    d, c = random_state(system, rng)
    for kernel in ((lambda: system.eval_RN(d, c), lambda: system.frozen_laplacian(c))
                   if rn_first else
                   (lambda: system.frozen_laplacian(c), lambda: system.eval_RN(d, c))):
        kernel()
    assert sorted(plans) == sorted(id(ctx) for ctx in system.patches)
    factors = {id(f): f for ctx in system.patches for f in (ctx.cache.xi, ctx.cache.eta)}
    assert len(cells) == len(factors)
    for f in factors.values():
        runs = np.diff(np.flatnonzero(np.diff(f.first_sig, prepend=-1, append=-1)))
        assert f.cell == np.gcd.reduce(runs)
        for half in (True, False):
            n_cells, n_local, kq = f.cell_shape(half)
            assert n_cells * f.cell == f.n_spans and kq == f.cell * f.nq


@pytest.mark.parametrize("nderiv", [0, 1])
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
