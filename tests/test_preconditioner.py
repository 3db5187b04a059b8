"""The frozen-metric Laplacian that right-preconditions the Schur GMRES:
assembly against a pointwise oracle, definiteness on a folded iterate, the
true-residual stopping test and iteration-count regression guards."""

import json
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import sparse
from scipy.sparse import csgraph

import eggmix.assembly
from eggmix.assembly import PAIRINGS, MixedSystem, boundary_values_from_faces, \
    single_patch_system
from eggmix.errors import FactorizationError
from eggmix.geometries import build_bat, build_lbend, build_quarter_annulus, \
    build_two_patch_square
from eggmix.io_cli import parse_geometry
from eggmix.mapping import sampled_bijectivity, unit_square_map
from eggmix.multipatch import AffinePatchMap, Interface, build_topology
from eggmix.solver import GMRES_TOL, NewtonState, SolverConfig, SolverReport, \
    build_system_hierarchy, newton_solve, schur_matvec, schur_rhs, schur_solve
from eggmix.splines import TensorBasis, uniform_knots

from conftest import dense_laplacian, knot_vectors, start
from oracles import element_union_laplacian_pattern, loop_frozen_laplacian


def union_band_places(system):
    """Places in the lower band storage of the lower triangle, in band
    order, of the element-union pattern of K, ascending."""
    lf = system._laplacian_factors
    indices, indptr = element_union_laplacian_pattern(system)
    rank = np.empty(system.n_inner, dtype=int)
    rank[lf.order] = np.arange(system.n_inner)
    r = rank[np.repeat(np.arange(system.n_inner), np.diff(indptr))]
    s = rank[indices]
    lower = r >= s
    return np.sort(s[lower] * (lf.bandwidth + 1) + r[lower] - s[lower])


def structural_band_places(system):
    """The distinct band places the Laplacian's entries are summed into."""
    lf = system._laplacian_factors
    places = lf.places
    return np.unique(places[places < (lf.bandwidth + 1) * system.n_inner])


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


def perturbed_case(name, patches, interfaces=()):
    """A case named ``name``: the system on the given (TensorBasis,
    AffinePatchMap) patches, its net the mapped unit-square nets with
    perturbed inner points, and that iterate."""
    def case(rng):
        topo = build_topology(patches, interfaces)
        net = np.zeros((topo.n_sigma, 2))
        for l2g, (tb, am) in zip(topo.sig_l2g, patches):
            net[l2g] = am.apply(unit_square_map(tb).control)
        inner = topo.inner_indices
        net[inner] += 0.03 * rng.standard_normal((len(inner), 2))
        system = MixedSystem(topo, net[topo.boundary_indices])
        return system, system.net_as_c(net[inner])
    case.__name__ = name
    return case


SHEAR = AffinePatchMap(np.array([[1.0, 0.3], [-0.2, 0.8]]), np.array([0.1, -0.2]))
TURN = AffinePatchMap(np.array([[0.0, -1.2], [0.9, 0.1]]), np.array([1.5, 0.3]))
# two patches under non-identity maps, glued along a xi line, an eta line,
# reversed, and an eta line to a xi line, of degrees 2 and 3; and one patch
# with a C0 line in each direction, which splits the active functions of
# the spans on either side of it
GLUED_CASES = [
    perturbed_case("xi_line_p2_case", [
        (TensorBasis(uniform_knots(2, 3), uniform_knots(2, 4)), SHEAR),
        (TensorBasis(uniform_knots(2, 2), uniform_knots(2, 4)), TURN)],
        [Interface(0, "east", 1, "west")]),
    perturbed_case("eta_line_p3_case", [
        (TensorBasis(uniform_knots(3, 3), uniform_knots(3, 2)), TURN),
        (TensorBasis(uniform_knots(3, 3), uniform_knots(3, 4)), SHEAR)],
        [Interface(0, "north", 1, "south")]),
    perturbed_case("reversed_p2_p3_case", [
        (TensorBasis(uniform_knots(2, 3), uniform_knots(3, 3)), SHEAR),
        (TensorBasis(uniform_knots(3, 2), uniform_knots(3, 3)), TURN)],
        [Interface(0, "east", 1, "east", reversed=True)]),
    perturbed_case("eta_to_xi_reversed_case", [
        (TensorBasis(uniform_knots(3, 2), uniform_knots(2, 3)), TURN),
        (TensorBasis(uniform_knots(2, 3), uniform_knots(3, 2)), SHEAR)],
        [Interface(0, "north", 1, "west", reversed=True)]),
    perturbed_case("c0_lines_case", [
        (TensorBasis(uniform_knots(2, 4, c0_breaks=(0.5,)),
                     uniform_knots(3, 3, c0_breaks=(1 / 3,))), SHEAR)]),
]


@pytest.mark.parametrize("case", [square_case, lbend_case, bat_folded_case, *GLUED_CASES])
def test_frozen_laplacian_matches_pointwise_loop(case, rng):
    system, c = case(rng)
    K = dense_laplacian(system, c)
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
    *[lambda case=case: case(np.random.default_rng(0))[0] for case in GLUED_CASES],
], ids=["bat", "lbend-xi-L1", "two_patch_square",
        *[case.__name__.removesuffix("_case") for case in GLUED_CASES]])
def test_laplacian_pattern_matches_union1d_loop(make_system):
    # the band places K's entries go to are exactly the lower triangle, in
    # band order, of the union of the element couplings
    system = make_system()
    assert np.array_equal(structural_band_places(system), union_band_places(system))


@pytest.mark.parametrize("builder", [build_bat, build_lbend, build_two_patch_square])
def test_xi_pair_factors_hold_the_pairs_i_le_j(builder):
    system = geometry_system(builder(), "xi" if builder is build_lbend else "full")
    for ctx, lp in zip(system.patches, system._laplacian_factors.patches):
        f = ctx.cache.xi
        width = f.tab_sig.shape[-1]
        coupled = {(int(a + i), int(a + j)) for a in f.first_sig
                   for i in range(width) for j in range(width)}
        upper = {(i, j) for i, j in coupled if i <= j}
        assert len(upper) == (len(coupled) + f.sig.shape[-1]) // 2
        a, b = lp.x.pairs
        assert np.all(a <= b) and len(a) == width * (width + 1) // 2
        assert {(int(c + i), int(c + j)) for c in lp.x.first
                for i, j in zip(a, b)} == upper
        # one table per pairing, cell, local pair and point of the cell
        n_cells = len(lp.x.first)
        assert lp.x.table.shape == (len(PAIRINGS), n_cells, len(a),
                                    len(f.points) // n_cells)


@pytest.mark.parametrize("builder, calls", [
    (build_two_patch_square, 2), (build_bat, 6)], ids=["two_patch_square", "bat"])
def test_pair_factors_once_per_direction_factors(builder, calls, monkeypatch):
    # patch directions that share their DirectionFactors share their span
    # tables: one _span_tables call per (factors, half). The two-patch
    # square shares both directions; the bat's xi knot vectors differ, so
    # only its eta factors are shared.
    real = eggmix.assembly._span_tables
    made = []

    def counting(f, half):
        made.append((id(f), half))
        return real(f, half)

    monkeypatch.setattr(eggmix.assembly, "_span_tables", counting)
    system = geometry_system(builder())
    lf = system._laplacian_factors
    assert len(made) == len(set(made)) == calls
    # each patch takes the one table of its factors, equal to a fresh call
    tables = {}
    for ctx, lp in zip(system.patches, lf.patches):
        for got, key in ((lp.x, (ctx.cache.xi, True)), (lp.y, (ctx.cache.eta, False))):
            assert tables.setdefault((id(key[0]), key[1]), got) is got
            want = real(*key)
            for attr in ("first", "pairs", "table"):
                np.testing.assert_array_equal(getattr(got, attr), getattr(want, attr))


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
    K = dense_laplacian(system, c)
    K_ref = loop_frozen_laplacian(system, c)
    assert np.abs(K - K_ref).max() <= 1e-12 * np.abs(K_ref).max()
    assert np.array_equal(structural_band_places(system), union_band_places(system))


def test_frozen_laplacian_of_a_patch_glued_to_itself(rng):
    # west glued to east across a single xi span: two functions of that
    # span are one DOF, and K's diagonal takes their coupling and its mirror
    tb = TensorBasis(uniform_knots(2, 1), uniform_knots(2, 3))
    topo = build_topology([(tb, AffinePatchMap.identity())],
                          [Interface(0, "west", 0, "east")])
    net = np.zeros((topo.n_sigma, 2))
    net[topo.sig_l2g[0]] = unit_square_map(tb).control
    net[topo.inner_indices] += 0.05 * rng.standard_normal((len(topo.inner_indices), 2))
    system = MixedSystem(topo, net[topo.boundary_indices])
    c = system.net_as_c(net[topo.inner_indices])
    assert system._laplacian_factors.twice.size
    K = dense_laplacian(system, c)
    K_ref = loop_frozen_laplacian(system, c)
    assert np.abs(K - K_ref).max() <= 1e-12 * np.abs(K_ref).max()


def test_frozen_laplacian_spd_on_folded_bat():
    system, c = bat_folded_case(None)
    net = system.full_control_net(c)
    assert any(sampled_bijectivity(system.topology.patch_map(i, net), 5).fold_count
               for i in range(system.topology.n_patches))
    K = dense_laplacian(system, c)
    # P = -K preconditions the Schur operator: -P must be SPD
    np.testing.assert_allclose(K, K.T, rtol=0.0, atol=1e-14 * np.abs(K).max())
    np.linalg.cholesky(K)


def two_patch_square_case(rng):
    system = geometry_system(build_two_patch_square())
    return system, start(system)


def band_widths(system):
    """Bandwidths of the element-union pattern of the Laplacian in the
    natural and the reverse Cuthill-McKee order."""
    indices, indptr = element_union_laplacian_pattern(system)
    n = system.n_inner
    rows = np.repeat(np.arange(n), np.diff(indptr))
    graph = sparse.csr_matrix((np.ones(len(indices)), indices, indptr), shape=(n, n))
    rank = np.empty(n, dtype=int)
    rank[csgraph.reverse_cuthill_mckee(graph, symmetric_mode=True)] = np.arange(n)
    return (int(np.abs(rows - indices).max()),
            int(np.abs(rank[rows] - rank[indices]).max()))


@pytest.mark.parametrize("case, natural", [
    (lbend_case, True), (bat_folded_case, False), (two_patch_square_case, True),
], ids=["lbend", "bat-folded", "two_patch_square"])
def test_preconditioner_solves_both_components(case, natural, rng):
    system, c = case(rng)
    K = dense_laplacian(system, c)
    y = rng.standard_normal(system.c_size)
    z = system.laplace_preconditioner(c)(y)
    n = system.n_inner
    np.testing.assert_allclose(-K @ z[:n], y[:n], atol=1e-10)
    np.testing.assert_allclose(-K @ z[n:], y[n:], atol=1e-10)
    # the band order is the narrower of the two candidates
    lf = system._laplacian_factors
    assert lf.bandwidth == min(band_widths(system))
    assert np.array_equal(lf.order, np.arange(n)) == natural


def test_preconditioner_of_a_patch_without_inner_dofs():
    tb = TensorBasis(uniform_knots(1, 1), uniform_knots(1, 1))
    system = single_patch_system(unit_square_map(tb))
    assert system.n_inner == 0
    assert system.laplace_preconditioner(np.zeros(0))(np.zeros(0)).shape == (0,)


def test_preconditioner_refuses_indefinite_laplacian(monkeypatch, rng):
    system, c = lbend_case(rng)
    # K's band, negated
    K = system.frozen_laplacian(c)
    monkeypatch.setattr(system, "frozen_laplacian", lambda c: -K)
    apply = None
    with pytest.raises(FactorizationError):
        apply = system.laplace_preconditioner(c)
    assert apply is None


@pytest.mark.parametrize("case", [lbend_case, bat_folded_case])
def test_right_preconditioning_keeps_true_residual_test(case, rng):
    system, c = case(rng)
    state = NewtonState(system, system.project_d(c), c)
    rhs = schur_rhs(system, state)
    delta_c, gm = schur_solve(system, state, rhs, GMRES_TOL,
                              system.laplace_preconditioner(c))
    assert gm.converged
    true_res = rhs - schur_matvec(system, state, delta_c)
    assert np.linalg.norm(true_res) <= GMRES_TOL * np.linalg.norm(rhs)


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
    assert rep.converged and rep.newton_iterations == 10
    assert sum(rep.gmres_iterations) <= 40
    assert all(rep.gmres_converged)


def test_newton_holds_one_preconditioner_at_a_time(monkeypatch):
    # the last step's factor is freed before the next one is built, so a
    # solve never holds two bands at once
    system = geometry_system(build_quarter_annulus())
    build = system.laplace_preconditioner
    built, alive_at_build = [], []

    def tracked(c):
        alive_at_build.append(sum(ref() is not None for ref in built))
        precond = build(c)
        built.append(weakref.ref(precond))
        return precond

    monkeypatch.setattr(system, "laplace_preconditioner", tracked)
    c, rep = newton_solve(system, start(system), SolverConfig())
    assert rep.converged and len(built) == rep.newton_iterations == 3
    assert alive_at_build == [0, 0, 0]


def test_report_records_gmres_residuals_and_denominators(capsys):
    system = geometry_system(build_quarter_annulus())
    cfg = SolverConfig(verbose=True)
    c, rep = newton_solve(system, start(system), cfg)
    n = rep.newton_iterations
    # one GMRES solve per step, one denominator per iterate
    assert len(rep.gmres_residuals) == n
    assert len(rep.min_denominators) == len(rep.residual_norms) == n + 1
    # each GMRES solve meets its own step's forcing term
    assert len(rep.forcing_terms) == n
    assert all(0.0 <= r <= eta for r, eta in zip(rep.gmres_residuals,
                                                  rep.forcing_terms))
    assert all(m >= system.mu for m in rep.min_denominators)
    d = rep.to_dict()
    assert d["gmres_residuals"] == rep.gmres_residuals
    assert d["min_denominators"] == rep.min_denominators
    lines = [json.loads(ln) for ln in capsys.readouterr().err.splitlines()]
    assert [ln["gmres_residual"] for ln in lines] == rep.gmres_residuals
    assert [ln["min_denominator"] for ln in lines] == rep.min_denominators[:-1]


def test_report_times_each_phase(capsys):
    system = geometry_system(build_quarter_annulus())
    c, rep = newton_solve(system, start(system), SolverConfig(verbose=True))
    lines = [json.loads(ln) for ln in capsys.readouterr().err.splitlines()]
    assert len(lines) == rep.newton_iterations > 0
    phases = ("precond_s", "gmres_s", "line_search_s", "residual_s", "mass_solve_s")
    assert set(rep.timings) == set(phases)
    for phase in phases:
        assert all(ln[phase] >= 0.0 for ln in lines)
        assert rep.timings[phase] == pytest.approx(sum(ln[phase] for ln in lines))
        assert 0.0 <= rep.timings[phase] <= rep.wall_time
    # the residual runs in every matvec and probe, the mass solve in every
    # matvec: both are nonzero in a solve that takes a step
    assert rep.timings["residual_s"] > 0.0 and rep.timings["mass_solve_s"] > 0.0
    # timings stay out of the solution file, which is deterministic
    assert "timings" not in rep.to_dict()
    merged = SolverReport.merge([rep, rep])
    assert merged.timings == {p: 2 * rep.timings[p] for p in phases}

