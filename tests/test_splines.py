import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from eggmix.errors import DomainError, InputError
from eggmix.geometries import BUILDERS
from eggmix.io_cli import parse_geometry
from eggmix.mapping import SplineMap
from eggmix.splines import KNOT_TOL, KnotVector, TensorBasis, gauss_legendre, \
    uniform_knots

from oracles import knot_by_knot_refine, loop_collocation, naive_all_values

knot_vectors = st.builds(
    uniform_knots,
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=1, max_value=5))


@pytest.mark.parametrize("n", [1, 2, 4, 7])
def test_gauss_legendre_memoized_read_only(n):
    q, w = gauss_legendre(n)
    # one computation per order: later calls share the same arrays
    again = gauss_legendre(n)
    assert again[0] is q and again[1] is w
    assert not q.flags.writeable and not w.flags.writeable
    with pytest.raises(ValueError):
        q[0] = 0.5
    x, v = np.polynomial.legendre.leggauss(n)
    np.testing.assert_array_equal(q, 0.5 * (x + 1.0))
    np.testing.assert_array_equal(w, 0.5 * v)
    # exact for degree 2n - 1 on [0, 1]
    assert w @ q ** (2 * n - 1) == pytest.approx(1.0 / (2 * n), rel=1e-13)


def test_validation_rejects_bad_inputs():
    with pytest.raises(InputError):
        KnotVector(0, [0, 0, 1, 1])
    with pytest.raises(InputError):
        KnotVector(1, [0, 0, 0.6, 0.4, 1, 1])
    with pytest.raises(InputError):
        KnotVector(1, [0, 0.5, 1])          # not clamped
    with pytest.raises(InputError):
        KnotVector(2, [0, 0, 0, 0.5, 0.5, 0.5, 1, 1, 1])   # interior mult > p
    with pytest.raises(InputError):
        KnotVector(1, [0, 0, 2, 2])         # not normalized


def test_hat_function_midpoint():
    kv = KnotVector(1, [0, 0, 0.5, 1, 1])
    first, tab = kv.eval(0.25, 0)
    assert first == 0
    np.testing.assert_allclose(tab[0], [0.5, 0.5])


def test_eval_domain_and_order_errors():
    kv = uniform_knots(2, 2)
    with pytest.raises(DomainError):
        kv.eval(1.5)
    with pytest.raises(InputError):
        kv.eval(0.5, 3)


@settings(max_examples=40, deadline=None)
@given(knot_vectors, st.floats(min_value=0.0, max_value=1.0))
def test_partition_of_unity_and_derivative_sum(kv, x):
    _, tab = kv.eval(x, 1)
    assert abs(tab[0].sum() - 1.0) < 1e-12
    assert abs(tab[1].sum()) < 1e-10


def test_derivatives_match_naive_recursion():
    kv = uniform_knots(3, 4)
    for deriv in range(3):
        first, tab = kv.eval(0.3, deriv)
        ref = naive_all_values(kv, 0.3, deriv)
        dense = np.zeros(kv.dim)
        dense[first: first + 4] = tab[deriv]
        np.testing.assert_allclose(dense, ref, atol=1e-13)


def test_collocation_matches_pointwise_loop():
    rng = np.random.default_rng(7)
    for kv in (uniform_knots(1, 3), uniform_knots(2, 4),
               uniform_knots(3, 4, c0_breaks=(0.5,)),
               KnotVector(2, [0, 0, 0, 0.3, 0.3, 0.7, 1, 1, 1])):
        # every knot, both ends and random interior points
        pts = np.concatenate([kv.knots, [0.0, 1.0], rng.uniform(0, 1, 30)])
        for nderiv in (0, 1, 2):
            got = kv.collocation(pts, nderiv)
            ref = loop_collocation(kv, pts, nderiv)
            assert len(got) == nderiv + 1
            for k, (g, r) in enumerate(zip(got, ref)):
                assert g.shape == r.shape
                assert np.abs(g - r).max() <= 1e-14 * max(1.0, np.abs(r).max())
                # and against the plain recursion, which shares no code
                naive = np.array([naive_all_values(kv, x, k) for x in pts])
                assert np.abs(g - naive).max() <= 1e-11 * max(1.0, np.abs(naive).max())
    with pytest.raises(DomainError):
        uniform_knots(2, 2).collocation([0.5, 1.5])


@settings(max_examples=25, deadline=None)
@given(knot_vectors, st.floats(min_value=1e-3, max_value=1.0 - 1e-3))
def test_values_match_naive_recursion_randomized(kv, x):
    first, tab = kv.eval(x, 1)
    for k in range(2):
        ref = naive_all_values(kv, x, k)
        dense = np.zeros(kv.dim)
        dense[first: first + kv.degree + 1] = tab[k]
        np.testing.assert_allclose(dense, ref, atol=1e-11)


def test_derivatives_match_finite_differences():
    kv = uniform_knots(3, 4, c0_breaks=(0.5,))
    rng = np.random.default_rng(1)
    coeffs = rng.standard_normal(kv.dim)
    h = 1e-5
    for x in rng.uniform(0.05, 0.45, size=100):
        def val(t, deriv=0):
            first, tab = kv.eval(t, deriv)
            return coeffs[first: first + 4] @ tab[deriv]
        fd = (val(x + h) - val(x - h)) / (2 * h)
        assert abs(fd - val(x, 1)) < 1e-6 * max(1.0, abs(val(x, 1)))


def test_greville_examples():
    np.testing.assert_allclose(KnotVector(1, [0, 0, 0.5, 1, 1]).greville,
                               [0, 0.5, 1])
    np.testing.assert_allclose(KnotVector(2, [0, 0, 0, 1, 1, 1]).greville,
                               [0, 0.5, 1])
    kv = uniform_knots(3, 4)
    expect = [kv.knots[i + 1: i + 4].mean() for i in range(kv.dim)]
    np.testing.assert_allclose(kv.greville, expect)


def test_greville_sorted_in_unit_interval():
    kv = uniform_knots(3, 5, c0_breaks=(0.4,))
    g = kv.greville
    assert (np.diff(g) >= 0).all() and g[0] == 0.0 and g[-1] == 1.0
    assert len(g) == kv.dim


def test_h_refine_linear_case():
    kv = KnotVector(1, [0, 0, 1, 1])
    fine, P = kv.refine()
    np.testing.assert_allclose(fine.knots, [0, 0, 0.5, 1, 1])
    np.testing.assert_allclose(P.toarray(), [[1, 0], [0.5, 0.5], [0, 1]])


def test_h_refine_preserves_multiplicity_and_constants():
    kv = uniform_knots(3, 4, c0_breaks=(0.5,))
    fine, P = kv.refine()
    assert fine.degree == 3
    i = list(np.round(fine.breakpoints, 12)).index(0.5)
    assert fine.multiplicities[i] == 3
    assert fine.nelems == 2 * kv.nelems
    ones = np.ones(kv.dim)
    np.testing.assert_allclose(P @ ones, np.ones(fine.dim), atol=1e-14)


def assert_refine_matches_insertion(kv):
    fine, P = kv.refine()
    fine_ref, P_ref = knot_by_knot_refine(kv)
    assert np.array_equal(fine.knots, fine_ref.knots)
    assert P.shape == P_ref.shape
    assert np.abs(P.toarray() - P_ref.toarray()).max() <= 1e-14


@pytest.mark.parametrize("kv", [
    uniform_knots(1, 3), uniform_knots(2, 5), uniform_knots(3, 4, c0_breaks=(0.5,)),
    KnotVector(2, [0, 0, 0, 0.1, 0.45, 0.45, 0.7, 1, 1, 1]),
], ids=["p1", "p2", "p3-C0", "p2-nonuniform"])
def test_bisected_knots_equal_refined_knots(kv):
    # the auxiliary basis comes from the bisection alone and a
    # coarse-to-fine solve prolongs onto refine()'s knots: they must agree
    # bit for bit, with each other and with midpoints inserted one by one
    fine = kv.bisected()
    assert fine.degree == kv.degree
    assert fine.knots.tobytes() == kv.refine()[0].knots.tobytes()
    assert fine.knots.tobytes() == knot_by_knot_refine(kv)[0].knots.tobytes()
    tb = TensorBasis(kv, uniform_knots(2, 3)).bisected()
    ref = TensorBasis(kv, uniform_knots(2, 3)).refine()[0]
    for a, b in ((tb.kv_xi, ref.kv_xi), (tb.kv_eta, ref.kv_eta)):
        assert a.knots.tobytes() == b.knots.tobytes()


BUNDLED_KNOT_VECTORS = [
    pytest.param(kv, id=f"{name}-{i}")
    for name, build in sorted(BUILDERS.items())
    for i, kv in enumerate(kv for tb in parse_geometry(build()).topology.bases
                           for kv in (tb.kv_xi, tb.kv_eta))]


@pytest.mark.parametrize("kv", [
    uniform_knots(1, 1), uniform_knots(1, 6), uniform_knots(2, 3),
    uniform_knots(3, 7), uniform_knots(2, 4, c0_breaks=(0.5,)),
    uniform_knots(3, 4, c0_breaks=(0.25, 0.75)),
    uniform_knots(1, 4, c0_breaks=(0.5,)),
    KnotVector(2, [0, 0, 0, 0.3, 0.3, 0.7, 1, 1, 1]),
    KnotVector(3, [0, 0, 0, 0, 0.1, 0.1, 0.1, 0.2, 0.9, 1, 1, 1, 1]),
    KnotVector(3, [0, 0, 0, 0, 0.05, 0.6, 0.6, 1, 1, 1, 1]),
] + BUNDLED_KNOT_VECTORS)
def test_refine_matches_knot_by_knot_insertion(kv):
    assert_refine_matches_insertion(kv)


@settings(max_examples=40, deadline=None)
@given(knot_vectors)
def test_refine_matches_knot_by_knot_insertion_randomized(kv):
    assert_refine_matches_insertion(kv)


def test_knot_vector_hash_consistent_with_eq():
    a = KnotVector(2, [0, 0, 0, 0.3, 1, 1, 1])
    c = KnotVector(2, [0, 0, 0, 0.3 + 0.4 * KNOT_TOL, 1, 1, 1])
    assert a == c and a.knots.sum() != c.knots.sum()
    assert hash(a) == hash(c)
    assert len({a, c}) == 1
    assert len({a, KnotVector(2, [0, 0, 0, 0.4, 1, 1, 1])}) == 2


@settings(max_examples=25, deadline=None)
@given(knot_vectors, st.integers(0, 2 ** 31 - 1))
def test_prolongation_exactness(kv, seed):
    rng = np.random.default_rng(seed)
    coarse = rng.standard_normal(kv.dim)
    fine_kv, P = kv.refine()
    fine = P @ coarse
    for x in rng.uniform(0, 1, size=50):
        fc, tc = kv.eval(x)
        ff, tf = fine_kv.eval(x)
        vc = coarse[fc: fc + kv.degree + 1] @ tc[0]
        vf = fine[ff: ff + fine_kv.degree + 1] @ tf[0]
        assert abs(vc - vf) < 1e-12


def test_tensor_flat_index_bijection():
    tb = TensorBasis(uniform_knots(2, 3), uniform_knots(1, 4))
    seen = {tb.flat(i, j) for i in range(tb.n_xi) for j in range(tb.n_eta)}
    assert seen == set(range(tb.dim))


def basis_jets(tb, x, y, nderiv):
    """Jets of every basis function of ``tb`` at (x, y), in flat order: each
    function is the x-component of a map whose control net is one-hot."""
    jets = []
    for i in range(tb.dim):
        control = np.zeros((tb.dim, 2))
        control[i, 0] = 1.0
        jets.append(SplineMap(tb, control).eval_jet(x, y, nderiv))
    return {key: np.array([jet[key][0] for jet in jets]) for key in jets[0]}


def test_tensor_eval_bezier_corner():
    tb = TensorBasis(KnotVector(2, [0, 0, 0, 1, 1, 1]),
                     KnotVector(2, [0, 0, 0, 1, 1, 1]))
    values = basis_jets(tb, 0.0, 0.0, 0)["x"]
    corner = tb.flat(0, 0)
    assert abs(values[corner] - 1.0) < 1e-14
    assert all(abs(v) < 1e-14 for k, v in enumerate(values) if k != corner)


def test_tensor_partition_of_unity():
    tb = TensorBasis(uniform_knots(3, 3), uniform_knots(2, 4))
    m = SplineMap(tb, np.ones((tb.dim, 2)))
    rng = np.random.default_rng(2)
    for x, y in rng.uniform(0, 1, size=(20, 2)):
        assert abs(m.eval_jet(x, y, 0)["x"][0] - 1.0) < 1e-13


def test_tensor_mixed_derivative_fd_oracle():
    tb = TensorBasis(uniform_knots(3, 3), uniform_knots(3, 3))
    rng = np.random.default_rng(3)
    h = 1e-5
    for x, y in rng.uniform(0.1, 0.9, size=(10, 2)):
        te = basis_jets(tb, x, y, 2)
        up = basis_jets(tb, x, y + h, 1)
        dn = basis_jets(tb, x, y - h, 1)
        fd = (up["x_xi"] - dn["x_xi"]) / (2 * h)
        scale = max(1.0, np.abs(te["x_xieta"]).max())
        assert np.abs(fd - te["x_xieta"]).max() < 1e-6 * scale


def test_boundary_classification():
    tb = TensorBasis(uniform_knots(2, 3), uniform_knots(3, 2))
    rng = np.random.default_rng(4)
    t = rng.uniform(0, 1, size=25)
    pts = ([(v, 0.0) for v in t] + [(v, 1.0) for v in t]
           + [(0.0, v) for v in t] + [(1.0, v) for v in t])
    max_on_boundary = np.zeros(tb.dim)
    for x, y in pts:
        np.maximum(max_on_boundary, np.abs(basis_jets(tb, x, y, 0)["x"]),
                   out=max_on_boundary)
    inner = set(tb.inner_indices)
    for i in range(tb.dim):
        if i in inner:
            assert max_on_boundary[i] < 1e-13
    # every boundary function is nonzero somewhere on the boundary
    assert (max_on_boundary[tb.boundary_indices] > 1e-3).all()


def test_tensor_refine_prolongs_exactly():
    tb = TensorBasis(uniform_knots(2, 2), uniform_knots(3, 2))
    rng = np.random.default_rng(5)
    coarse = rng.standard_normal((tb.dim, 2))
    fine_tb, P = tb.refine()
    fine = P @ coarse
    mc = SplineMap(tb, coarse)
    mf = SplineMap(fine_tb, fine)
    for x, y in rng.uniform(0, 1, size=(20, 2)):
        np.testing.assert_allclose(mc.eval_jet(x, y, 0)["x"],
                                   mf.eval_jet(x, y, 0)["x"], atol=1e-12)
