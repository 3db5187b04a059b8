import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from eggmix.assembly import boundary_values_from_faces
from eggmix.errors import CornerMismatchError, InputError, NonbijectiveMapError
from eggmix.io_cli import parse_geometry
from eggmix.geometries import build_lbend, _lbend_inner, _lbend_outer
from eggmix.mapping import sampled_bijectivity, \
    transfinite_initial_guess, unit_square_map, winslow, winslow_gradient
from eggmix.multipatch import single_patch_topology
from eggmix.splines import TensorBasis, uniform_knots


def square_basis(p=2, ne=3):
    return TensorBasis(uniform_knots(p, ne), uniform_knots(p, ne))


def greville_curves(tb):
    """The four boundary curves of the identity map of ``tb``."""
    gx = tb.kv_xi.greville
    gy = tb.kv_eta.greville
    return {
        "south": np.column_stack([gx, np.zeros_like(gx)]),
        "north": np.column_stack([gx, np.ones_like(gx)]),
        "west": np.column_stack([np.zeros_like(gy), gy]),
        "east": np.column_stack([np.ones_like(gy), gy]),
    }


def contour_map(tb, curves):
    """The single-patch map of ``tb`` with the boundary ``curves``, checked
    and placed by boundary_values_from_faces, and zero inner points."""
    topo = single_patch_topology(tb)
    net = np.zeros((topo.n_sigma, 2))
    net[topo.boundary_indices] = boundary_values_from_faces(
        topo, {(0, face): curve for face, curve in curves.items()})
    return topo.patch_map(0, net)


def metric(m, x, y):
    """g11, g12, g22 and det J of the map ``m`` at (x, y), from its
    ``grid_jet`` on the 1 x 1 grid."""
    jet = m.grid_jet([x], [y], 1)
    a, b = jet["x_xi"][0, 0], jet["x_eta"][0, 0]
    return a @ a, a @ b, b @ b, a[0] * b[1] - a[1] * b[0]


def test_boundary_values_identity_boundary():
    tb = square_basis()
    m = contour_map(tb, greville_curves(tb))
    grid = tb.greville_grid()
    np.testing.assert_allclose(m.control[tb.boundary_indices],
                               grid[tb.boundary_indices], atol=1e-15)
    np.testing.assert_array_equal(unit_square_map(tb).control, grid)


def test_boundary_values_corner_mismatch_named():
    tb = square_basis()
    curves = greville_curves(tb)
    curves["east"][0] += 1e-3
    with pytest.raises(CornerMismatchError) as exc:
        contour_map(tb, curves)
    # the south-east corner, named by the two curve points that meet there
    assert exc.value.corner == f"patch 0.east[0] vs patch 0.south[{tb.n_xi - 1}]"
    assert abs(exc.value.gap - np.sqrt(2) * 1e-3) < 1e-6


def test_boundary_values_dimension_mismatch():
    tb = square_basis()
    gx = tb.kv_xi.greville
    curves = {f: np.column_stack([gx, np.zeros_like(gx)])
              for f in ("south", "north", "west", "east")}
    curves["west"] = curves["west"][:-1]
    with pytest.raises(InputError, match="west"):
        contour_map(tb, curves)


def test_lbend_boundary_reproduces_contours():
    geo = parse_geometry(build_lbend())
    m = geo.topology.patch_map(0, np.zeros((geo.topology.n_sigma, 2)))
    m.control[geo.topology.boundary_indices] = 0.0
    # rebuild directly from the contours on the single-patch topology
    doc = build_lbend()
    tb = geo.topology.bases[0]
    curves = {f: np.asarray(doc["patches"][0]["boundary"][f])
              for f in ("south", "north", "west", "east")}
    m = contour_map(tb, curves)
    ts = np.linspace(0.0, 1.0, 100)
    south = m.grid_jet(ts, [0.0], 0)["x"][:, 0]
    north = m.grid_jet(ts, [1.0], 0)["x"][:, 0]
    for t, s_val, n_val in zip(ts, south, north):
        np.testing.assert_allclose(s_val, _lbend_inner(t), atol=1e-10)
        np.testing.assert_allclose(n_val, _lbend_outer(t), atol=1e-10)


def test_transfinite_square_gives_greville_grid():
    tb = square_basis(3, 4)
    m = unit_square_map(tb)
    m.control[tb.inner_indices] = 0.0
    tfi = transfinite_initial_guess(m)
    np.testing.assert_allclose(tfi, tb.greville_grid()[tb.inner_indices],
                               atol=1e-14)


@settings(max_examples=25, deadline=None)
@given(st.floats(-2, 2), st.floats(-2, 2), st.floats(-2, 2), st.floats(-2, 2),
       st.floats(-1, 1), st.floats(-1, 1))
def test_transfinite_affine_reproduction(a, b, c, d, tx, ty):
    A = np.array([[a, b], [c, d]])
    tb = square_basis(2, 3)
    grid = tb.greville_grid()
    affine = grid @ A.T + np.array([tx, ty])
    m = unit_square_map(tb)
    m.control[:] = affine
    m.control[tb.inner_indices] = 0.0
    tfi = transfinite_initial_guess(m)
    np.testing.assert_allclose(tfi, affine[tb.inner_indices], atol=1e-12)


def test_transfinite_lbend_fold_count_recorded():
    geo = parse_geometry(build_lbend())
    tb = geo.topology.bases[0]
    doc = build_lbend()
    curves = {f: np.asarray(doc["patches"][0]["boundary"][f])
              for f in ("south", "north", "west", "east")}
    m = contour_map(tb, curves)
    m.control[tb.inner_indices] = transfinite_initial_guess(m)
    rep = sampled_bijectivity(m)
    assert rep.fold_count >= 0 and rep.n_samples > 0


def test_metric_identity_and_scaling():
    tb = square_basis()
    m = unit_square_map(tb)
    assert np.allclose(metric(m, 0.3, 0.7), [1, 0, 1, 1], atol=1e-13)
    m2 = m.copy()
    m2.control[:, 0] *= 2.0
    m2.control[:, 1] *= 3.0
    assert np.allclose(metric(m2, 0.3, 0.7), [4, 0, 9, 6], atol=1e-12)


def test_metric_algebraic_identity_random_net(rng):
    tb = square_basis(3, 3)
    m = unit_square_map(tb)
    m.control += 0.15 * rng.standard_normal(m.control.shape)
    for x, y in rng.uniform(0, 1, size=(50, 2)):
        g11, g12, g22, detj = metric(m, x, y)
        lhs = g11 * g22 - g12 ** 2
        assert abs(lhs - detj ** 2) < 1e-11 * max(1.0, abs(lhs))


def test_winslow_values():
    tb = square_basis()
    m = unit_square_map(tb)
    assert abs(winslow(m) - 2.0) < 1e-12
    m2 = m.copy()
    m2.control[:, 0] *= 2.0
    assert abs(winslow(m2) - 2.5) < 1e-12


def test_winslow_rotation_invariance(rng):
    tb = square_basis(2, 4)
    m = unit_square_map(tb)
    m.control[tb.inner_indices] += 0.08 * rng.standard_normal(
        (len(tb.inner_indices), 2))
    w0 = winslow(m)
    th = 0.83
    R = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
    mr = m.copy()
    mr.control[:] = m.control @ R.T
    assert abs(winslow(mr) - w0) < 1e-10 * abs(w0)


def test_winslow_raises_on_fold():
    tb = square_basis(2, 3)
    m = unit_square_map(tb)
    inner = tb.inner_indices
    m.control[[inner[0], inner[-1]]] = m.control[[inner[-1], inner[0]]]
    with pytest.raises(NonbijectiveMapError):
        winslow(m)


def test_winslow_gradient_matches_fd(rng):
    tb = square_basis(2, 2)
    m = unit_square_map(tb)
    m.control[tb.inner_indices] += 0.1 * rng.standard_normal(
        (len(tb.inner_indices), 2))
    w, g = winslow_gradient(m)
    h = 1e-6
    for k in range(len(tb.inner_indices)):
        for comp in range(2):
            mp = m.copy()
            mp.control[tb.inner_indices[k], comp] += h
            mm = m.copy()
            mm.control[tb.inner_indices[k], comp] -= h
            fd = (winslow(mp) - winslow(mm)) / (2 * h)
            assert abs(fd - g[k, comp]) < 1e-5 * max(1.0, abs(fd))


def test_sampled_bijectivity_identity():
    m = unit_square_map(square_basis())
    rep = sampled_bijectivity(m)
    assert rep.fold_count == 0
    assert abs(rep.min_detj - 1.0) < 1e-12
    assert rep.bijective


def test_sampled_bijectivity_detects_constructed_fold():
    tb = square_basis(2, 4)
    m = unit_square_map(tb)
    inner = tb.inner_indices
    m.control[[inner[0], inner[-1]]] = m.control[[inner[-1], inner[0]]]
    rep = sampled_bijectivity(m, 5)
    assert rep.fold_count > 0
    rep10 = sampled_bijectivity(m, 50)
    assert rep10.fold_count > 0 and rep10.min_detj <= rep.min_detj


def test_fold_locations_deterministic_order():
    tb = square_basis(2, 4)
    m = unit_square_map(tb)
    inner = tb.inner_indices
    m.control[[inner[0], inner[-1]]] = m.control[[inner[-1], inner[0]]]
    a = sampled_bijectivity(m, 5).fold_locations
    b = sampled_bijectivity(m, 5).fold_locations
    assert a == b
    keys = [(x, y) for x, y, _ in a]
    assert keys == sorted(keys)
