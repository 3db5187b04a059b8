"""Planar spline maps: boundary-contour ingestion, transfinite (Coons) initial
guesses, the metric tensor, the Winslow energy with a projected gradient
descent, and sampled bijectivity diagnostics.

Boundary contours arrive as spline coefficient sequences for the four faces
of the unit square; fitting of point data is out of scope.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CornerMismatchError, InputError, NonbijectiveMapError
from .splines import TensorBasis

CORNER_TOL = 1e-12

FACES = ("south", "north", "west", "east")


@dataclass
class MetricSample:
    g11: float
    g12: float
    g22: float
    detj: float
    x_xi: np.ndarray
    x_eta: np.ndarray


@dataclass
class BijectivityReport:
    min_detj: float
    fold_count: int
    fold_locations: list
    n_samples: int

    @property
    def bijective(self):
        return self.fold_count == 0 and self.min_detj > 0.0


def _tensor_apply(Ax, Ay, C):
    """out[x, y, c] = sum_ij Ax[x, i] Ay[y, j] C[i, j, c], one direction at
    a time (sum factorisation over the tensor grid)."""
    return np.tensordot(Ax, np.tensordot(Ay, C, axes=(1, 1)), axes=(1, 1))


class SplineMap:
    """A planar map from the unit square spanned by a tensor B-spline basis.

    ``control`` has one 2D point per basis function in flat (xi-major)
    ordering. Boundary rows are fixed data; inner rows are solver unknowns.
    """

    def __init__(self, basis: TensorBasis, control):
        control = np.asarray(control, dtype=float)
        if control.shape != (basis.dim, 2):
            raise InputError(
                f"control net shape {control.shape} != ({basis.dim}, 2)")
        self.basis = basis
        self.control = control

    @property
    def boundary_indices(self):
        return self.basis.boundary_indices

    @property
    def inner_indices(self):
        return self.basis.inner_indices

    def net(self):
        """Control net viewed as an (n_xi, n_eta, 2) array (shares memory)."""
        return self.control.reshape(self.basis.n_xi, self.basis.n_eta, 2)

    def eval_jet(self, xi: float, eta: float, max_deriv: int = 1):
        """Map value and parametric derivatives at one point, as a dict:
        :meth:`grid_jet` on the 1 x 1 grid (xi, eta)."""
        return {k: v[0, 0] for k, v in self.grid_jet([xi], [eta], max_deriv).items()}

    def grid_jet(self, xs, ys, nderiv: int = 1):
        """Batched evaluation on a tensor grid; returns dense (nx, ny, 2)
        arrays keyed like :meth:`eval_jet`."""
        Bx = self.basis.kv_xi.collocation(xs, nderiv)
        By = self.basis.kv_eta.collocation(ys, nderiv)
        C = self.net()
        out = {"x": _tensor_apply(Bx[0], By[0], C)}
        if nderiv >= 1:
            out["x_xi"] = _tensor_apply(Bx[1], By[0], C)
            out["x_eta"] = _tensor_apply(Bx[0], By[1], C)
        if nderiv >= 2:
            out["x_xixi"] = _tensor_apply(Bx[2], By[0], C)
            out["x_xieta"] = _tensor_apply(Bx[1], By[1], C)
            out["x_etaeta"] = _tensor_apply(Bx[0], By[2], C)
        return out

    def copy(self):
        return SplineMap(self.basis, self.control.copy())


def make_map(basis: TensorBasis, boundary_curves) -> SplineMap:
    """Populate the boundary rows of a control net from four contour curves.

    ``boundary_curves`` maps face names to coefficient arrays: south/north of
    length n_xi, west/east of length n_eta. Corner coefficients of adjacent
    curves must agree to 1e-12. Inner rows start at zero.
    """
    curves = {}
    for face in FACES:
        if face not in boundary_curves:
            raise InputError(f"missing boundary curve for face {face!r}")
        arr = np.asarray(boundary_curves[face], dtype=float)
        want = basis.n_xi if face in ("south", "north") else basis.n_eta
        if arr.shape != (want, 2):
            raise InputError(
                f"{face} curve has shape {arr.shape}, expected ({want}, 2)")
        curves[face] = arr
    corners = [
        ("south-west", curves["south"][0], curves["west"][0]),
        ("south-east", curves["south"][-1], curves["east"][0]),
        ("north-west", curves["north"][0], curves["west"][-1]),
        ("north-east", curves["north"][-1], curves["east"][-1]),
    ]
    for name, a, b in corners:
        gap = float(np.linalg.norm(a - b))
        if gap > CORNER_TOL:
            raise CornerMismatchError(name, gap)
    control = np.zeros((basis.dim, 2))
    C = control.reshape(basis.n_xi, basis.n_eta, 2)
    C[:, 0] = curves["south"]
    C[:, -1] = curves["north"]
    C[0, :] = curves["west"]
    C[-1, :] = curves["east"]
    return SplineMap(basis, control)


def unit_square_map(basis: TensorBasis) -> SplineMap:
    """Identity map of the unit square: the control net is the Greville grid."""
    gx = basis.kv_xi.greville
    gy = basis.kv_eta.greville
    curves = {
        "south": np.column_stack([gx, np.zeros_like(gx)]),
        "north": np.column_stack([gx, np.ones_like(gx)]),
        "west": np.column_stack([np.zeros_like(gy), gy]),
        "east": np.column_stack([np.ones_like(gy), gy]),
    }
    m = make_map(basis, curves)
    m.control[m.inner_indices] = basis.greville_grid()[m.inner_indices]
    return m


def transfinite_initial_guess(m: SplineMap):
    """Bilinearly blended Coons interior applied at control-net level.

    Blending weights are the normalized Greville abscissae; returns the
    (n_inner, 2) values for the inner control points. Folded results are
    permitted; the solver does not require a bijective start.
    """
    C = m.net()
    s = m.basis.kv_xi.greville
    t = m.basis.kv_eta.greville
    S = s[:, None, None]
    T = t[None, :, None]
    F = ((1 - S) * C[0, :][None, :, :] + S * C[-1, :][None, :, :]
         + (1 - T) * C[:, 0][:, None, :] + T * C[:, -1][:, None, :]
         - ((1 - S) * (1 - T) * C[0, 0] + S * (1 - T) * C[-1, 0]
            + (1 - S) * T * C[0, -1] + S * T * C[-1, -1]))
    return F.reshape(m.basis.dim, 2)[m.inner_indices]


def metric_at(m: SplineMap, xi: float, eta: float) -> MetricSample:
    """Metric tensor entries and Jacobian determinant at one point."""
    jet = m.eval_jet(xi, eta, 1)
    a, b = jet["x_xi"], jet["x_eta"]
    return MetricSample(
        g11=float(a @ a), g12=float(a @ b), g22=float(b @ b),
        detj=float(a[0] * b[1] - a[1] * b[0]),
        x_xi=a, x_eta=b)


def _winslow_fields(m: SplineMap, quad_order: int):
    px, wx = m.basis.kv_xi.gauss_grid(quad_order)
    py, wy = m.basis.kv_eta.gauss_grid(quad_order)
    jets = m.grid_jet(px, py, 1)
    a = jets["x_xi"]
    b = jets["x_eta"]
    g11 = np.einsum("xyc,xyc->xy", a, a)
    g22 = np.einsum("xyc,xyc->xy", b, b)
    detj = a[..., 0] * b[..., 1] - a[..., 1] * b[..., 0]
    W2 = wx[:, None] * wy[None, :]
    return px, py, W2, a, b, g11, g22, detj


def winslow(m: SplineMap, quad_order: int = None) -> float:
    """Quadrature value of the Winslow energy (g11 + g22) / det J.

    Raises :class:`NonbijectiveMapError` when det J <= 0 at any quadrature
    point; the energy is only defined on folding-free maps.
    """
    if quad_order is None:
        quad_order = max(m.basis.kv_xi.degree, m.basis.kv_eta.degree) + 2
    _, _, W2, _, _, g11, g22, detj = _winslow_fields(m, quad_order)
    if detj.min() <= 0.0:
        raise NonbijectiveMapError(
            f"det J <= 0 at a quadrature point (min {detj.min():.3e})")
    return float(np.sum(W2 * (g11 + g22) / detj))


def winslow_gradient(m: SplineMap, quad_order: int = None):
    """Winslow energy and its gradient with respect to the inner control
    points; the same quadrature as :func:`winslow`."""
    if quad_order is None:
        quad_order = max(m.basis.kv_xi.degree, m.basis.kv_eta.degree) + 2
    px, py, W2, a, b, g11, g22, detj = _winslow_fields(m, quad_order)
    if detj.min() <= 0.0:
        raise NonbijectiveMapError("det J <= 0 at a quadrature point")
    F = (g11 + g22) / detj
    W = float(np.sum(W2 * F))
    # dF/dx_xi = 2 x_xi / detj - F/detj * rot(x_eta); likewise for x_eta
    Fa = 2.0 * a / detj[..., None]
    Fa[..., 0] -= F / detj * b[..., 1]
    Fa[..., 1] += F / detj * b[..., 0]
    Fb = 2.0 * b / detj[..., None]
    Fb[..., 0] += F / detj * a[..., 1]
    Fb[..., 1] -= F / detj * a[..., 0]
    Bx = m.basis.kv_xi.collocation(px, 1)
    By = m.basis.kv_eta.collocation(py, 1)
    W2e = W2[..., None]
    grad = (_tensor_apply(Bx[1].T, By[0].T, W2e * Fa)
            + _tensor_apply(Bx[0].T, By[1].T, W2e * Fb))
    return W, grad.reshape(m.basis.dim, 2)[m.inner_indices]


def winslow_descent(m: SplineMap, quad_order: int = None, max_iter: int = 400,
                    gtol: float = 1e-8):
    """Projected gradient descent on the Winslow energy over the inner
    control points, starting from (and never touching the boundary of) the
    given map. Backtracking rejects steps that fold the map.

    Returns ``(c_inner, info)`` with the optimized inner net and iteration
    telemetry.
    """
    work = m.copy()
    inner = work.inner_indices
    W, g = winslow_gradient(work, quad_order)
    step = 0.1 / max(float(np.linalg.norm(g)), 1e-30)
    history = [W]
    it = 0
    for it in range(1, max_iter + 1):
        gnorm2 = float(np.sum(g * g))
        if np.sqrt(gnorm2) <= gtol * (1.0 + abs(W)):
            break
        accepted = False
        t = step
        for _ in range(40):
            trial = work.copy()
            trial.control[inner] -= t * g
            try:
                Wt, gt = winslow_gradient(trial, quad_order)
            except NonbijectiveMapError:
                t *= 0.5
                continue
            if Wt <= W - 1e-4 * t * gnorm2:
                work, W, g = trial, Wt, gt
                step = 2.0 * t
                accepted = True
                break
            t *= 0.5
        if not accepted:
            break
        history.append(W)
    return work.control[inner].copy(), {
        "iterations": it, "energy": W, "history": history}


def sampled_bijectivity(m: SplineMap, samples_per_element: int = 5) -> BijectivityReport:
    """det J sampled on a tensor grid of element-interior points.

    Fold locations are reported in lexicographic element order (then point
    order) for reproducibility.
    """
    k = np.arange(1, samples_per_element + 1) / (samples_per_element + 1.0)

    def interior_points(kv):
        a = kv.breakpoints[:-1]
        h = np.diff(kv.breakpoints)
        return (a[:, None] + h[:, None] * k[None, :]).ravel()

    xs = interior_points(m.basis.kv_xi)
    ys = interior_points(m.basis.kv_eta)
    jets = m.grid_jet(xs, ys, 1)
    a, b = jets["x_xi"], jets["x_eta"]
    detj = a[..., 0] * b[..., 1] - a[..., 1] * b[..., 0]
    folds = []
    bad = np.argwhere(detj <= 0.0)
    for i, j in bad:
        folds.append((float(xs[i]), float(ys[j]), float(detj[i, j])))
    return BijectivityReport(
        min_detj=float(detj.min()),
        fold_count=len(folds),
        fold_locations=folds,
        n_samples=detj.size)
