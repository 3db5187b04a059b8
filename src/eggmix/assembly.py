"""Galerkin assembly of the mixed first-order system, by sum factorisation:
each patch's Gauss points form a tensor grid, so every block is applied
patch by patch as products of univariate factors, and no global operator is
assembled. Fields and derivatives of the nonlinear residual are ``Bx @ C @
By.T`` with univariate collocation factors, and its moments against the test
functions ``Bx.T @ (w U) @ By``. The constant blocks are separable: a patch's
auxiliary mass moments are ``vol Mxi D Meta.T``, its derivative moments
``vol (ia[0, d] Kxi C Oeta.T + ia[1, d] Oxi C Keta.T)``, with dense
univariate integral factors. The coupled auxiliary mass is solved exactly by
static condensation onto the auxiliary DOFs that patches share (banded
Kronecker solves on each patch's remaining tensor range, one dense Cholesky
factor on the shared DOFs), and the frozen-metric Laplacian that
preconditions the Schur GMRES is summed from univariate pair factors. A
single patch is a 1-patch topology on the same code path.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
from scipy import sparse
from scipy.sparse.linalg import splu

from .errors import CornerMismatchError, InputError, ModeError
from .linalg import KronSolver
from .multipatch import PatchTopology, single_patch_topology
from .splines import KnotVector, TensorBasis, gauss_legendre

MODES = ("full", "xi", "eta")


@dataclass
class DirectionFactors:
    """Univariate quadrature and collocation data of one parametric direction
    of a patch, on the Gauss points of every span of the fine (auxiliary)
    knot vector, span-major: point ``k`` lies in span ``k // nq``.

    ``first_*``/``tab_*`` are the padded tables of :meth:`KnotVector.eval_many`
    per span (``tab[e, q, k, j]`` is the k-th derivative of function
    ``first[e] + j`` at point q of span e, zero above the degree); ``sig``
    and ``bar`` are the same values as dense collocation factors,
    ``sig[k, i, a]`` the k-th derivative of primal function a at point i.
    """
    nq: int
    points: np.ndarray      # (n_spans * nq,), strictly span-interior
    weights: np.ndarray     # (n_spans * nq,), sums to each span's length
    first_sig: np.ndarray   # (n_spans,)
    tab_sig: np.ndarray     # (n_spans, nq, nderiv + 1, p + 1)
    first_bar: np.ndarray   # (n_spans,)
    tab_bar: np.ndarray     # (n_spans, nq, 2, p_bar + 1)
    sig: np.ndarray         # (nderiv + 1, n_spans * nq, n_sig)
    bar: np.ndarray         # (2, n_spans * nq, n_bar)

    @property
    def n_spans(self) -> int:
        return len(self.first_sig)


@dataclass
class QuadratureCache:
    """Tensor Gauss grid of one patch on the finest knot grid: the univariate
    factors of both directions.

    Every field and derivative on the grid is a product
    ``xi.sig[k] @ C @ eta.sig[l].T`` of univariate factors. Element index is
    lexicographic (xi-span major).
    """
    xi: DirectionFactors
    eta: DirectionFactors

    @property
    def n_el(self) -> int:
        return self.xi.n_spans * self.eta.n_spans


def _dense_factor(first, tab, dim):
    """(nderiv + 1, n_points, dim) collocation factors from padded per-span
    tables."""
    n_spans, nq, nd1, width = tab.shape
    out = np.zeros((nd1, n_spans * nq, dim))
    rows = np.arange(n_spans * nq)[:, None]
    cols = np.repeat(first, nq)[:, None] + np.arange(width)
    out[:, rows, cols] = np.moveaxis(tab.reshape(n_spans * nq, nd1, width), 1, 0)
    return out


def _direction_tables(kv_sig: KnotVector, kv_bar: KnotVector, nderiv_sig: int):
    """Univariate tables on every nonempty span of the fine knot vector.

    Gauss order is degree+1 per span, which integrates the auxiliary mass
    exactly."""
    p = kv_sig.degree
    nq = p + 1
    q, wq = gauss_legendre(nq)
    a = kv_bar.breakpoints[:-1]
    h = np.diff(kv_bar.breakpoints)
    n_es = len(h)
    pts = (a[:, None] + h[:, None] * q[None, :]).ravel()
    wts = (h[:, None] * wq[None, :]).ravel()
    first_s, tab_s = kv_sig.eval_many(pts, nderiv_sig)
    first_b, tab_b = kv_bar.eval_many(pts, 1)
    # all Gauss points of a span share its active functions
    first_s = first_s.reshape(n_es, nq)[:, 0]
    first_b = first_b.reshape(n_es, nq)[:, 0]
    tab_s = tab_s.reshape(n_es, nq, nderiv_sig + 1, p + 1)
    tab_b = tab_b.reshape(n_es, nq, 2, kv_bar.degree + 1)
    return DirectionFactors(
        nq=nq, points=pts, weights=wts,
        first_sig=first_s, tab_sig=tab_s, first_bar=first_b, tab_bar=tab_b,
        sig=_dense_factor(first_s, tab_s, kv_sig.dim),
        bar=_dense_factor(first_b, tab_b, kv_bar.dim))


def build_quadrature(sigma: TensorBasis, sigma_bar: TensorBasis,
                     need_second: bool = False) -> QuadratureCache:
    """Quadrature cache on the union grid of primal and auxiliary knot lines
    (the auxiliary grid, since it refines the primal one)."""
    for kc, kf in ((sigma.kv_xi, sigma_bar.kv_xi), (sigma.kv_eta, sigma_bar.kv_eta)):
        if not set(np.round(kc.breakpoints, 12)) <= set(np.round(kf.breakpoints, 12)):
            raise InputError("auxiliary knot lines must contain the primal ones")
    nds = 2 if need_second else 1
    fx = _direction_tables(sigma.kv_xi, sigma_bar.kv_xi, nds)
    fy = _direction_tables(sigma.kv_eta, sigma_bar.kv_eta, nds)
    return QuadratureCache(xi=fx, eta=fy)


def _univariate_matrices(kv_bar: KnotVector, kv_sig: KnotVector):
    """Dense univariate integral factors over the fine span grid:
    mbar[i,j] = int wbar_i wbar_j, obar[i,j] = int wbar_i w_j,
    kbar[i,j] = int wbar_i w_j'. Span integrals are batched products of the
    padded tables, scattered with one ``bincount`` per factor."""
    p = max(kv_bar.degree, kv_sig.degree)
    q, wq = gauss_legendre(p + 1)
    a = kv_bar.breakpoints[:-1]
    h = np.diff(kv_bar.breakpoints)
    pts = a[:, None] + h[:, None] * q[None, :]
    wts = h[:, None] * wq[None, :]
    n_e, nq = pts.shape
    first_b, tab_b = kv_bar.eval_many(pts.ravel(), 0)
    first_s, tab_s = kv_sig.eval_many(pts.ravel(), 1)
    tab_b = tab_b.reshape(n_e, nq, kv_bar.degree + 1)
    tab_s = tab_s.reshape(n_e, nq, 2, kv_sig.degree + 1)
    rows = first_b[::nq, None] + np.arange(kv_bar.degree + 1)
    # (n_e, p_bar + 1, nq) weighted test functions of every span
    w_tb = np.swapaxes(wts[:, :, None] * tab_b, 1, 2)

    def scatter(local, first, dim):
        cols = first[::nq, None] + np.arange(local.shape[-1])
        flat = rows[:, :, None] * dim + cols[:, None, :]
        return np.bincount(flat.ravel(), weights=local.ravel(),
                           minlength=kv_bar.dim * dim).reshape(kv_bar.dim, dim)

    return (scatter(w_tb @ tab_b, first_b, kv_bar.dim),
            scatter(w_tb @ tab_s[:, :, 0], first_s, kv_sig.dim),
            scatter(w_tb @ tab_s[:, :, 1], first_s, kv_sig.dim))


# Primal jet rows of the residual kernel, grouped by eta-derivative order:
# (l, k0, k1) stands for the rows (k0, l), ..., (k1 - 1, l), where row (k, l)
# holds the derivative d^k/ds^k d^l/dt^l of x on the Gauss grid.
FIRST_JET = ((0, 1, 2), (1, 0, 1))                 # x_s, x_t
SECOND_JET = ((0, 1, 3), (1, 0, 2), (2, 0, 1))     # x_s, x_ss, x_t, x_st, x_tt


def _residual_combination(mode, chi, ia, n_aux):
    """(5, n_rows) matrix taking the raw grid rows of :meth:`MixedSystem.eval_RN`
    to (x_xi, x_eta, Y11, Y22, Y12), where the numerator of the residual is
    g11 Y11 + g22 Y22 + g12 Y12.

    The raw rows are the primal jet in the patch coordinates (s, t)
    (``FIRST_JET`` or ``SECOND_JET``), then the s-derivatives and the
    t-derivatives of the ``n_aux`` auxiliary vector fields; ``ia`` is the
    inverse Jacobian of the affine patch map, d/dxi = ia[0, 0] d/ds +
    ia[1, 0] d/dt and d/deta = ia[0, 1] d/ds + ia[1, 1] d/dt."""
    groups = FIRST_JET if mode == "full" else SECOND_JET
    labels = [("x", k, l) for l, k0, k1 in groups for k in range(k0, k1)]
    labels += [("a", f, 1, 0) for f in range(n_aux)]
    labels += [("a", f, 0, 1) for f in range(n_aux)]
    col = {label: j for j, label in enumerate(labels)}
    d_xi = {(1, 0): ia[0, 0], (0, 1): ia[1, 0]}
    d_eta = {(1, 0): ia[0, 1], (0, 1): ia[1, 1]}

    def prod(p, q):
        out = {}
        for (k1, l1), a in p.items():
            for (k2, l2), b in q.items():
                out[k1 + k2, l1 + l2] = out.get((k1 + k2, l1 + l2), 0.0) + a * b
        return out

    def row(*terms):
        """Sum of scale * op(field) over (scale, field, op) terms."""
        r = np.zeros(len(labels))
        for scale, field, op in terms:
            for kl, coef in op.items():
                r[col[field + kl]] += scale * coef
        return r

    x, u, v = ("x",), ("a", 0), ("a", n_aux - 1)
    mix = -2.0 * chi, -2.0 * (1.0 - chi)
    if mode == "full":
        y11 = row((1.0, v, d_eta))
        y22 = row((1.0, u, d_xi))
        y12 = row((mix[0], u, d_eta), (mix[1], v, d_xi))
    elif mode == "xi":
        y11 = row((1.0, x, prod(d_eta, d_eta)))
        y22 = row((1.0, u, d_xi))
        y12 = row((mix[0], u, d_eta), (mix[1], x, prod(d_xi, d_eta)))
    else:
        y11 = row((1.0, v, d_eta))
        y22 = row((1.0, x, prod(d_xi, d_xi)))
        y12 = row((mix[0], x, prod(d_xi, d_eta)), (mix[1], v, d_xi))
    return np.array([row((1.0, x, d_xi)), row((1.0, x, d_eta)), y11, y22, y12])


# Derivative pairings (a, b) of the frozen Laplacian on a patch: the term
# M_ab d_a w_I d_b w_J, with 0 = s and 1 = t. The xi-direction factor of the
# pairing carries the derivative orders (1 - a, 1 - b), the eta factor (a, b).
PAIRINGS = ((0, 0), (0, 1), (1, 0), (1, 1))


def _pair_factors(f: DirectionFactors, orders, diagonal: bool):
    """Univariate pair factors of one direction of a patch for the frozen
    Laplacian, on its coupled pairs S = {(i, j): some span carries both
    primal functions i and j}.

    Returns ``(pairs, F)``: ``pairs`` is the (|S|, 2) array of (i, j), sorted
    by i * n + j, and ``F`` a CSR matrix with one block per entry
    (k, l) of ``orders``, block b holding at row r and Gauss point m the
    product d^k w_i(x_m) d^l w_j(x_m) of pair r = (i, j). Blocks are stacked
    along the diagonal (``diagonal``, shape (n_blocks |S|, n_blocks n_points))
    or side by side (shape (|S|, n_blocks n_points)). Each Gauss point only
    meets the (p + 1)^2 pairs of its span, so F has n_points (p + 1)^2
    entries per block."""
    n_spans, nq, _, width = f.tab_sig.shape
    dim = f.sig.shape[-1]
    loc = np.arange(width)
    keys = ((f.first_sig[:, None, None] + loc[:, None]) * dim
            + f.first_sig[:, None, None] + loc).reshape(n_spans, -1)
    uniq, pair = np.unique(keys, return_inverse=True)
    n_pairs, n_points = len(uniq), n_spans * nq
    shape = (n_spans, nq, width * width)
    rows = np.broadcast_to(pair.reshape(n_spans, 1, -1), shape)
    cols = np.broadcast_to(np.arange(n_points).reshape(n_spans, nq, 1), shape)
    blocks = range(len(orders))
    vals = [f.tab_sig[:, :, k, :, None] * f.tab_sig[:, :, l, None, :]
            for k, l in orders]
    F = sparse.csr_matrix(
        (np.concatenate([v.ravel() for v in vals]),
         (np.concatenate([(b * n_pairs if diagonal else 0) + rows.ravel()
                          for b in blocks]),
          np.concatenate([b * n_points + cols.ravel() for b in blocks]))),
        shape=((len(orders) if diagonal else 1) * n_pairs, len(orders) * n_points))
    return np.stack([uniq // dim, uniq % dim], axis=1), F


def _patch_metric_map(ia):
    """(4, 3) matrix taking the scaled (Q11, Q12, Q22) in (xi, eta) to the
    entries (M_ss, M_st, M_ts, M_tt) of M = ia Q ia^T in the patch
    coordinates, ``ia`` the inverse Jacobian of the affine patch map
    (grad_(xi, eta) = ia^T grad_(s, t))."""
    return np.array([[ia[a, 0] * ia[b, 0], ia[a, 0] * ia[b, 1] + ia[a, 1] * ia[b, 0],
                      ia[a, 1] * ia[b, 1]] for a, b in PAIRINGS])


@dataclass
class _LaplacianFactors:
    """Fixed CSR pattern of the frozen Laplacian and the pair factors of
    every patch, see :meth:`MixedSystem._laplacian_factors`."""
    indices: np.ndarray     # (nnz,) int32 CSR column indices
    indptr: np.ndarray      # (n_inner + 1,) int32 CSR row pointers
    positions: np.ndarray   # CSR data position of every patch entry, nnz if dropped
    x: list                 # per patch, block-diagonal xi factors (4 |S_xi|, 4 n_xi)
    y: list                 # per patch, side-by-side eta factors (|S_eta|, 4 n_eta)


@dataclass
class _PatchContext:
    """Per-patch data of the kernels. Grid arrays are indexed (xi Gauss
    point, component, eta Gauss point).

    The condensation fields are set by :meth:`MixedSystem._build_mass`. The
    auxiliary DOFs of the patch's glued faces lie on the lines ``rows`` (xi
    index) and ``cols`` (eta index); the others form the tensor range
    ``inner`` = (sx, sy), whose mass vol Mxi[sx, sx] (x) Meta[sy, sy] ``kron``
    solves. ``gx`` holds the columns ``rows`` of Gxi = Mxi[sx, sx]^-1
    Mxi[sx, :], the identity on every other column, and ``gy`` those of
    Geta."""
    cache: QuadratureCache
    inv_a: np.ndarray
    vol: float
    wgrid: np.ndarray          # (n_xi points, n_eta points) vol * w_xi (x) w_eta
    sig_idx: np.ndarray        # (n_xi, 2, n_eta) positions in the flat control net
    bar_idx: np.ndarray        # (n_aux, nbar_xi, 2, nbar_eta) positions in flat d
    out_idx: np.ndarray        # (n_xi, 2, n_eta) positions in R_N, 2 n_inner if fixed
    combo: np.ndarray          # _residual_combination of the patch
    left: np.ndarray           # (n_dir, nbar_xi, 2 n_xi), see _derivative_moments
    right: np.ndarray          # (n_eta, 2 nbar_eta) [Oeta^T | Keta^T]
    mass: tuple                # (vol Mxi, Meta)
    kron: KronSolver = field(init=False)
    inner: tuple = field(init=False)          # (sx, sy) slices
    rows: slice = field(init=False)           # glued xi lines, among 0 and nbar_xi - 1
    cols: slice = field(init=False)           # glued eta lines
    gx: np.ndarray = field(init=False)        # (|sx|, |rows|)
    gy: np.ndarray = field(init=False)        # (|sy|, |cols|)
    inner_dofs: np.ndarray = field(init=False)  # (|sx| |sy|,) coupled DOFs of the range
    face_dofs: np.ndarray = field(init=False)   # interface positions of the face DOFs


def _glued_lines(n, faces, unglued):
    """Slices of the glued grid lines of one direction of an auxiliary basis
    with ``n`` functions, ``faces`` its (first, last) face names, and of the
    other lines. Glued lines are first and/or last, so both are slices;
    first and last together are the stride n - 1."""
    first, last = (face not in unglued for face in faces)
    glued = {(True, True): slice(0, n, n - 1), (True, False): slice(0, 1),
             (False, True): slice(n - 1, n), (False, False): slice(0, 0)}
    return glued[first, last], slice(int(first), n - int(last))


class MixedSystem:
    """Mixed system on a patch topology.

    ``mode`` selects the auxiliary-variable layout: 'full' carries u ~ x_xi
    and v ~ x_eta (four scalar auxiliary fields), 'xi'/'eta' carry only one of
    them and keep the second derivatives of x in the other direction, which
    requires C>=1 primal continuity there. ``chi`` splits the mixed
    second-derivative term between the two available representatives; the
    metric entries are always computed from the x-derivatives.
    """

    def __init__(self, topology: PatchTopology, boundary_values, *,
                 mode: str = "full", chi: float = 0.5, mu: float = 1e-4):
        if mode not in MODES:
            raise InputError(f"mode must be one of {MODES}, got {mode!r}")
        if not 0.0 <= chi <= 1.0:
            raise InputError(f"chi must lie in [0, 1], got {chi}")
        if not (math.isfinite(mu) and mu > 0.0):
            raise InputError(f"mu must be positive and finite, got {mu}")
        self._validate_mode(topology, mode)
        self.topology = topology
        self.mode = mode
        self.chi = float(chi)
        self.mu = float(mu)
        # fields are (direction, component) pairs; direction 'xi' fields hold
        # the projection of x_xi, 'eta' fields that of x_eta
        if mode == "full":
            self.fields = [("xi", 0), ("xi", 1), ("eta", 0), ("eta", 1)]
        elif mode == "xi":
            self.fields = [("xi", 0), ("xi", 1)]
        else:
            self.fields = [("eta", 0), ("eta", 1)]

        boundary_values = np.asarray(boundary_values, dtype=float)
        if boundary_values.shape != (len(topology.boundary_indices), 2):
            raise InputError("boundary value array shape mismatch")
        self._template = np.zeros((topology.n_sigma, 2))
        self._template[topology.boundary_indices] = boundary_values

        # (mbar, obar, kbar) per patch and direction, shared by both builders
        univariate = [(_univariate_matrices(bb.kv_xi, tb.kv_xi),
                       _univariate_matrices(bb.kv_eta, tb.kv_eta))
                      for tb, bb in zip(topology.bases, topology.bar_bases)]
        self._build_patches(univariate)
        self._build_mass(univariate)
        self.rn_eval_count = 0
        self.last_min_denominator = np.inf
        self._buffers = {}

    # -- construction ----------------------------------------------------

    @staticmethod
    def _validate_mode(topology, mode):
        if mode == "full":
            return
        if topology.n_patches > 1:
            raise ModeError(
                "single-direction modes are limited to single-patch "
                "problems; interfaces introduce C0 lines in both directions")
        tb = topology.bases[0]
        other = tb.kv_eta if mode == "xi" else tb.kv_xi
        if other.max_interior_multiplicity() > other.degree - 1:
            raise ModeError(
                f"mode {mode!r} keeps second derivatives in the "
                f"{'eta' if mode == 'xi' else 'xi'} direction, which requires "
                "C>=1 continuity there (interior multiplicities <= degree-1)")

    def _build_patches(self, univariate):
        topo = self.topology
        n_aux = self.n_fields // 2
        directions = [0] if self.mode == "xi" else [1] if self.mode == "eta" else [0, 1]
        inner_of = np.full(topo.n_sigma, 2 * self.n_inner)
        inner_of[topo.inner_indices] = np.arange(self.n_inner)
        comp = np.arange(2)[:, None]
        fields = 2 * np.arange(n_aux)[:, None, None, None] + comp
        self.patches = []
        for i in range(topo.n_patches):
            tb, bb = topo.bases[i], topo.bar_bases[i]
            cache = build_quadrature(tb, bb, self.mode != "full")
            am = topo.maps[i]
            vol = abs(am.det)
            ia = am.inv
            (mx, ox, kx), (my, oy, ky) = univariate[i]
            sig = topo.sig_l2g[i].reshape(tb.n_xi, 1, tb.n_eta)
            inner = inner_of[sig]
            left = np.stack([vol * np.stack([ia[0, d] * kx, ia[1, d] * ox], axis=2)
                             for d in directions]).reshape(len(directions), bb.n_xi, -1)
            self.patches.append(_PatchContext(
                cache=cache,
                inv_a=ia,
                vol=vol,
                wgrid=vol * np.multiply.outer(cache.xi.weights, cache.eta.weights),
                sig_idx=2 * sig + comp,
                bar_idx=fields * topo.n_sigbar
                + topo.bar_l2g[i].reshape(1, bb.n_xi, 1, bb.n_eta),
                out_idx=np.where(inner < self.n_inner, comp * self.n_inner + inner,
                                 2 * self.n_inner),
                combo=_residual_combination(self.mode, self.chi, ia, n_aux),
                left=left,
                right=np.concatenate([oy.T, ky.T], axis=1),
                mass=(vol * mx, my)))

    def _build_mass(self, univariate):
        """Static condensation of the coupled auxiliary mass A onto Gamma,
        the auxiliary DOFs shared by more than one patch (Smith, Bjorstad &
        Gropp, Domain Decomposition, CUP 1996, ch. 4). The shared DOFs of a
        patch are those of its glued faces, so the others form a tensor
        range sx x sy, whose block vol Mxi[sx, sx] (x) Meta[sy, sy] banded
        Kronecker factors solve. As M[:, I] M[I, I]^-1 M[I, :] = vol Pxi (x)
        Peta with Pxi = Mxi[:, sx] Gxi, the interface Schur complement sums
        vol (Mxi (x) Meta - Pxi (x) Peta) over patches. Pxi differs from Mxi
        only on the glued lines, by the univariate Schur complement Dxi, so
        each term is vol (Dxi (x) Meta + Mxi (x) Deta - Dxi (x) Deta),
        formed on the face DOFs alone in O(n_Gamma^2). The sum is dense in
        n_Gamma and factored once by dense Cholesky."""
        topo = self.topology
        self._tilde2g = topo.tilde_to_global()
        shared = np.bincount(self._tilde2g, minlength=topo.n_sigbar) > 1
        self._gamma = np.flatnonzero(shared)
        n_gamma = len(self._gamma)
        position = np.cumsum(shared) - 1
        keys, blocks = [], []
        for i, (ctx, ((mx, _, _), (my, _, _))) in enumerate(zip(self.patches, univariate)):
            bb = topo.bar_bases[i]
            unglued = topo.unglued_faces[i]
            ctx.rows, sx = _glued_lines(bb.n_xi, ("west", "east"), unglued)
            ctx.cols, sy = _glued_lines(bb.n_eta, ("south", "north"), unglued)
            ctx.inner = sx, sy
            ctx.kron = KronSolver(mx[sx, sx], my[sy, sy], scale=ctx.vol)
            ctx.gx = ctx.kron.chol_xi.solve(mx[sx, ctx.rows])
            ctx.gy = ctx.kron.chol_eta.solve(my[sy, ctx.cols])
            local = np.arange(bb.dim).reshape(bb.n_xi, bb.n_eta)
            ctx.inner_dofs = topo.bar_l2g[i][local[sx, sy].ravel()]
            # face DOFs: the glued xi lines whole, then the glued eta lines
            # inside the range sx
            face = np.concatenate([local[ctx.rows].ravel(),
                                   local[sx, ctx.cols].ravel()])
            ctx.face_dofs = position[topo.bar_l2g[i][face]]
            if not face.size:
                continue
            dx = np.zeros_like(mx)
            dx[ctx.rows, ctx.rows] = mx[ctx.rows, ctx.rows] - mx[ctx.rows, sx] @ ctx.gx
            dy = np.zeros_like(my)
            dy[ctx.cols, ctx.cols] = my[ctx.cols, ctx.cols] - my[ctx.cols, sy] @ ctx.gy
            fa, fb = np.divmod(face, bb.n_eta)
            a, b = np.ix_(fa, fa), np.ix_(fb, fb)
            blocks.append(ctx.vol * (dx[a] * my[b] + mx[a] * dy[b] - dx[a] * dy[b]))
            keys.append(ctx.face_dofs[:, None] * n_gamma + ctx.face_dofs)
        self._gamma_factor = None
        if keys:
            schur = np.bincount(
                np.concatenate([k.ravel() for k in keys]),
                weights=np.concatenate([s.ravel() for s in blocks]),
                minlength=n_gamma * n_gamma).reshape(n_gamma, n_gamma)
            self._gamma_factor = scipy.linalg.cho_factor(schur, lower=True)
        self._face_dofs = np.concatenate([ctx.face_dofs for ctx in self.patches])
        self._tilde_bounds = list(zip(topo.tilde_offsets[:-1], topo.tilde_offsets[1:]))

    # -- shapes and layout -------------------------------------------------

    @property
    def n_inner(self) -> int:
        return len(self.topology.inner_indices)

    @property
    def n_fields(self) -> int:
        return len(self.fields)

    @property
    def d_size(self) -> int:
        return self.n_fields * self.topology.n_sigbar

    @property
    def c_size(self) -> int:
        return 2 * self.n_inner

    def c_as_net(self, c):
        """Inner coefficients as an (n_inner, 2) array from the flat
        (c_x..., c_y...) layout."""
        c = np.asarray(c, dtype=float)
        if c.shape == (self.n_inner, 2):
            return c
        if c.shape != (self.c_size,):
            raise InputError(f"c has shape {c.shape}, expected ({self.c_size},)")
        return c.reshape(2, self.n_inner).T

    def net_as_c(self, net):
        net = np.asarray(net, dtype=float)
        return np.concatenate([net[:, 0], net[:, 1]])

    def full_control_net(self, c):
        net = self._template.copy()
        net[self.topology.inner_indices] = self.c_as_net(c)
        return net

    # -- linear part -------------------------------------------------------

    def eval_RL_tilde(self, d, c):
        """Patchwise (union-basis) moments of the linear residual, one row
        per auxiliary field: the mass moments vol Mxi D_f Meta of each
        patch minus the derivative moments (:meth:`_derivative_moments`)."""
        d = np.asarray(d, dtype=float).reshape(self.n_fields, -1)
        out = np.empty((self.n_fields, self.topology.n_tilde))
        for ctx, (lo, hi), l2g in zip(self.patches, self._tilde_bounds,
                                      self.topology.bar_l2g):
            mx, my = ctx.mass
            shape = (self.n_fields, len(mx), len(my))
            np.matmul(mx, (d[:, l2g].reshape(-1, len(my)) @ my).reshape(shape),
                      out=out[:, lo:hi].reshape(shape))
        out -= self._derivative_moments(self.full_control_net(c))
        return out

    def reduce_tilde(self, tilde):
        """Sum union moments over coupling classes: the coupled residual."""
        tilde = np.atleast_2d(tilde)
        out = np.empty((tilde.shape[0], self.topology.n_sigbar))
        for f in range(tilde.shape[0]):
            out[f] = np.bincount(self._tilde2g, weights=tilde[f],
                                 minlength=self.topology.n_sigbar)
        return out

    def eval_RL(self, d, c):
        return self.reduce_tilde(self.eval_RL_tilde(d, c)).ravel()

    def residual_scale(self):
        """S = ||R_L(d=0, c=0)||: the coupled derivative moments of the net
        holding the boundary data and zero inner coefficients, translated so
        that its first boundary point is the origin (the residual is
        translation invariant, and its scale must be too). S depends only on
        the boundary data and the discretisation, scales with the domain,
        and is zero when all boundary points coincide."""
        bnd = self.topology.boundary_indices
        net = np.zeros_like(self._template)
        net[bnd] = self._template[bnd] - self._template[bnd[0]]
        return float(np.linalg.norm(
            self.reduce_tilde(self._derivative_moments(net))))

    # -- nonlinear part ------------------------------------------------------

    @staticmethod
    def _jet(ctx, net, groups, out):
        """Primal jet rows of ``groups`` on the patch's Gauss grid, written
        into ``out`` (n_rows, n_xi points, 2, n_eta points): row (k, l) of
        component c is xi.sig[k] @ C_c @ eta.sig[l].T, with C the patch's
        control points from the flat control net ``net``."""
        fx, fy = ctx.cache.xi, ctx.cache.eta
        C = net[ctx.sig_idx]
        nx, _, ny = C.shape
        kmax = max(k1 for _, _, k1 in groups)
        T = (fx.sig[:kmax].reshape(-1, nx) @ C.reshape(nx, -1)).reshape(kmax, -1, ny)
        r = 0
        for l, k0, k1 in groups:
            n = k1 - k0
            np.matmul(T[k0:k1].reshape(-1, ny), fy.sig[l].T,
                      out=out[r: r + n].reshape(-1, out.shape[-1]))
            r += n

    def _metric(self, X):
        """(3, n_xi points, n_eta points) scratch array of g11, g22, g12 from
        the grid derivatives X = (x_xi, x_eta), each (n_xi points, 2, n_eta
        points)."""
        g, sq = self._scratch("g", 3, *X.shape[1::2]), self._scratch("gz", *X.shape)
        np.sum(np.square(X, out=sq), axis=2, out=g[:2])
        np.sum(np.multiply(X[0], X[1], out=sq[0]), axis=1, out=g[2])
        return g

    def _scratch(self, name, *shape):
        """A scratch array of the per-iterate kernels, reused across calls
        and patches: their grid arrays have the same shapes at every
        iterate, and fresh ones cost a page fault per 4 KB whenever the C
        allocator has handed the freed memory back to the system."""
        size = math.prod(shape)
        buf = self._buffers.get(name)
        if buf is None or buf.size < size:
            buf = self._buffers[name] = np.empty(size)
        return buf[:size].reshape(shape)

    def eval_RN(self, d, c):
        """Nonlinear residual: moments of the scaled operator against every
        inner primal basis function, components stacked (x..., y...).

        Sum factorisation: on each patch every field and derivative on the
        tensor Gauss grid is a product of univariate collocation factors,
        Bx @ C @ By.T, and so are the moments against the test functions,
        Bx.T @ (w U) @ By."""
        net = self.full_control_net(c).ravel()
        d = np.asarray(d, dtype=float).ravel()
        n_res = 2 * self.n_inner
        res = np.zeros(n_res + 1)
        min_denom = np.inf
        groups = FIRST_JET if self.mode == "full" else SECOND_JET
        n_jet = sum(k1 - k0 for _, k0, k1 in groups)
        for ctx in self.patches:
            fx, fy = ctx.cache.xi, ctx.cache.eta
            npx, npy = ctx.wgrid.shape
            n_aux, nbx, _, nby = ctx.bar_idx.shape
            rows = self._scratch("rows", n_jet + 2 * n_aux, npx, 2, npy)
            self._jet(ctx, net, groups, rows)
            D = d[ctx.bar_idx].reshape(n_aux, nbx, -1)
            for r0, (k, l) in ((n_jet, (1, 0)), (n_jet + n_aux, (0, 1))):
                np.matmul((fx.bar[k] @ D).reshape(-1, nby), fy.bar[l].T,
                          out=rows[r0: r0 + n_aux].reshape(-1, npy))
            Z = self._scratch("Z", 5, npx, 2, npy)
            np.matmul(ctx.combo, rows.reshape(len(rows), -1), out=Z.reshape(5, -1))
            g = self._metric(Z[:2])
            denom = np.add(g[0], g[1], out=self._scratch("denom", npx, npy))
            denom += self.mu
            min_denom = min(min_denom, float(denom.min()))
            gz = np.multiply(g[:, :, None], Z[2:], out=self._scratch("gz", 3, npx, 2, npy))
            wU = np.sum(gz, axis=0, out=self._scratch("wU", npx, 2, npy))
            wU *= np.divide(ctx.wgrid, denom, out=denom)[:, None]
            moments = (fx.sig[0].T @ wU.reshape(npx, -1)).reshape(-1, npy) @ fy.sig[0]
            res += np.bincount(ctx.out_idx.ravel(), weights=moments.ravel(),
                               minlength=n_res + 1)
        self.rn_eval_count += 1
        self.last_min_denominator = min_denom
        return res[:n_res]

    # -- Schur preconditioner ------------------------------------------------

    @functools.cached_property
    def _laplacian_factors(self):
        """Pair factors of every patch (:func:`_pair_factors`, the xi factors
        block-diagonal in the order of ``PAIRINGS``, the eta factors side by
        side) and the fixed CSR pattern of the inner primal couplings, built
        on first use.

        The couplings of a patch are S_xi x S_eta: functions (i1, i2) and
        (j1, j2) share an element exactly when (i1, j1) is in S_xi and
        (i2, j2) in S_eta. The pattern is their union over patches, mapped
        to inner indices; ``positions`` holds the place in the CSR data of
        every patch entry, laid out as the (|S_eta|, |S_xi|) products of
        :meth:`frozen_laplacian` patch after patch (nnz for an entry in a
        boundary row or column)."""
        n = self.n_inner
        inner_of = np.full(self.topology.n_sigma, -1)
        inner_of[self.topology.inner_indices] = np.arange(n)
        xs, ys, keys = [], [], []
        for i, ctx in enumerate(self.patches):
            px, fx = _pair_factors(ctx.cache.xi, [(1 - a, 1 - b) for a, b in PAIRINGS],
                                   diagonal=True)
            py, fy = _pair_factors(ctx.cache.eta, PAIRINGS, diagonal=False)
            xs.append(fx)
            ys.append(fy)
            loc = inner_of[self.topology.sig_l2g[i]]
            n_eta = ctx.cache.eta.sig.shape[-1]
            row = loc[px[:, 0] * n_eta + py[:, None, 0]]
            col = loc[px[:, 1] * n_eta + py[:, None, 1]]
            keys.append(np.where((row < 0) | (col < 0), n * n, row * n + col).ravel())
        # one sentinel key n * n, past every coupling, takes the dropped entries
        pattern, positions = np.unique(np.concatenate(keys + [[n * n]]),
                                       return_inverse=True)
        pattern = pattern[:-1]
        indptr = np.searchsorted(pattern // n, np.arange(n + 1))
        return _LaplacianFactors(
            indices=(pattern % n).astype(np.int32), indptr=indptr.astype(np.int32),
            positions=positions[:-1], x=xs, y=ys)

    def frozen_laplacian(self, c):
        """Frozen-metric Laplacian on the inner primal basis at the iterate c:
        K_ij = int grad(w_i)^T Q grad(w_j) / (g11 + g22 + mu), gradients in
        (xi, eta), with Q = [[g22 + mu/2, -g12], [-g12, g11 + mu/2]].

        -K is the principal part of the Schur operator with the metric frozen
        (integrate the numerator of R_N by parts). The mu/2 shift makes Q
        positive definite at every point, det Q >= mu/2 (g11 + g22) + mu^2/4,
        so K is SPD even on folded iterates. The metric comes from the jet
        of :meth:`eval_RN`; in the patch coordinates the scaled Q is M = ia
        Q ia^T (the patch map is affine), and the patch matrix is the sum
        over the pairings (a, b) of X_ab^T M_ab Y_ab, products of the pair
        factors of :meth:`_laplacian_factors`, summed by one ``bincount``
        into the fixed CSR pattern. Returns a CSR matrix."""
        lf = self._laplacian_factors
        net = self.full_control_net(c).ravel()
        half_mu = 0.5 * self.mu
        entries = []
        for ctx, fx, fy in zip(self.patches, lf.x, lf.y):
            npx, npy = ctx.wgrid.shape
            rows = self._scratch("rows", 2, npx, 2, npy)
            self._jet(ctx, net, FIRST_JET, rows)
            X = self._scratch("Z", 2, npx, 2, npy)
            np.matmul(ctx.inv_a.T, rows.reshape(2, -1), out=X.reshape(2, -1))
            g = self._metric(X)
            scale = np.add(g[0], g[1], out=self._scratch("denom", npx, npy))
            scale += self.mu
            np.divide(ctx.wgrid, scale, out=scale)
            q = self._scratch("q", 3, npx, npy)
            np.multiply(scale, np.add(g[1], half_mu, out=q[0]), out=q[0])
            np.multiply(scale, np.negative(g[2], out=q[1]), out=q[1])
            np.multiply(scale, np.add(g[0], half_mu, out=q[2]), out=q[2])
            M = np.matmul(_patch_metric_map(ctx.inv_a), q.reshape(3, -1),
                          out=self._scratch("M", 4, npx * npy))
            # (4 |S_xi|, n_eta points): X_ab^T M_ab for every pairing
            Z = fx @ M.reshape(len(PAIRINGS) * npx, npy)
            Z = Z.reshape(len(PAIRINGS), -1, npy).transpose(0, 2, 1)
            entries.append((fy @ Z.reshape(len(PAIRINGS) * npy, -1)).ravel())
        nnz = len(lf.indices)
        data = np.bincount(lf.positions, weights=np.concatenate(entries),
                           minlength=nnz + 1)
        n = self.n_inner
        return sparse.csr_matrix((data[:nnz], lf.indices, lf.indptr), shape=(n, n))

    def laplace_preconditioner(self, c):
        """P^-1 for the Schur operator at the iterate c, with P = -K on each
        component (K from :meth:`frozen_laplacian`): a callable taking and
        returning vectors in the (x..., y...) layout. K is factored once by
        a sparse LU with a fill-reducing symmetric ordering (it is SPD, so
        without pivoting) and both components are solved in one call. K is
        symmetric, so its CSR arrays are handed to the LU as CSC unchanged."""
        K = self.frozen_laplacian(c)
        lu = splu(sparse.csc_matrix((K.data, K.indices, K.indptr), shape=K.shape),
                  permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                  options={"SymmetricMode": True})
        n = self.n_inner

        def apply(y):
            return -lu.solve(np.reshape(y, (2, n)).T).T.ravel()
        return apply

    # -- A^-1 products -------------------------------------------------------

    def _derivative_moments(self, net):
        """Union moments of the (x_xi, x_eta) fields of a full control net,
        one row per auxiliary field: on patch i, field (direction d,
        component k) has vol (ia[0, d] Kxi C_k Oeta^T + ia[1, d] Oxi C_k
        Keta^T). Both components take the right factor [Oeta^T | Keta^T] in
        one product, then each direction its left factor [vol ia[0, d] Kxi |
        vol ia[1, d] Oxi], columns interleaved (column 2a + r meets half r
        at xi function a), in one product written into the union layout."""
        net = net.ravel()
        out = np.empty((self.n_fields, self.topology.n_tilde))
        for ctx, (lo, hi) in zip(self.patches, self._tilde_bounds):
            n_dir, nbx, _ = ctx.left.shape
            C = net[ctx.sig_idx.transpose(1, 0, 2)]
            T = C.reshape(-1, C.shape[-1]) @ ctx.right
            nby = T.shape[1] // 2
            np.matmul(ctx.left[:, None], T.reshape(1, 2, -1, nby),
                      out=out[:, lo:hi].reshape(n_dir, 2, nbx, nby))
        return out

    def _mass_pcg(self, tilde):
        """Exact coupled A^-1 applied to every row of the union moments
        ``tilde`` (one row per field), all fields batched, by the static
        condensation of :meth:`_build_mass`.

        Per patch, the interior moments b_I are solved by one Kronecker
        solve, z_I = M_II^-1 b_I, and M_GammaI z_I = (Gxi (x) Geta)^T b_I is
        taken on the face DOFs alone, by contractions with the glued columns
        of Gxi and Geta. One dense solve on Gamma gives the interface values
        y, and the back-substitution x_I = z_I - (Gxi (x) Geta) y touches
        the same columns. A patch without glued faces skips the face work,
        so with no shared DOFs (a single patch) this is the plain Kronecker
        solve. The name is that of the
        conjugate-gradient solve this replaced; it stays because
        ``perfbench/tracing.py`` looks the method up by it, until the
        benchmark's hooks are renamed (ROADMAP item 5)."""
        k = len(tilde)
        interiors, faces = [], []
        for ctx, (lo, hi) in zip(self.patches, self._tilde_bounds):
            sx, sy = ctx.inner
            (n_xi, n_rows), (n_eta, n_cols) = ctx.gx.shape, ctx.gy.shape
            t = tilde[:, lo:hi].reshape(k, n_xi + n_rows, n_eta + n_cols)
            b = t[:, sx, sy]
            interiors.append(
                ctx.kron.solve_block(b.reshape(k, -1)).reshape(k, n_xi, n_eta))
            if ctx.face_dofs.size:
                # face moments minus M_GammaI z_I, in the face order of
                # _build_mass
                g_b = ctx.gx.T @ b
                f_rows = t[:, ctx.rows].copy()
                f_rows[:, :, sy] -= g_b
                f_rows[:, :, ctx.cols] -= g_b @ ctx.gy
                faces += [f_rows.reshape(k, -1),
                          (t[:, sx, ctx.cols] - b @ ctx.gy).reshape(k, -1)]
        out = np.empty((k, self.topology.n_sigbar))
        if faces:
            faces = np.concatenate(faces, axis=1)
            rhs = np.stack([np.bincount(self._face_dofs, weights=f,
                                        minlength=len(self._gamma))
                            for f in faces], axis=1)
            y = scipy.linalg.cho_solve(self._gamma_factor, rhs, check_finite=False).T
            out[:, self._gamma] = y
            for ctx, x in zip(self.patches, interiors):
                if not ctx.face_dofs.size:
                    continue
                sx, sy = ctx.inner
                (n_xi, n_rows), (n_eta, n_cols) = ctx.gx.shape, ctx.gy.shape
                split = n_rows * (n_eta + n_cols)
                y_face = y[:, ctx.face_dofs]
                y_rows = y_face[:, :split].reshape(k, n_rows, n_eta + n_cols)
                y_cols = y_face[:, split:].reshape(k, n_xi, n_cols)
                # (Gxi (x) Geta) y on the range is gx Y_rows Geta^T + Y_cols
                # gy^T (the glued rows through both factors, the glued
                # columns inside the range through Geta), one batched
                # product of rank n_rows + n_cols
                left = np.concatenate(
                    [np.broadcast_to(ctx.gx, (k, n_xi, n_rows)), y_cols], axis=2)
                right = np.concatenate(
                    [y_rows[:, :, sy] + y_rows[:, :, ctx.cols] @ ctx.gy.T,
                     np.broadcast_to(ctx.gy.T, (k, n_cols, n_eta))], axis=1)
                x -= left @ right
        for ctx, x in zip(self.patches, interiors):
            for row, x_row in zip(out, x.reshape(k, -1)):
                row[ctx.inner_dofs] = x_row
        return out

    def ainv_exact(self, tilde):
        """Exact coupled A^-1 applied to union moments, all fields in one
        call: the one mass solve, by static condensation onto the interface
        DOFs (:meth:`_mass_pcg`)."""
        return self._mass_pcg(np.atleast_2d(tilde))

    def apply_ainv_b(self, s):
        """A^-1 B s, solved exactly for all fields in one call of
        :meth:`ainv_exact`."""
        net = np.zeros((self.topology.n_sigma, 2))
        net[self.topology.inner_indices] = self.c_as_net(s)
        return self.ainv_exact(self._derivative_moments(net)).ravel()

    def project_d(self, c):
        """Auxiliary coefficients from the L2 projection of x_xi and x_eta of
        the current map (boundary included) onto the coupled auxiliary
        basis, solved exactly by :meth:`ainv_exact`."""
        net = self.full_control_net(c)
        return self.ainv_exact(self._derivative_moments(net)).ravel()

    def solve_delta_d(self, a_tilde, delta_c):
        """A delta_d = a + B delta_c, solved exactly for all fields in one
        call of :meth:`ainv_exact`; ``a_tilde`` are the union moments of a
        (sign already applied)."""
        net = np.zeros((self.topology.n_sigma, 2))
        net[self.topology.inner_indices] = self.c_as_net(delta_c)
        return self.ainv_exact(
            a_tilde + self._derivative_moments(net)).ravel()


def single_patch_system(m, *, mode: str = "full", chi: float = 0.5,
                        mu: float = 1e-4) -> MixedSystem:
    """Mixed system for a single-patch SplineMap (identity affine map)."""
    topo = single_patch_topology(m.basis)
    return MixedSystem(topo, m.control[topo.boundary_indices],
                       mode=mode, chi=chi, mu=mu)


def boundary_values_from_faces(topology: PatchTopology, boundary_data):
    """Global boundary coefficient array from per-(patch, face) curve data.

    Every unglued face needs an entry; coefficients meeting at shared corner
    DOFs (including across patches) must agree to 1e-12.
    """
    n = topology.n_sigma
    values = np.zeros((n, 2))
    assigned = np.zeros(n, dtype=bool)
    source = {}
    for p in range(topology.n_patches):
        for face in topology.unglued_faces[p]:
            key = (p, face)
            if key not in boundary_data:
                raise InputError(f"missing boundary curve for patch {p} face {face!r}")
            arr = np.asarray(boundary_data[key], dtype=float)
            idx_local = topology.bases[p].face_indices(face)
            if arr.shape != (len(idx_local), 2):
                raise InputError(
                    f"patch {p} face {face!r}: curve shape {arr.shape}, "
                    f"expected ({len(idx_local)}, 2)")
            for k, g in enumerate(topology.sig_l2g[p][idx_local]):
                if assigned[g]:
                    gap = float(np.linalg.norm(values[g] - arr[k]))
                    if gap > 1e-12:
                        raise CornerMismatchError(
                            f"patch {p}.{face}[{k}] vs {source[g]}", gap)
                else:
                    values[g] = arr[k]
                    assigned[g] = True
                    source[g] = f"patch {p}.{face}[{k}]"
    missing = set(topology.boundary_indices) - set(np.flatnonzero(assigned))
    if missing:
        raise InputError(f"{len(missing)} boundary DOFs received no curve data")
    return values[topology.boundary_indices]

