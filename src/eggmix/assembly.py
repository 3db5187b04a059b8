"""Galerkin assembly of the mixed first-order system, by sum factorisation:
each patch's Gauss points form a tensor grid, so every block is applied
patch by patch as products of univariate factors, and no global operator is
assembled. Fields and derivatives of the nonlinear residual are ``Bx @ C @
By.T`` with univariate collocation factors, and its moments against the test
functions ``Bx.T @ (w U) @ By``. The residual contracts the eta direction
first, on the coefficients, and then walks the xi Gauss points in strips of
whole spans sized to the cache (``STRIP_BYTES``): each strip multiplies only
the band of xi factor columns active on its spans, so its share of the xi
contractions and all of its pointwise work stay on strip-sized arrays. The
strips leave the metric of every Gauss point behind, tagged with its
iterate, and the frozen-metric Laplacian takes it from there. The constant
blocks are separable: a patch's auxiliary mass moments are ``vol Mxi D
Meta.T``, its derivative moments ``vol (ia[0, d] Kxi C Oeta.T + ia[1, d]
Oxi C Keta.T)``, with dense univariate integral factors. Every univariate
factor of a patch direction, collocation and integral alike, comes from one
B-spline table per knot vector (primal and auxiliary) on that direction's
Gauss grid, made by :func:`build_quadrature` once per distinct knot vector
of the system: patch directions with the same knots share one read-only
:class:`DirectionFactors`. The coupled auxiliary mass is solved exactly by
static condensation onto the auxiliary DOFs that patches share (Kronecker
solves on each patch's remaining tensor range, as two dense products with
the univariate inverses, and one dense Cholesky factor on the shared DOFs),
and the frozen-metric Laplacian that preconditions the Schur GMRES is summed
from univariate pair factors, of the xi pairs i <= j alone since it is
symmetric, straight into its lower band storage, in a bandwidth-reducing
order fixed once per system, and factored there by banded Cholesky. A
single patch is a 1-patch topology on the same code path.
"""
from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
from scipy import sparse
from scipy.sparse import csgraph

from .errors import CornerMismatchError, InputError, ModeError
from .linalg import Banded1DCholesky, KronSolver
from .multipatch import PatchTopology, single_patch_topology
from .splines import KnotVector, TensorBasis

MODES = ("full", "xi", "eta")


@dataclass(frozen=True)
class DirectionFactors:
    """Univariate quadrature, collocation and integral factors of one
    parametric direction of a patch, all from one table per knot vector on
    the Gauss points of every span of the fine (auxiliary) knot vector,
    span-major: point ``k`` lies in span ``k // nq``.

    ``first_*``/``tab_*`` are the padded tables of :meth:`KnotVector.eval_many`
    per span (``tab[e, q, k, j]`` is the k-th derivative of function
    ``first[e] + j`` at point q of span e, zero above the degree); ``sig``
    and ``bar`` are the same values as dense collocation factors,
    ``sig[k, i, a]`` the k-th derivative of primal function a at point i.
    Each row has only p + 1 nonzeros, in the columns ``first[e]`` to
    ``first[e] + p`` of its span: the residual contracts the eta factors
    whole, on the coefficients, and reads the xi factors in bands, one
    block of rows and columns per strip (:func:`_strip_layout`).
    The integral factors are ``mbar[i, j] = int wbar_i wbar_j``, ``obar[i,
    j] = int wbar_i w_j`` and ``kbar[i, j] = int wbar_i w_j'``.

    Every patch direction of a system with the same knot vectors shares one
    instance (:func:`build_quadrature`), so its arrays are read-only.
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
    mbar: np.ndarray        # (n_bar, n_bar)
    obar: np.ndarray        # (n_bar, n_sig)
    kbar: np.ndarray        # (n_bar, n_sig)

    def __post_init__(self):
        for value in vars(self).values():
            if isinstance(value, np.ndarray):
                value.flags.writeable = False

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


def _direction_tables(kv_sig: KnotVector, kv_bar: KnotVector, nderiv_sig: int):
    """Univariate factors on every nonempty span of the fine knot vector,
    from one :meth:`KnotVector.eval_many` table per knot vector.

    Gauss order is the larger degree + 1 per span, which integrates the
    auxiliary mass exactly. Span integrals are batched products of the padded tables,
    scattered with one ``bincount`` per factor."""
    nq = max(kv_sig.degree, kv_bar.degree) + 1
    pts, wts = kv_bar.gauss_grid(nq)
    n_es = kv_bar.nelems
    first_s, tab_s = kv_sig.eval_many(pts, nderiv_sig)
    first_b, tab_b = kv_bar.eval_many(pts, 1)
    sig, bar = kv_sig.dense(first_s, tab_s), kv_bar.dense(first_b, tab_b)
    # all Gauss points of a span share its active functions
    first_s = first_s[::nq]
    first_b = first_b[::nq]
    tab_s = tab_s.reshape(n_es, nq, nderiv_sig + 1, kv_sig.degree + 1)
    tab_b = tab_b.reshape(n_es, nq, 2, kv_bar.degree + 1)
    rows = first_b[:, None] + np.arange(kv_bar.degree + 1)
    # (n_es, p_bar + 1, nq) weighted test functions of every span
    w_tb = np.swapaxes(wts.reshape(n_es, nq, 1) * tab_b[:, :, 0], 1, 2)

    def scatter(local, first, dim):
        cols = first[:, None] + np.arange(local.shape[-1])
        flat = rows[:, :, None] * dim + cols[:, None, :]
        return np.bincount(flat.ravel(), weights=local.ravel(),
                           minlength=kv_bar.dim * dim).reshape(kv_bar.dim, dim)

    return DirectionFactors(
        nq=nq, points=pts, weights=wts,
        first_sig=first_s, tab_sig=tab_s, first_bar=first_b, tab_bar=tab_b,
        sig=sig, bar=bar,
        mbar=scatter(w_tb @ tab_b[:, :, 0], first_b, kv_bar.dim),
        obar=scatter(w_tb @ tab_s[:, :, 0], first_s, kv_sig.dim),
        kbar=scatter(w_tb @ tab_s[:, :, 1], first_s, kv_sig.dim))


def build_quadrature(sigma: TensorBasis, sigma_bar: TensorBasis,
                     need_second: bool = False, tables=None) -> QuadratureCache:
    """Quadrature cache on the union grid of primal and auxiliary knot lines
    (the auxiliary grid, since it refines the primal one).

    ``tables`` maps the exact knot vectors of a direction, primal and
    auxiliary (degrees and knot values, not the tolerant
    :meth:`KnotVector.__eq__`), to its :class:`DirectionFactors`; every
    direction whose knot vectors are already there takes those factors, and
    the others are built and added. The calls that build one system pass
    one dict, so that each distinct knot vector of the system is tabulated
    once."""
    tables = {} if tables is None else tables
    nds = 2 if need_second else 1
    factors = []
    for kc, kf in ((sigma.kv_xi, sigma_bar.kv_xi), (sigma.kv_eta, sigma_bar.kv_eta)):
        key = (kc.degree, kc.knots.tobytes(), kf.degree, kf.knots.tobytes(), nds)
        if key not in tables:
            if not set(np.round(kc.breakpoints, 12)) <= set(np.round(kf.breakpoints, 12)):
                raise InputError("auxiliary knot lines must contain the primal ones")
            tables[key] = _direction_tables(kc, kf, nds)
        factors.append(tables[key])
    return QuadratureCache(*factors)


# Bytes of the grid arrays that one strip of the per-iterate kernels works
# on: the 2 MiB L2 cache per core of the machine the strip-budget sweep of
# BENCH_iterate_strips.json was measured on. A patch is cut into as few
# strips of whole xi spans as keep every strip within it.
STRIP_BYTES = 2 << 20


def _strip_layout(f: DirectionFactors, point_bytes: int):
    """Strips of whole spans of the xi direction ``f`` of a patch, as few
    as keep ``point_bytes`` per xi Gauss point within ``STRIP_BYTES``, the
    spans spread evenly over them. Each strip is ``(points, cols,
    bar_cols)``: the slice of its xi Gauss points and the slices of the
    primal and auxiliary functions active on its spans, read off the span
    tables alone."""
    n = f.n_spans
    per_strip = max(1, STRIP_BYTES // (f.nq * point_bytes))
    n_strips = -(-n // per_strip)
    start = np.arange(n_strips) * n // n_strips
    stop = np.append(start[1:], n)

    def band(first, width):
        return zip(np.minimum.reduceat(first, start).tolist(),
                   (np.maximum.reduceat(first, start) + width).tolist())
    return [(slice(a * f.nq, b * f.nq), slice(*sig), slice(*bar))
            for a, b, sig, bar in zip(start.tolist(), stop.tolist(),
                                      band(f.first_sig, f.tab_sig.shape[-1]),
                                      band(f.first_bar, f.tab_bar.shape[-1]))]


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


def _pair_factors(f: DirectionFactors, orders, half: bool):
    """Univariate pair factors of one direction of a patch for the frozen
    Laplacian, on its coupled pairs S = {(i, j): some span carries both
    primal functions i and j}.

    Returns ``(pairs, F)``: ``pairs`` is the (n_pairs, 2) array of the
    pairs (i, j), sorted by i * n + j, and ``F`` a CSR matrix with one block
    per entry (k, l) of ``orders``, block b holding at row r and Gauss point
    m the product d^k w_i(x_m) d^l w_j(x_m) of pair r = (i, j). With
    ``half``, for the xi factor of the Laplacian, the pairs are the (|S| +
    n) / 2 with i <= j and the blocks are stacked along the diagonal (shape
    (n_blocks n_pairs, n_blocks n_points)); otherwise the pairs are all of
    S and the blocks lie side by side (shape (n_pairs, n_blocks n_points)).
    A Gauss point only meets the pairs of the p + 1 functions of its span,
    (p + 1)^2 of them or (p + 1)(p + 2) / 2 with ``half``, so F has as
    many entries per point and block."""
    n_spans, nq, _, width = f.tab_sig.shape
    dim = f.sig.shape[-1]
    a, b = np.triu_indices(width) if half else np.indices((width, width)).reshape(2, -1)
    keys = (f.first_sig[:, None] + a) * dim + f.first_sig[:, None] + b
    uniq, pair = np.unique(keys, return_inverse=True)
    n_pairs, n_points = len(uniq), n_spans * nq
    shape = (n_spans, nq, len(a))
    rows = np.broadcast_to(pair.reshape(n_spans, 1, -1), shape)
    cols = np.broadcast_to(np.arange(n_points).reshape(n_spans, nq, 1), shape)
    blocks = range(len(orders))
    vals = [f.tab_sig[:, :, k, a] * f.tab_sig[:, :, l, b] for k, l in orders]
    F = sparse.csr_matrix(
        (np.concatenate([v.ravel() for v in vals]),
         (np.concatenate([(b * n_pairs if half else 0) + rows.ravel()
                          for b in blocks]),
          np.concatenate([b * n_points + cols.ravel() for b in blocks]))),
        shape=((len(orders) if half else 1) * n_pairs, len(orders) * n_points))
    return np.stack([uniq // dim, uniq % dim], axis=1), F


def _patch_metric_map(ia, mu):
    """(4, 4) matrix taking (g11, g22, g12, 1) at a Gauss point to the
    entries (M_ss, M_st, M_ts, M_tt) of M = ia Q ia^T in the patch
    coordinates, with Q = [[g22 + mu/2, -g12], [-g12, g11 + mu/2]] the
    metric of the frozen Laplacian in (xi, eta) and ``ia`` the inverse
    Jacobian of the affine patch map (grad_(xi, eta) = ia^T grad_(s, t))."""
    # columns: the coefficients of Q11, Q12 and Q22
    P = np.array([[ia[a, 0] * ia[b, 0], ia[a, 0] * ia[b, 1] + ia[a, 1] * ia[b, 0],
                   ia[a, 1] * ia[b, 1]] for a, b in PAIRINGS])
    return np.stack([P[:, 2], P[:, 0], -P[:, 1], 0.5 * mu * (P[:, 0] + P[:, 2])],
                    axis=1)


def _band_layout(rows, cols, n):
    """Band ordering of a symmetric matrix on n unknowns, given its
    couplings as pairs of unknowns ``(rows[k], cols[k])``, each coupling
    once or more in either orientation and -1 in ``rows`` for a pair to
    drop: of the natural order and the reverse Cuthill-McKee order (George
    & Liu, Computer Solution of Large Sparse Positive Definite Systems,
    1981), the one with the smaller bandwidth, the natural one on a tie.
    Neither wins everywhere: RCM narrows the multipatch band, whose
    interface DOFs come last in the natural order, and widens a single
    patch's, whose natural order is the tensor order. Returns ``(order,
    bandwidth, places)``: ``order[k]`` is the unknown in band row k, and
    ``places`` the flat position of every pair, or of its mirror when it
    lies above the diagonal in band order, in the Fortran-ordered
    (bandwidth + 1, n) lower band storage of the reordered matrix;
    (bandwidth + 1) n for a dropped pair."""
    keep = rows >= 0
    r, s = rows[keep], cols[keep]
    # RCM breaks ties in the order of a row's columns: a sorted pattern
    # without duplicates, both triangles
    graph = sparse.csr_matrix((np.ones(2 * len(r)), (np.r_[r, s], np.r_[s, r])),
                              shape=(n, n))
    best = None
    # csgraph has no ordering of an empty graph
    candidates = [np.arange(n)] + (
        [csgraph.reverse_cuthill_mckee(graph, symmetric_mode=True)] if n else [])
    for order in candidates:
        rank = np.empty(n, dtype=np.int64)
        rank[order] = np.arange(n)
        bandwidth = int(np.abs(rank[r] - rank[s]).max(initial=0))
        if best is None or bandwidth < best[1]:
            best = order, bandwidth, rank
    order, bandwidth, rank = best
    lo, hi = np.minimum(rank[r], rank[s]), np.maximum(rank[r], rank[s])
    places = np.full(len(rows), (bandwidth + 1) * n)
    places[keep] = lo * (bandwidth + 1) + hi - lo
    return order, bandwidth, places


@dataclass
class _LaplacianFactors:
    """Pair factors and metric maps of every patch and the band layout of
    the frozen Laplacian, see :meth:`MixedSystem._laplacian_factors`."""
    x: list                 # per patch, block-diagonal xi factors of the pairs i <= j
    y: list                 # per patch, side-by-side eta factors (|S_eta|, 4 n_eta)
    metric_maps: list       # per patch, its _patch_metric_map
    order: np.ndarray       # (n_inner,) inner index of every band row
    bandwidth: int
    places: np.ndarray      # band place of each patch entry, (bandwidth + 1) n if dropped
    twice: np.ndarray       # entries that K also takes as their own mirror


@dataclass
class _PatchContext:
    """Per-patch data of the kernels. Grid arrays are indexed (xi Gauss
    point, component, eta Gauss point), or (xi Gauss point, eta Gauss point)
    for scalars.

    ``strips`` cuts the xi Gauss points into strips of whole spans, each
    ``(points, cols, bar_cols)``: the slice of its points and the slices of
    the primal and auxiliary functions active on them
    (:func:`_strip_layout`). :meth:`MixedSystem._strip_pass` writes
    ``metric`` strip by strip: g11, g22, g12 and w / (g11 + g22 + mu) on the
    patch's grid. It holds the values of the control net
    ``MixedSystem._metric_net``, the tag every pass sets once all patches
    are written (None until then), so that
    :meth:`MixedSystem.frozen_laplacian` at the iterate of the last
    ``eval_RN`` reuses them.

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
    strips: list               # _strip_layout of the xi direction
    metric: np.ndarray         # (4, n_xi points, n_eta points) g11, g22, g12, w / denom
    left: np.ndarray           # (n_dir, nbar_xi, 2 n_xi), see _derivative_moments
    right: np.ndarray          # (n_eta, 2 nbar_eta) [Oeta^T | Keta^T]
    mass: tuple                # (vol Mxi, Meta)
    kron: KronSolver = field(init=False)
    inner: tuple = field(init=False)          # (sx, sy) slices
    rows: slice = field(init=False)           # glued xi lines, among 0 and nbar_xi - 1
    cols: slice = field(init=False)           # glued eta lines
    gx: np.ndarray = field(init=False)        # (|sx|, |rows|)
    gy: np.ndarray = field(init=False)        # (|sy|, |cols|)
    inner_out: np.ndarray = field(init=False)   # (n_fields, |sx| |sy|) flat output positions
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

        self._jet_groups = FIRST_JET if mode == "full" else SECOND_JET
        self._build_patches()
        self._build_mass()
        # calls of eval_RN, and the seconds spent in it and in the exact
        # mass solve, summed over the life of the system
        self.rn_eval_count = 0
        self.rn_eval_s = 0.0
        self.mass_solve_s = 0.0
        self.last_min_denominator = np.inf
        self._buffers = {}
        # the flat control net the metric in the patch contexts belongs to
        self._metric_net = None

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

    def _build_patches(self):
        topo = self.topology
        n_aux = self.n_fields // 2
        directions = [0] if self.mode == "xi" else [1] if self.mode == "eta" else [0, 1]
        inner_of = np.full(topo.n_sigma, 2 * self.n_inner)
        inner_of[topo.inner_indices] = np.arange(self.n_inner)
        comp = np.arange(2)[:, None]
        fields = 2 * np.arange(n_aux)[:, None, None, None] + comp
        jet_rows = sum(k1 - k0 for _, k0, k1 in self._jet_groups)
        tables = {}
        self.patches = []
        for i in range(topo.n_patches):
            tb, bb = topo.bases[i], topo.bar_bases[i]
            cache = build_quadrature(tb, bb, self.mode != "full", tables)
            am = topo.maps[i]
            vol = abs(am.det)
            ia = am.inv
            fx, fy = cache.xi, cache.eta
            sig = topo.sig_l2g[i].reshape(tb.n_xi, 1, tb.n_eta)
            inner = inner_of[sig]
            npx, npy = len(fx.points), len(fy.points)
            # the doubles a strip's residual pass holds per grid point: the
            # raw rows and their combination Z (both components), U, the
            # metric and the weight
            point_bytes = 8 * npy * (2 * (jet_rows + 2 * n_aux) + 2 * 5 + 2 + 4 + 1)
            left = np.stack([vol * np.stack([ia[0, d] * fx.kbar, ia[1, d] * fx.obar],
                                            axis=2)
                             for d in directions]).reshape(len(directions), bb.n_xi, -1)
            self.patches.append(_PatchContext(
                cache=cache,
                inv_a=ia,
                vol=vol,
                wgrid=vol * np.multiply.outer(fx.weights, fy.weights),
                sig_idx=2 * sig + comp,
                bar_idx=fields * topo.n_sigbar
                + topo.bar_l2g[i].reshape(1, bb.n_xi, 1, bb.n_eta),
                out_idx=np.where(inner < self.n_inner, comp * self.n_inner + inner,
                                 2 * self.n_inner),
                combo=_residual_combination(self.mode, self.chi, ia, n_aux),
                strips=_strip_layout(fx, point_bytes),
                metric=np.empty((4, npx, npy)),
                left=left,
                right=np.concatenate([fy.obar.T, fy.kbar.T], axis=1),
                mass=(vol * fx.mbar, fy.mbar)))

    def _build_mass(self):
        """Static condensation of the coupled auxiliary mass A onto Gamma,
        the auxiliary DOFs shared by more than one patch (Smith, Bjorstad &
        Gropp, Domain Decomposition, CUP 1996, ch. 4). The shared DOFs of a
        patch are those of its glued faces, so the others form a tensor
        range sx x sy, whose block vol Mxi[sx, sx] (x) Meta[sy, sy] is
        solved by the dense inverses of its univariate factors (``kron``);
        the same inverses give Gxi = Mxi[sx, sx]^-1 Mxi[sx, :] and Geta. As
        M[:, I] M[I, I]^-1 M[I, :] = vol Pxi (x) Peta with Pxi = Mxi[:, sx]
        Gxi, the interface Schur complement sums
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
        for i, ctx in enumerate(self.patches):
            mx, my = ctx.cache.xi.mbar, ctx.cache.eta.mbar
            bb = topo.bar_bases[i]
            unglued = topo.unglued_faces[i]
            ctx.rows, sx = _glued_lines(bb.n_xi, ("west", "east"), unglued)
            ctx.cols, sy = _glued_lines(bb.n_eta, ("south", "north"), unglued)
            ctx.inner = sx, sy
            ctx.kron = KronSolver(mx[sx, sx], my[sy, sy], scale=ctx.vol)
            ctx.gx = ctx.kron.inv_xi @ mx[sx, ctx.rows]
            ctx.gy = ctx.kron.inv_eta @ my[sy, ctx.cols]
            local = np.arange(bb.dim).reshape(bb.n_xi, bb.n_eta)
            ctx.inner_out = (topo.n_sigbar * np.arange(self.n_fields)[:, None]
                             + topo.bar_l2g[i][local[sx, sy].ravel()])
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
        self._face_bins = (n_gamma * np.arange(self.n_fields)[:, None]
                           + np.concatenate([ctx.face_dofs for ctx in self.patches]))
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

    def _scratch(self, name, *shape):
        """A scratch array of the per-iterate kernels, reused across calls,
        patches and strips: their arrays have the same shapes at every
        iterate, and fresh ones cost a page fault per 4 KB whenever the C
        allocator has handed the freed memory back to the system."""
        size = math.prod(shape)
        buf = self._buffers.get(name)
        if buf is None or buf.size < size:
            buf = self._buffers[name] = np.empty(size)
        return buf[:size].reshape(shape)

    def _strip_pass(self, ctx, net, d):
        """One walk over the xi strips of a patch at the flat control net
        ``net`` and the auxiliary coefficients ``d``, writing g11, g22, g12
        and w / (g11 + g22 + mu) of every Gauss point into ``ctx.metric``.

        The eta direction is contracted first, on the coefficients: jet row
        (k, l) is xi.sig[k] @ E_l with E_l = C @ eta.sig[l].T, and the
        auxiliary derivatives are xi.bar[k] @ D @ eta.bar[l].T likewise.
        Each strip then multiplies only the band of xi factor columns
        active on its spans and does ``combo``, the metric and the weights
        on strip-sized scratch. Every strip also forms the residual's
        pointwise values w U and adds their xi moments into an accumulator;
        the pass returns the patch's moments (n_xi, 2, n_eta) against the
        test functions and its minimum denominator g11 + g22 + mu. The
        metric depends on x_xi and x_eta alone, not on ``d``."""
        fx, fy = ctx.cache.xi, ctx.cache.eta
        npy = ctx.wgrid.shape[1]
        groups, combo, n_aux = self._jet_groups, ctx.combo, self.n_fields // 2
        n_rows = sum(k1 - k0 for _, k0, k1 in groups) + 2 * n_aux
        C = net[ctx.sig_idx]
        nx, _, ny = C.shape
        # groups list the eta orders l = 0, 1, ... in turn
        E = self._scratch("eta_sig", len(groups), nx, 2 * npy)
        np.matmul(C.reshape(2 * nx, ny), np.swapaxes(fy.sig[:len(groups)], 1, 2),
                  out=E.reshape(len(groups), 2 * nx, npy))
        _, nbx, _, nby = ctx.bar_idx.shape
        F = self._scratch("eta_bar", 2, n_aux, nbx, 2 * npy)
        np.matmul(d[ctx.bar_idx].reshape(-1, nby), np.swapaxes(fy.bar, 1, 2),
                  out=F.reshape(2, -1, npy))
        acc = self._scratch("moments", nx, 2 * npy)
        acc[:] = 0.0
        min_denom = np.inf
        for pts, cols, bar_cols in ctx.strips:
            n_pts = pts.stop - pts.start
            rows = self._scratch("rows", n_rows, n_pts, 2 * npy)
            r = 0
            for l, k0, k1 in groups:
                np.matmul(fx.sig[k0:k1, pts, cols], E[l, cols], out=rows[r: r + k1 - k0])
                r += k1 - k0
            # s-derivatives of the auxiliary fields, then t-derivatives
            np.matmul(fx.bar[1, pts, bar_cols], F[0, :, bar_cols],
                      out=rows[r: r + n_aux])
            np.matmul(fx.bar[0, pts, bar_cols], F[1, :, bar_cols],
                      out=rows[r + n_aux:])
            Z = self._scratch("Z", len(combo), n_pts, 2, npy)
            np.matmul(combo, rows.reshape(n_rows, -1), out=Z.reshape(len(combo), -1))
            g = ctx.metric[:, pts]
            U = self._scratch("U", n_pts, 2, npy)
            np.sum(np.multiply(Z[0], Z[1], out=U), axis=1, out=g[2])
            np.sum(np.square(Z[:2], out=Z[:2]), axis=2, out=g[:2])
            denom = np.add(g[0], g[1], out=g[3])
            denom += self.mu
            min_denom = min(min_denom, float(denom.min()))
            np.divide(ctx.wgrid[pts], denom, out=denom)
            # U = (g11 Y11 + g22 Y22 + g12 Y12) w / (g11 + g22 + mu)
            np.sum(np.multiply(g[:3, :, None], Z[2:], out=Z[2:]), axis=0, out=U)
            U *= denom[:, None]
            moments = self._scratch("strip_moments", cols.stop - cols.start, 2 * npy)
            np.matmul(fx.sig[0, pts, cols].T, U.reshape(n_pts, -1), out=moments)
            acc[cols] += moments
        return (acc.reshape(-1, npy) @ fy.sig[0]).reshape(nx, 2, ny), min_denom

    def eval_RN(self, d, c):
        """Nonlinear residual: moments of the scaled operator against every
        inner primal basis function, components stacked (x..., y...).

        Sum factorisation by strips (:meth:`_strip_pass`): on each patch the
        eta direction is contracted on the coefficients, then the xi Gauss
        points are walked in strips of whole spans, and the moments against
        the test functions are Bx.T @ (w U) @ By, xi strip by strip and
        then eta. The metric of every Gauss point stays in the patch
        contexts, tagged with this iterate, for :meth:`frozen_laplacian`."""
        t0 = time.perf_counter()
        net = self.full_control_net(c).ravel()
        d = np.asarray(d, dtype=float).ravel()
        n_res = 2 * self.n_inner
        res = np.zeros(n_res + 1)
        min_denom = np.inf
        # a call that fails part way leaves no tag on a half-written metric
        self._metric_net = None
        for ctx in self.patches:
            moments, patch_min = self._strip_pass(ctx, net, d)
            min_denom = min(min_denom, patch_min)
            res += np.bincount(ctx.out_idx.ravel(), weights=moments.ravel(),
                               minlength=n_res + 1)
        self._metric_net = net
        self.rn_eval_count += 1
        self.rn_eval_s += time.perf_counter() - t0
        self.last_min_denominator = min_denom
        return res[:n_res]

    # -- Schur preconditioner ------------------------------------------------

    @functools.cached_property
    def _laplacian_factors(self):
        """Pair factors of every patch (:func:`_pair_factors`, the xi factors
        of the pairs i <= j block-diagonal in the order of ``PAIRINGS``, the
        eta factors side by side), its :func:`_patch_metric_map` and the
        band layout (:func:`_band_layout`) of the inner primal couplings,
        built on first use.

        The couplings of a patch are S_xi x S_eta: functions (i1, i2) and
        (j1, j2) share an element exactly when (i1, j1) is in S_xi and
        (i2, j2) in S_eta. K is symmetric, so one of a coupling and its
        mirror is enough, and the xi pairs i1 <= j1 meet every coupling:
        those with i1 < j1 once, as itself or as its mirror, and those with
        i1 = j1 twice, once with i2 <= j2 and once, with i2 > j2, as the
        mirror, which is dropped. ``places`` holds the place in K's lower
        band storage of every patch entry, laid out as the (|S_eta|, (|S_xi|
        + n_xi) / 2) products of :meth:`frozen_laplacian` patch after
        patch; a dropped entry, or one in a boundary row or column, takes
        the slot past the band. ``twice`` lists the kept entries of two
        distinct functions on K's diagonal: a patch glued to itself across a
        single span joins two functions of one span, and K takes both such
        an entry and its mirror."""
        n = self.n_inner
        inner_of = np.full(self.topology.n_sigma, -1)
        inner_of[self.topology.inner_indices] = np.arange(n)
        xs, ys, rows, cols, twice = [], [], [], [], []
        offset = 0
        # patch directions share their DirectionFactors, and so their pair
        # factors: one _pair_factors call per (factor object, orders, half)
        memo = {}

        def pair_factors(f, orders, half):
            key = (id(f), orders, half)
            if key not in memo:
                memo[key] = _pair_factors(f, orders, half)
            return memo[key]

        x_orders = tuple((1 - a, 1 - b) for a, b in PAIRINGS)
        for i, ctx in enumerate(self.patches):
            px, fx = pair_factors(ctx.cache.xi, x_orders, half=True)
            py, fy = pair_factors(ctx.cache.eta, PAIRINGS, half=False)
            xs.append(fx)
            ys.append(fy)
            n_eta = ctx.cache.eta.sig.shape[-1]
            first, second = (px[:, k] * n_eta + py[:, None, k] for k in (0, 1))
            loc = inner_of[self.topology.sig_l2g[i]]
            col = loc[second]
            mirror = (px[:, 0] == px[:, 1]) & (py[:, None, 0] > py[:, None, 1])
            row = np.where(mirror | (col < 0), -1, loc[first])
            rows.append(row.ravel())
            cols.append(col.ravel())
            twice.append(offset + np.flatnonzero((row == col) & (row >= 0)
                                                 & (first != second)))
            offset += row.size
        order, bandwidth, places = _band_layout(np.concatenate(rows),
                                                np.concatenate(cols), n)
        return _LaplacianFactors(
            x=xs, y=ys,
            metric_maps=[_patch_metric_map(ctx.inv_a, self.mu) for ctx in self.patches],
            order=order, bandwidth=bandwidth, places=places,
            twice=np.concatenate(twice))

    def frozen_laplacian(self, c):
        """Frozen-metric Laplacian on the inner primal basis at the iterate c:
        K_ij = int grad(w_i)^T Q grad(w_j) / (g11 + g22 + mu), gradients in
        (xi, eta), with Q = [[g22 + mu/2, -g12], [-g12, g11 + mu/2]].

        -K is the principal part of the Schur operator with the metric frozen
        (integrate the numerator of R_N by parts). The mu/2 shift makes Q
        positive definite at every point, det Q >= mu/2 (g11 + g22) + mu^2/4,
        so K is SPD even on folded iterates. The metric is the one the last
        :meth:`eval_RN` left in the patch contexts when that call was at c,
        as it is inside every Newton step; otherwise the residual's
        :meth:`_strip_pass` computes it, at zero auxiliary coefficients (the
        metric does not depend on them). In the patch coordinates the
        scaled Q is M = ia Q ia^T (the patch map is affine), and the patch
        matrix is the sum over the pairings (a, b) of X_ab^T M_ab Y_ab,
        products of the pair factors of :meth:`_laplacian_factors` on the
        xi pairs i <= j, summed by one ``bincount`` straight into the lower
        band storage. Returns K's lower band ``ab`` in the band order
        ``_laplacian_factors.order``, Fortran-ordered (bandwidth + 1, n),
        ``ab[d, k]`` the entry of band rows k + d and k (zero past the last
        row)."""
        lf = self._laplacian_factors
        net = self.full_control_net(c).ravel()
        if not np.array_equal(net, self._metric_net):
            self._metric_net = None
            d = np.zeros(self.d_size)
            for ctx in self.patches:
                self._strip_pass(ctx, net, d)
            self._metric_net = net
        entries = []
        for ctx, fx, fy, to_m in zip(self.patches, lf.x, lf.y, lf.metric_maps):
            npx, npy = ctx.wgrid.shape
            g = ctx.metric.reshape(4, -1)
            # M takes the scratch of the residual's raw rows, idle here
            M = np.matmul(to_m[:, :3], g[:3], out=self._scratch("rows", 4, npx * npy))
            M += to_m[:, 3:]
            M *= g[3]
            # (4 (|S_xi| + n_xi) / 2, n_eta points): X_ab^T M_ab per pairing
            Z = fx @ M.reshape(len(PAIRINGS) * npx, npy)
            Z = Z.reshape(len(PAIRINGS), -1, npy).transpose(0, 2, 1)
            entries.append((fy @ Z.reshape(len(PAIRINGS) * npy, -1)).ravel())
        entries = np.concatenate(entries)
        n, width = self.n_inner, lf.bandwidth + 1
        # the last slot takes the dropped entries
        band = np.bincount(lf.places, weights=entries, minlength=width * n + 1)
        np.add.at(band, lf.places[lf.twice], entries[lf.twice])
        return band[:-1].reshape(n, width).T

    def laplace_preconditioner(self, c):
        """P^-1 for the Schur operator at the iterate c, with P = -K on each
        component: the lower band of K from :meth:`frozen_laplacian`, SPD,
        factored in place by one banded Cholesky; both components are
        solved as two columns of one banded solve in the band order of
        :meth:`_laplacian_factors`. Returns a callable taking and returning
        vectors in the (x..., y...) layout. Raises FactorizationError when
        K is not SPD."""
        chol = Banded1DCholesky(self.frozen_laplacian(c))
        n, order = self.n_inner, self._laplacian_factors.order

        def apply(y):
            z = chol.solve(np.reshape(y, (2, n))[:, order].T, overwrite=True)
            out = np.empty((2, n))
            out[:, order] = z.T
            return np.negative(out, out=out).ravel()
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
        ``tilde`` (one row per field, at most ``n_fields`` rows), all fields
        batched, by the static condensation of :meth:`_build_mass`.

        Per patch, the interior moments b_I of every field are solved by one
        batched Kronecker solve, z_I = M_II^-1 b_I (two dense products with
        the univariate inverses), and M_GammaI z_I = (Gxi (x) Geta)^T b_I is
        taken on the face DOFs alone, by contractions with the glued columns
        of Gxi and Geta. The interface moments of all fields are summed by
        one ``bincount``, one dense Cholesky solve on Gamma gives the
        interface values y, and the back-substitution x_I = z_I - (Gxi (x)
        Geta) y is one low-rank product per patch, scattered with the
        interior values in one assignment per patch. A patch without glued
        faces skips the face work, so with no shared DOFs (a single patch)
        this is the plain Kronecker solve. The name is that of the
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
            n_gamma = len(self._gamma)
            rhs = np.bincount(self._face_bins[:k].ravel(),
                              weights=np.concatenate(faces, axis=1).ravel(),
                              minlength=k * n_gamma).reshape(k, n_gamma)
            y = scipy.linalg.cho_solve(self._gamma_factor, rhs.T, check_finite=False).T
            out[:, self._gamma] = y
            for ctx, x in zip(self.patches, interiors):
                if not ctx.face_dofs.size:
                    continue
                sy = ctx.inner[1]
                (n_xi, n_rows), (n_eta, n_cols) = ctx.gx.shape, ctx.gy.shape
                split = n_rows * (n_eta + n_cols)
                y_face = y[:, ctx.face_dofs]
                y_rows = y_face[:, :split].reshape(k, n_rows, n_eta + n_cols)
                # (Gxi (x) Geta) y on the range is gx Y_rows Geta^T + Y_cols
                # gy^T (the glued rows through both factors, the glued
                # columns inside the range through Geta): one batched
                # product [gx | Y_cols] [Y_rows Geta^T ; gy^T] of rank
                # n_rows + n_cols, its factors written into reused buffers
                left = self._scratch("mass_left", k, n_xi, n_rows + n_cols)
                left[:, :, :n_rows] = ctx.gx
                left[:, :, n_rows:] = y_face[:, split:].reshape(k, n_xi, n_cols)
                right = self._scratch("mass_right", k, n_rows + n_cols, n_eta)
                np.matmul(y_rows[:, :, ctx.cols], ctx.gy.T, out=right[:, :n_rows])
                right[:, :n_rows] += y_rows[:, :, sy]
                right[:, n_rows:] = ctx.gy.T
                x -= left @ right
        flat = out.reshape(-1)
        for ctx, x in zip(self.patches, interiors):
            flat[ctx.inner_out[:k]] = x.reshape(k, -1)
        return out

    def ainv_exact(self, tilde):
        """Exact coupled A^-1 applied to union moments, all fields in one
        call: the one mass solve, by static condensation onto the interface
        DOFs (:meth:`_mass_pcg`)."""
        t0 = time.perf_counter()
        out = self._mass_pcg(np.atleast_2d(tilde))
        self.mass_solve_s += time.perf_counter() - t0
        return out

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

