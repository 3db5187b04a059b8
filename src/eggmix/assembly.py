"""Galerkin assembly of the mixed first-order system, by sum factorisation:
each patch's Gauss points form a tensor grid, so every block is applied
patch by patch as products of univariate factors, and no global operator is
assembled. Fields and derivatives of the nonlinear residual are ``Bx @ C @
By.T`` with univariate collocation factors, and its moments against the test
functions ``Bx.T @ (w U) @ By``. The residual contracts the eta direction
first, on the coefficients, and then walks the xi Gauss points in strips of
whole spans sized to the cache (``STRIP_BYTES``): each strip multiplies only
the band of xi factor columns active on its spans, so its share of the xi
contractions and all of its pointwise work stay on strip-sized arrays. Grid
arrays are component-major, (component, xi point, eta point), so that the
metric g11, g22, g12 and the pointwise residual are sums of products of
whole planes. The strips leave the metric of every Gauss point behind,
tagged with its iterate, and the frozen-metric Laplacian takes it from
there. The constant blocks are separable: a patch's auxiliary mass moments
are ``vol Mxi D Meta.T``, its derivative moments ``vol (ia[0, d] Kxi C
Oeta.T + ia[1, d] Oxi C Keta.T)``, with dense univariate integral factors.
Every univariate factor of a patch direction, collocation and integral
alike, comes from one B-spline table per knot vector (primal and
auxiliary) on that direction's Gauss grid, made by :func:`build_quadrature`
once per distinct knot vector of the system: patch directions with the same
knots share one read-only :class:`DirectionFactors`. The coupled auxiliary
mass is solved exactly by static condensation onto the auxiliary DOFs that
patches share (Kronecker solves on each patch's remaining tensor range, as
two dense products with the univariate inverses, and one dense Cholesky
factor on the shared DOFs, solved by LAPACK ``potrs``). The frozen-metric
Laplacian that preconditions the Schur GMRES is sum-factorised span by
span: dense tables of univariate function-pair products per cell of
auxiliary spans, of the xi pairs i <= j alone since it is symmetric, are
contracted with the metric in batched dense products, one direction at a
time, each followed by one sparse sum that merges the cells onto the
coupled pairs that meet an inner DOF; the entries go straight into K's
lower band storage, in a bandwidth-reducing order fixed once per system,
and are factored there by banded Cholesky. A single patch is a 1-patch
topology on the same code path.

The per-iterate kernels, the residual pass and the derivative moments, run
on plans built on first use (:meth:`MixedSystem._plans`): per patch and
strip the views of the factor blocks, the gather and scatter positions, and
every ``out=`` view into scratch arrays that all patches and kernels share,
so that a call sets nothing up and allocates no grid-sized array. The mass
solve is one object built with the system (:class:`_CondensedMass`), its
factors, positions and work arrays its own. The frozen Laplacian's tables,
summing matrices and band layout are built on its first use
(:meth:`MixedSystem._laplacian_factors`), inside the first Newton step,
and it works in the shared scratch, idle in the other kernels while it
runs. Every kernel returns a fresh array, never a view of the scratch or
of the work arrays.

Each of these one-time tables is built once per system, in one pass and
with as few numpy and scipy calls as its layout allows: the plans size
every scratch array before they take a view of it, a direction's cell
length is found when its factors are made, and small index keys are
sorted in the narrowest integer type that holds them. At the benchmark's
sizes this set-up is call overhead, not arithmetic.
"""
from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
from scipy import sparse
from scipy.sparse import csgraph

from .errors import CornerMismatchError, InputError, ModeError
from .linalg import Banded1DCholesky, DenseCholesky, KronSolver
from .multipatch import PatchTopology, single_patch_topology
from .settings import DEFAULTS, check_settings
from .splines import KnotVector, TensorBasis


def _spans_per_cell(first_sig):
    """The spans of one cell of the frozen Laplacian's pair tables: the gcd
    of the lengths of the runs of equal ``first_sig``, which is that of the
    positions where a run starts and of the span count."""
    starts = np.flatnonzero(first_sig[1:] != first_sig[:-1]) + 1
    return int(np.gcd.reduce(starts, initial=len(first_sig)))


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

    ``cell`` is the number of consecutive spans in one cell of the frozen
    Laplacian's pair tables (:meth:`cell_shape`), set from ``first_sig``
    once, when the instance is made (:func:`_spans_per_cell`).

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
    cell: int = field(init=False)

    def __post_init__(self):
        for value in vars(self).values():
            if isinstance(value, np.ndarray):
                value.flags.writeable = False
        object.__setattr__(self, "cell", _spans_per_cell(self.first_sig))

    @property
    def n_spans(self) -> int:
        return len(self.first_sig)

    def cell_shape(self, half: bool):
        """(n_cells, n_local, points per cell) of the pair tables of this
        direction (:func:`_span_tables`): a cell is k = ``cell`` consecutive
        spans, the gcd of the lengths of the runs of equal ``first_sig``, so
        that every cell lies in one run and holds k nq points. With ``half``
        the local pairs are those a <= b. Arithmetic on the fields alone."""
        width = self.tab_sig.shape[-1]
        return (self.n_spans // self.cell,
                width * (width + 1) // 2 if half else width * width, self.cell * self.nq)


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
    auxiliary mass exactly. Span integrals are batched products of the
    padded tables, and one ``bincount`` scatters all three integral
    factors, each onto its own range of bins."""
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
    n_bar, n_sig = kv_bar.dim, kv_sig.dim
    # (n_es, p_bar + 1, nq) weighted test functions of every span
    w_tb = np.swapaxes(wts.reshape(n_es, nq, 1) * tab_b[:, :, 0], 1, 2)
    rows = first_b[:, None, None] + np.arange(kv_bar.degree + 1)[:, None]
    # the bins of mbar, then of obar, then of kbar
    to_bar = rows * n_bar + rows.transpose(0, 2, 1)
    to_sig = rows * n_sig + (first_s[:, None, None] + np.arange(kv_sig.degree + 1)
                             + n_bar * n_bar)
    size = n_bar * n_sig
    local = (w_tb @ tab_b[:, :, 0], w_tb @ tab_s[:, :, 0], w_tb @ tab_s[:, :, 1])
    bins = np.concatenate([to_bar.ravel(), to_sig.ravel(), (to_sig + size).ravel()])
    flat = np.bincount(bins, weights=np.concatenate([v.ravel() for v in local]),
                       minlength=n_bar * n_bar + 2 * size)
    obar_kbar = flat[n_bar * n_bar:].reshape(2, n_bar, n_sig)
    return DirectionFactors(
        nq=nq, points=pts, weights=wts,
        first_sig=first_s, tab_sig=tab_s, first_bar=first_b, tab_bar=tab_b,
        sig=sig, bar=bar, mbar=flat[:n_bar * n_bar].reshape(n_bar, n_bar),
        obar=obar_kbar[0], kbar=obar_kbar[1])


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
    bounds = [k * n // n_strips for k in range(n_strips + 1)]
    first_sig, first_bar = f.first_sig.tolist(), f.first_bar.tolist()

    def band(first, a, b, width):
        return slice(min(first[a:b]), max(first[a:b]) + width)
    return [(slice(a * f.nq, b * f.nq), band(first_sig, a, b, f.tab_sig.shape[-1]),
             band(first_bar, a, b, f.tab_bar.shape[-1]))
            for a, b in zip(bounds[:-1], bounds[1:])]


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
    # Python floats: the same double arithmetic as numpy's scalars, faster
    (a00, a01), (a10, a11) = np.asarray(ia, dtype=float).tolist()
    d_xi = {(1, 0): a00, (0, 1): a10}
    d_eta = {(1, 0): a01, (0, 1): a11}

    def prod(p, q):
        out = {}
        for (k1, l1), a in p.items():
            for (k2, l2), b in q.items():
                out[k1 + k2, l1 + l2] = out.get((k1 + k2, l1 + l2), 0.0) + a * b
        return out

    def row(*terms):
        """Sum of scale * op(field) over (scale, field, op) terms."""
        r = [0.0] * len(labels)
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


class _SpanTables(NamedTuple):
    """Pair tables of one direction of a patch for the frozen Laplacian, per
    cell: a run of ``k`` consecutive auxiliary spans that share their p + 1
    active primal functions (:func:`_span_tables`)."""
    first: np.ndarray       # (n_cells,) first active primal function of each cell
    pairs: np.ndarray       # (2, n_local) local functions (a, b) of each local pair
    width: int              # p + 1 active functions per cell
    keys: np.ndarray        # (n_local,) key of each local pair, see _local_pairs
    table: np.ndarray       # (4, n_cells, n_local, k nq), pairings as PAIRINGS


@functools.lru_cache(maxsize=None)
def _local_pairs(width: int, half: bool):
    """The local pairs (a, b) of a cell with ``width`` active functions, a
    <= b with ``half``, as a (2, n_local) array; for each pairing the
    positions r width + a and s width + b of its two factors in a span
    table row flattened over (derivative order, function), as (4,
    n_local) arrays: (r, s) = (1 - a, 1 - b) for the pairing (a, b) with
    ``half``, for the xi factor, otherwise (a, b); and the key a (2 width -
    1) + b - a + width - 1 of each local pair (:func:`_coupled_pairs`).
    Computed once per argument pair; the arrays are read-only."""
    a, b = np.indices((width, width)).reshape(2, -1)
    r, s = np.array(PAIRINGS).T[:, :, None]
    if half:
        a, b, r, s = a[a <= b], b[a <= b], 1 - r, 1 - s
    out = (np.stack([a, b]), r * width + a, s * width + b,
           a * (2 * width - 1) + b - a + width - 1)
    for value in out:
        value.flags.writeable = False
    return out


def _span_tables(f: DirectionFactors, half: bool) -> _SpanTables:
    """Pair tables of the direction ``f`` for the frozen Laplacian, straight
    from its span table ``tab_sig``: ``table[o, c, h, m]`` is the product
    d^k w_a(x_m) d^l w_b(x_m) of the local pair h = (a, b) at point m of
    cell c, (k, l) the derivative orders of pairing o in this direction.

    The auxiliary spans of a primal span share its p + 1 active functions,
    so every cell (:meth:`DirectionFactors.cell_shape`; the auxiliary spans
    of one primal span on the bisected auxiliary basis of a system) has one
    set of them. With ``half``, for the xi factor (orders (1 - a, 1 - b) of
    each pairing (a, b)), the local pairs are the (p + 1)(p + 2) / 2 with a
    <= b (:func:`_local_pairs`); otherwise, for the eta factor (orders (a,
    b)), all (p + 1)^2. The products are written in the table's own order."""
    n_cells, n_local, kq = f.cell_shape(half)
    width = f.tab_sig.shape[-1]
    pairs, first, second, keys = _local_pairs(width, half)
    tab = f.tab_sig.reshape(n_cells, kq, -1)
    table = np.empty((len(PAIRINGS), n_cells, n_local, kq))
    np.multiply(tab.take(first, axis=2), tab.take(second, axis=2),
                out=table.transpose(1, 3, 0, 2))
    return _SpanTables(first=f.first_sig[::f.cell], pairs=pairs, width=width, keys=keys,
                       table=table)


def _coupled_pairs(t: _SpanTables, dim, live, blocks=1):
    """The coupled pairs (i, j) of one direction that join two functions
    with ``live`` set, the functions of its grid lines that hold an inner
    DOF, as a (2, n_pairs) array in the order of (i, j), and the CSR matrix
    (n_pairs, blocks n_cols) whose product sums the rows of the right
    operand onto the pairs: column c of block o (of ``blocks`` side by
    side) is local pair c % n_local of cell c // n_local of ``t``, each row
    takes its columns in ascending order, and a pair that is left out has
    no row. A pair left out meets no inner DOF on one side, so every
    coupling it carries lies in a boundary row or column of K.

    One stable argsort of the pair keys of every column gives both: the
    distinct keys in order, and the columns of each pair in order. The two
    functions of a pair lie within p of each other, so the key i (2p + 1) +
    j - i + p orders the pairs as (i, j) does, and it fits the narrowest
    unsigned integer that holds dim (2p + 1): numpy sorts those of 16 bits
    or fewer by radix."""
    span = 2 * t.width - 1
    keys = np.empty((blocks, len(t.first), len(t.keys)),
                    dtype=np.min_scalar_type(max(dim, 1) * span))
    np.add(span * t.first[:, None], t.keys, out=keys, casting="unsafe")
    keys = keys.ravel()
    cols = np.argsort(keys, kind="stable")
    keys = keys[cols]
    start = np.empty(len(keys), dtype=bool)
    start[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=start[1:])
    i, j = np.divmod(keys[start], span, dtype=np.intp)
    j += i
    j -= t.width - 1
    pairs = np.stack([i, j])
    kept = np.logical_and(*live[pairs])
    # the columns of the pairs kept, and where each pair's run starts
    take = kept[np.cumsum(start) - 1]
    indptr = np.flatnonzero(np.append(start[take], True)).astype(np.int32)
    summing = sparse.csr_matrix((np.ones(indptr[-1]), cols[take].astype(np.int32), indptr),
                                shape=(len(indptr) - 1, len(keys)))
    return pairs[:, kept], summing


def _patch_metric_map(ia, mu):
    """(3, 4) matrix taking (g11, g22, g12, 1) at a Gauss point to the
    entries (M_ss, M_st, M_tt) of M = ia Q ia^T in the patch coordinates,
    with Q = [[g22 + mu/2, -g12], [-g12, g11 + mu/2]] the metric of the
    frozen Laplacian in (xi, eta) and ``ia`` the inverse Jacobian of the
    affine patch map (grad_(xi, eta) = ia^T grad_(s, t)). M is symmetric, so
    M_ts is M_st, bitwise: its row would take the same products in the
    other order."""
    ia = np.asarray(ia, dtype=float).tolist()
    # the coefficients of Q11, Q12 and Q22 in each row, in Python floats:
    # the same double arithmetic as numpy's scalars, faster
    rows = [(ia[a][0] * ia[b][0], ia[a][0] * ia[b][1] + ia[a][1] * ia[b][0],
             ia[a][1] * ia[b][1]) for a, b in ((0, 0), (0, 1), (1, 1))]
    return np.array([[q22, q11, -q12, 0.5 * mu * (q11 + q22)] for q11, q12, q22 in rows])


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
    keep = np.flatnonzero(rows >= 0)
    # RCM breaks ties in the order of a row's columns: a sorted pattern
    # without duplicates, both triangles, as (data, indices, indptr). The
    # keys r n + s sort fastest in the narrowest integer that holds them
    index = np.int32 if n * n <= np.iinfo(np.int32).max else np.int64
    r, s = rows.take(keep).astype(index), cols.take(keep).astype(index)
    m = len(r)
    keys = np.empty(2 * m, dtype=index)
    for out, (u, v) in zip((keys[:m], keys[m:]), ((r, s), (s, r))):
        np.multiply(u, n, out=out)
        out += v
    keys.sort()
    distinct = np.empty(len(keys), dtype=bool)
    distinct[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=distinct[1:])
    keys = keys[distinct]
    indptr = np.searchsorted(keys, np.arange(n + 1) * n)
    # the column of a key is the key less its row's first key
    keys -= np.repeat(np.arange(n, dtype=keys.dtype) * n, np.diff(indptr))
    graph = sparse.csr_matrix((np.ones(len(keys), dtype=np.int8),
                               keys.astype(np.int32, copy=False), indptr.astype(np.int32)),
                              shape=(n, n))
    del keys
    # the natural order's ranks are the unknowns themselves
    order, lo, hi = np.arange(n), np.minimum(r, s), np.maximum(r, s)
    bandwidth = int((hi - lo).max(initial=0))
    # csgraph has no ordering of an empty graph
    if n:
        rcm = csgraph.reverse_cuthill_mckee(graph, symmetric_mode=True)
        rank = np.empty(n, dtype=index)
        rank[rcm] = np.arange(n)
        ranked = rank[r], rank[s]
        width = int(np.abs(ranked[0] - ranked[1]).max(initial=0))
        if width < bandwidth:
            order, bandwidth = rcm, width
            lo, hi = np.minimum(*ranked), np.maximum(*ranked)
    places = np.full(len(rows), (bandwidth + 1) * n)
    places[keep] = lo * bandwidth + hi
    return order, bandwidth, places


@dataclass
class _LaplacianPatch:
    """The frozen Laplacian of one patch (:meth:`MixedSystem._laplacian_factors`):
    its pair tables, its metric map, the summing matrices of its xi and eta
    cells and views of the system's shared scratch
    (:meth:`MixedSystem._laplacian_sizes`). ``M`` holds the three metric
    planes, span-major like the metric, and ``W`` the products of the eta
    stage, in the same memory; ``Z`` the products of the xi stage, ``Zt``
    the same array with the pairings first."""
    x: _SpanTables
    y: _SpanTables
    to_m: np.ndarray        # (3, 4) _patch_metric_map
    sum_x: sparse.csr_matrix    # (n_rx, n_cells_xi n_local_xi)
    sum_y: sparse.csr_matrix    # (n_ry, 4 n_cells_eta n_local_eta), pairings side by side
    M: np.ndarray           # (3, npx npy)
    M_cells: np.ndarray     # M as (3, n_cells_xi, k nq, npy)
    Z: np.ndarray           # (n_cells_xi n_local_xi, 4 npy)
    Zt: np.ndarray          # Z as (4, n_cells_xi, n_local_xi, npy)
    W: np.ndarray           # (4, n_cells_eta, n_local_eta, n_rx)
    shape: tuple            # (n_rx, 4, n_cells_eta, k nq) of the merged xi products


@dataclass
class _LaplacianFactors:
    """Per-patch tables and the band layout of the frozen Laplacian, see
    :meth:`MixedSystem._laplacian_factors`."""
    patches: list           # one _LaplacianPatch per patch
    order: np.ndarray       # (n_inner,) inner index of every band row
    bandwidth: int
    places: np.ndarray      # band place of each patch entry, (bandwidth + 1) n if dropped
    twice: np.ndarray       # entries that K also takes as their own mirror


@dataclass
class _PatchContext:
    """Per-patch data of the kernels. Grid arrays are component-major,
    indexed (component, xi Gauss point, eta Gauss point), or (xi Gauss
    point, eta Gauss point) for scalars, so that the metric and the
    residual's pointwise values are sums of products of whole planes.
    Coefficient arrays are indexed (component or field, xi function, eta
    function), like the flat control net (component after component, see
    :meth:`MixedSystem._flat_net`) and the flat auxiliary coefficients
    (field after field).

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

    ``kron`` is the Kronecker solver of the patch's interior auxiliary
    range, made and used by :class:`_CondensedMass`; the per-layer counts
    of ``perfbench/layers.py`` read its ``solve_count`` here."""
    cache: QuadratureCache
    inv_a: np.ndarray
    vol: float
    wgrid: np.ndarray          # (n_xi points, n_eta points) vol * w_xi (x) w_eta
    sig_idx: np.ndarray        # (2, n_xi, n_eta) positions in the flat control net
    bar_idx: np.ndarray        # (n_fields, nbar_xi, nbar_eta) positions in flat d
    combo: np.ndarray          # _residual_combination of the patch
    strips: list               # _strip_layout of the xi direction
    metric: np.ndarray         # (4, n_xi points, n_eta points) g11, g22, g12, w / denom
    left: np.ndarray           # (n_dir, nbar_xi, 2 n_xi), see _derivative_moments
    right: np.ndarray          # (n_eta, 2 nbar_eta) [Oeta^T | Keta^T]
    mass: tuple                # (vol Mxi, Meta)
    kron: KronSolver = field(init=False)


@dataclass
class _StripPlan:
    """The operands of one strip of :meth:`MixedSystem._strip_pass`, fixed
    on first use: views of the strip's xi factor blocks, of the system's
    shared scratch and of the patch's metric and weights, every ``out=`` of
    the pass among them. (Contiguous copies of the factor blocks measured no
    faster, and took 6.9 MB at bat L3.)

    ``products`` are the xi products (factor, operand, out) into the raw
    rows: one per primal jet group, the factor ``xi.sig[k0:k1]`` on the
    strip's block with a broadcast component axis and the operand that
    group's eta-contracted coefficients on the strip's columns, and one for
    the auxiliary fields, s-derivatives then t-derivatives. ``test`` is
    ``xi.sig[0]`` on the strip's block, transposed, and ``acc`` the strip's
    columns of the patch's moment accumulator."""
    products: list
    rows: np.ndarray        # (n_rows, 2 n_pts npy) raw rows
    Z: np.ndarray           # (5, 2 n_pts npy) combo @ rows
    # Z as (5, 2, n_pts, npy): [0], [1], [:2], [:2, 0], [:2, 1], [2:], [2], [3], [4]
    z: tuple
    # the metric on the strip, (4, n_pts, npy): [0], [1], [2], [3], [:2], [:3, None]
    g: tuple
    weights: np.ndarray     # (n_pts, npy) strip of wgrid
    U: tuple                # (2, n_pts, npy) and its two planes
    test: np.ndarray        # (n_cols, n_pts)
    moments: np.ndarray     # (2, n_cols, npy)
    acc: np.ndarray         # (2, n_cols, npy) view of the accumulator


@dataclass
class _PatchPlan:
    """The residual pass and the derivative moments of one patch, fixed on
    first use (:meth:`MixedSystem._plans`): the gather positions, the
    transposed eta factors, the views of the shared scratch
    that hold the gathered and eta-contracted coefficients and the xi
    moments, the patch's segment of the residual moments of all patches,
    and one :class:`_StripPlan` per strip. ``derivatives`` is the scratch
    of :meth:`MixedSystem._derivative_moments` (its products C [Oeta^T |
    Keta^T], as they are and as the right operand of the left factor, and
    the left factor with a broadcast component axis)."""
    ctx: _PatchContext
    sig_take: np.ndarray    # (2 n_xi, n_eta) sig_idx
    bar_take: np.ndarray    # (n_fields nbar_xi, nbar_eta) bar_idx
    C: np.ndarray           # (2 n_xi, n_eta) gathered control net
    E: np.ndarray           # (n_groups, 2 n_xi, npy) C @ eta.sig[l].T
    eta_sig: np.ndarray     # (n_groups, n_eta, npy)
    F: np.ndarray           # (2, n_fields nbar_xi, npy) D @ eta.bar[l].T
    eta_bar: np.ndarray     # (2, nbar_eta, npy)
    acc: np.ndarray         # (2 n_xi, npy) xi moments
    eta_test: np.ndarray    # (npy, n_eta) eta.sig[0]
    out: np.ndarray         # (2 n_xi, n_eta) segment of the moments of all patches
    strips: list
    derivatives: tuple


class _Plans(NamedTuple):
    """The plans of the per-iterate kernels of a system
    (:meth:`MixedSystem._plans`)."""
    patches: list           # one _PatchPlan per patch
    moments: np.ndarray     # residual moments of all patches, laid out as _rn_bins


def _glued_lines(n, faces, unglued):
    """Slices of the glued grid lines of one direction of an auxiliary basis
    with ``n`` functions, ``faces`` its (first, last) face names, and of the
    other lines. Glued lines are first and/or last, so both are slices;
    first and last together are the stride n - 1."""
    first, last = (face not in unglued for face in faces)
    glued = {(True, True): slice(0, n, n - 1), (True, False): slice(0, 1),
             (False, True): slice(n - 1, n), (False, False): slice(0, 0)}
    return glued[first, last], slice(int(first), n - int(last))


@dataclass
class _MassPatch:
    """The condensed mass solve of one patch (:class:`_CondensedMass`). The
    auxiliary DOFs of its glued faces lie on the lines ``rows`` (xi index)
    and ``cols`` (eta index); the others form the tensor range sx x sy,
    whose mass vol Mxi[sx, sx] (x) Meta[sy, sy] ``kron`` solves. ``b`` is the
    patch's segment of the interior moments of all patches, overwritten by
    its interior values. The face fields are None on a patch without glued
    faces: ``corr`` and ``y`` are the views, on the face blocks rows x sy,
    rows x cols and sx x cols, of the patch's segments of M_GammaI z_I and
    of the interface values; gx holds the columns ``rows`` of Gxi = Mxi[sx,
    sx]^-1 Mxi[sx, :] and gy those of Geta; ``left`` = [gx | Y_cols] holds
    gx for good and ``right`` = [Y_rows Geta^T ; gy^T] holds gy^T, and
    ``update`` takes their product."""
    kron: KronSolver
    b: np.ndarray                 # (n_fields, |sx| |sy|)
    b3: np.ndarray                # b as (n_fields, |sx|, |sy|)
    # the patch's columns of the union moments, as (nbar_xi, nbar_eta)
    # blocks of every field, and the range sx x sy in them
    block: tuple
    gx_t: np.ndarray = None       # (|rows|, |sx|)
    gy: np.ndarray = None         # (|sy|, |cols|)
    gy_t: np.ndarray = None       # (|cols|, |sy|)
    corr: tuple = None
    y: tuple = None
    left: np.ndarray = None       # (n_fields, |sx|, |rows| + |cols|)
    left_y: np.ndarray = None     # its Y_cols columns
    right: np.ndarray = None      # (n_fields, |rows| + |cols|, |sy|)
    right_y: np.ndarray = None    # its Y_rows Geta^T rows
    update: np.ndarray = None     # (n_fields, |sx|, |sy|)


class _CondensedMass:
    """The exact coupled auxiliary mass solve, built once with the system:
    static condensation of the mass A onto Gamma, the auxiliary DOFs shared
    by more than one patch (Smith, Bjorstad & Gropp, Domain Decomposition,
    CUP 1996, ch. 4).

    The shared DOFs of a patch are those of its glued faces, so the others
    form a tensor range sx x sy, whose block vol Mxi[sx, sx] (x) Meta[sy, sy]
    is solved by the dense inverses of its univariate factors (``kron``);
    the same inverses give Gxi = Mxi[sx, sx]^-1 Mxi[sx, :] and Geta. As
    M[:, I] M[I, I]^-1 M[I, :] = vol Pxi (x) Peta with Pxi = Mxi[:, sx] Gxi,
    the interface Schur complement sums vol (Mxi (x) Meta - Pxi (x) Peta)
    over patches. Pxi differs from Mxi only on the glued lines, by the
    univariate Schur complement Dxi, so each term is vol (Dxi (x) Meta + Mxi
    (x) Deta - Dxi (x) Deta), formed on the face DOFs alone in
    O(n_Gamma^2). The sum is dense in n_Gamma and factored once by dense
    Cholesky (``factor``, None when no DOF is shared).

    The object holds one :class:`_MassPatch` per patch and its own work
    arrays: the moments and values of all patches in flat arrays, patch
    after patch and field after field within a patch. ``face_take`` gathers
    the face moments from the flat union moments, ``face_bins`` sums them
    onto the interface, and ``interior_put`` and ``gamma_put`` scatter the
    values into the flat solution, field after field."""

    def __init__(self, topology: PatchTopology, patches, n_fields: int):
        topo, k = topology, n_fields
        fields = np.arange(k)[:, None]
        self.n_fields, self.n_sigbar = k, topo.n_sigbar
        shared = np.bincount(topo.tilde_to_global(), minlength=topo.n_sigbar) > 1
        self.gamma = np.flatnonzero(shared)
        field_base = topo.n_sigbar * fields
        self.gamma_put = (field_base + self.gamma).ravel()
        n_gamma = len(self.gamma)
        position = np.cumsum(shared) - 1
        lines = [(_glued_lines(bb.n_xi, ("west", "east"), unglued),
                  _glued_lines(bb.n_eta, ("south", "north"), unglued))
                 for bb, unglued in zip(topo.bar_bases, topo.unglued_faces)]
        n_interior = [k * (sx.stop - sx.start) * (sy.stop - sy.start)
                      for (_, sx), (_, sy) in lines]
        offsets = topo.tilde_offsets.tolist()
        # the face DOFs of a patch are all but its interior ones
        n_face = k * offsets[-1] - sum(n_interior)
        self.interiors = np.empty(sum(n_interior))   # interior moments, then values
        self.interior_put = np.empty(len(self.interiors), dtype=np.int64)
        # face moments, then minus M_GammaI z_I; M_GammaI z_I; the interface
        # values on the faces
        self.faces, self.corr, self.y_faces = np.empty((3, n_face))
        self.face_take, self.face_bins = np.empty((2, n_face), dtype=np.int64)
        update = np.empty(max(n_interior))
        self.patches, keys, blocks = [], [], []
        i_off = f_off = 0
        for i, (ctx, ((rows, sx), (cols, sy))) in enumerate(zip(patches, lines)):
            mx, my = ctx.cache.xi.mbar, ctx.cache.eta.mbar
            bb = topo.bar_bases[i]
            lo = offsets[i]
            ctx.kron = kron = KronSolver(mx[sx, sx], my[sy, sy], scale=ctx.vol)
            local = np.arange(bb.dim).reshape(bb.n_xi, bb.n_eta)
            segment = slice(i_off, i_off + n_interior[i])
            i_off = segment.stop
            np.add(field_base, topo.bar_l2g[i][local[sx, sy].ravel()],
                   out=self.interior_put[segment].reshape(k, -1))
            b = self.interiors[segment].reshape(k, -1)
            p = _MassPatch(kron=kron, b=b, b3=b.reshape(k, kron.n_xi, kron.n_eta),
                           block=(slice(lo, lo + bb.dim), (k, bb.n_xi, bb.n_eta),
                                  (slice(None), sx, sy)))
            self.patches.append(p)
            if rows == cols == slice(0, 0):
                continue
            # face DOFs: the glued xi lines, in the range sy and then on the
            # glued eta lines, then the glued eta lines inside the range sx
            face = np.concatenate([local[rows, sy].ravel(), local[rows, cols].ravel(),
                                   local[sx, cols].ravel()])
            dofs = position[topo.bar_l2g[i][face]]
            gx = kron.inv_xi @ mx[sx, rows]
            gy = kron.inv_eta @ my[sy, cols]
            dx = np.zeros_like(mx)
            dx[rows, rows] = mx[rows, rows] - mx[rows, sx] @ gx
            dy = np.zeros_like(my)
            dy[cols, cols] = my[cols, cols] - my[cols, sy] @ gy
            fa, fb = np.divmod(face, bb.n_eta)
            dxa, dyb = dx.take(fa, 0).take(fa, 1), dy.take(fb, 0).take(fb, 1)
            blocks.append(ctx.vol * (dxa * my.take(fb, 0).take(fb, 1)
                                     + mx.take(fa, 0).take(fa, 1) * dyb - dxa * dyb))
            keys.append(dofs[:, None] * n_gamma + dofs)
            segment = slice(f_off, f_off + k * face.size)
            f_off = segment.stop
            np.add(offsets[-1] * fields, lo + face,
                   out=self.face_take[segment].reshape(k, -1))
            np.add(n_gamma * fields, dofs, out=self.face_bins[segment].reshape(k, -1))
            (n_xi, n_rows), (n_eta, n_cols) = gx.shape, gy.shape
            shapes = ((n_rows, n_eta), (n_rows, n_cols), (n_xi, n_cols))

            def face_blocks(flat):
                seg, start, out = flat[segment].reshape(k, -1), 0, []
                for shape in shapes:
                    stop = start + shape[0] * shape[1]
                    out.append(seg[:, start:stop].reshape(k, *shape))
                    start = stop
                return tuple(out)
            p.corr, p.y = face_blocks(self.corr), face_blocks(self.y_faces)
            p.gx_t, p.gy, p.gy_t = gx.T, gy, gy.T
            p.left = np.empty((k, n_xi, n_rows + n_cols))
            p.left[:, :, :n_rows] = gx
            p.left_y = p.left[:, :, n_rows:]
            p.right = np.empty((k, n_rows + n_cols, n_eta))
            p.right[:, n_rows:] = gy.T
            p.right_y = p.right[:, :n_rows]
            p.update = update[:b.size].reshape(p.b3.shape)
        self.faced = [p for p in self.patches if p.left is not None]
        self.factor = None
        if keys:
            schur = np.bincount(
                np.concatenate([key.ravel() for key in keys]),
                weights=np.concatenate([s.ravel() for s in blocks]),
                minlength=n_gamma * n_gamma).reshape(n_gamma, n_gamma)
            self.factor = DenseCholesky(schur)

    def solve(self, tilde):
        """Exact coupled A^-1 applied to the union moments ``tilde``, one
        C-ordered row per field, all fields batched.

        Per patch, the interior moments b_I of every field are solved by one
        batched Kronecker solve, z_I = M_II^-1 b_I (two dense products with
        the univariate inverses), and M_GammaI z_I = (Gxi (x) Geta)^T b_I is
        taken on the face DOFs alone, by contractions with the glued columns
        of Gxi and Geta. The interface moments of all fields are summed by
        one ``bincount``, one dense Cholesky solve on Gamma (LAPACK
        ``potrs``) gives the interface values y, and the back-substitution
        x_I = z_I - (Gxi (x) Geta) y is one low-rank product per patch. One
        gather takes the face moments of all patches and one scatter puts
        the interior values of all patches. A patch without glued faces
        skips the face work, so with no shared DOFs (a single patch) this is
        the plain Kronecker solve. Returns a fresh (n_fields, n_sigbar)
        array."""
        for p in self.patches:
            span, shape, inner = p.block
            p.b3[...] = tilde[:, span].reshape(shape)[inner]
        if self.faced:
            np.take(tilde.ravel(), self.face_take, out=self.faces, mode="clip")
            for p in self.faced:
                # M_GammaI z_I on the faces: gx^T b_I, (gx^T b_I) gy, b_I gy
                np.matmul(p.gx_t, p.b3, out=p.corr[0])
                np.matmul(p.corr[0], p.gy, out=p.corr[1])
                np.matmul(p.b3, p.gy, out=p.corr[2])
            self.faces -= self.corr
        for p in self.patches:
            p.b[...] = p.kron.solve_block(p.b)
        out = np.empty((self.n_fields, self.n_sigbar))
        flat = out.reshape(-1)
        if self.faced:
            rhs = np.bincount(self.face_bins, weights=self.faces,
                              minlength=self.n_fields * len(self.gamma))
            # the columns of the solve are the fields: y.T is C-ordered
            # (n_fields, n_gamma), the layout of the summed moments
            y = self.factor.solve(rhs.reshape(self.n_fields, -1).T).T.ravel()
            flat[self.gamma_put] = y
            np.take(y, self.face_bins, out=self.y_faces, mode="clip")
            for p in self.faced:
                # (Gxi (x) Geta) y on the range is gx Y_rows Geta^T + Y_cols
                # gy^T: one batched product [gx | Y_cols] [Y_rows Geta^T ;
                # gy^T] of rank |rows| + |cols|
                y_rows, y_glued, y_cols = p.y
                p.left_y[...] = y_cols
                np.matmul(y_glued, p.gy_t, out=p.right_y)
                p.right_y += y_rows
                np.matmul(p.left, p.right, out=p.update)
                p.b3 -= p.update
        flat[self.interior_put] = self.interiors
        return out


class MixedSystem:
    """Mixed system on a patch topology.

    ``mode`` selects the auxiliary-variable layout: 'full' carries u ~ x_xi
    and v ~ x_eta (four scalar auxiliary fields), 'xi'/'eta' carry only one of
    them and keep the second derivatives of x in the other direction, which
    requires C>=1 primal continuity there. ``chi`` splits the mixed
    second-derivative term between the two available representatives; the
    metric entries are always computed from the x-derivatives. The defaults
    and valid values of ``mode``, ``chi`` and ``mu`` are those of
    :mod:`eggmix.settings`.
    """

    def __init__(self, topology: PatchTopology, boundary_values, *,
                 mode: str = DEFAULTS["mode"], chi: float = DEFAULTS["chi"],
                 mu: float = DEFAULTS["mu"]):
        check_settings(mode=mode, chi=chi, mu=mu)
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
        # the boundary data with zero inner points, in the kernels' flat
        # layout (_flat_net)
        template = np.zeros((2, topology.n_sigma))
        template[:, topology.boundary_indices] = boundary_values.T
        self._flat_template = template.ravel()

        self._jet_groups = FIRST_JET if mode == "full" else SECOND_JET
        self._build_patches()
        self._tilde2g = topology.tilde_to_global()
        offsets = topology.tilde_offsets.tolist()
        self._tilde_bounds = list(zip(offsets[:-1], offsets[1:]))
        self._mass = _CondensedMass(topology, self.patches, self.n_fields)
        # calls of eval_RN, and the seconds spent in it and in the exact
        # mass solve, summed over the life of the system
        self.rn_eval_count = 0
        self.rn_eval_s = 0.0
        self.mass_solve_s = 0.0
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
        comp = np.arange(2)[:, None, None]
        fields = np.arange(self.n_fields)[:, None, None]
        jet_rows = sum(k1 - k0 for _, k0, k1 in self._jet_groups)
        tables = {}
        self.patches = []
        bins = []
        for i in range(topo.n_patches):
            tb, bb = topo.bases[i], topo.bar_bases[i]
            cache = build_quadrature(tb, bb, self.mode != "full", tables)
            am = topo.maps[i]
            vol = abs(am.det)
            ia = am.inv
            fx, fy = cache.xi, cache.eta
            sig = topo.sig_l2g[i].reshape(tb.n_xi, tb.n_eta)
            # positions in R_N of the patch's moments, 2 n_inner if fixed
            inner = inner_of[sig]
            bins.append(np.where(inner < self.n_inner, comp * self.n_inner + inner,
                                 2 * self.n_inner).ravel())
            npx, npy = len(fx.points), len(fy.points)
            # the doubles a strip's residual pass holds per grid point: the
            # raw rows and their combination Z (both components), U, the
            # metric and the weight
            point_bytes = 8 * npy * (2 * (jet_rows + 2 * n_aux) + 2 * 5 + 2 + 4 + 1)
            left = np.empty((len(directions), bb.n_xi, fx.kbar.shape[1], 2))
            for out, d in zip(left, directions):
                np.multiply(ia[0, d], fx.kbar, out=out[..., 0])
                np.multiply(ia[1, d], fx.obar, out=out[..., 1])
            left *= vol
            left = left.reshape(len(directions), bb.n_xi, -1)
            self.patches.append(_PatchContext(
                cache=cache,
                inv_a=ia,
                vol=vol,
                wgrid=vol * np.multiply.outer(fx.weights, fy.weights),
                sig_idx=comp * topo.n_sigma + sig,
                bar_idx=fields * topo.n_sigbar
                + topo.bar_l2g[i].reshape(bb.n_xi, bb.n_eta),
                combo=_residual_combination(self.mode, self.chi, ia, n_aux),
                strips=_strip_layout(fx, point_bytes),
                metric=np.empty((4, npx, npy)),
                left=left,
                right=np.concatenate([fy.obar.T, fy.kbar.T], axis=1),
                mass=(vol * fx.mbar, fy.mbar)))
        self._rn_bins = np.concatenate(bins)

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

    @property
    def _template(self):
        """The boundary data as a full (n_sigma, 2) control net with zero
        inner points, for the readers of the point-major layout (the
        command line, the coarse-to-fine solve): a view of the flat one."""
        return self._flat_template.reshape(2, -1).T

    def full_control_net(self, c):
        return self._flat_net(c).reshape(2, -1).T.copy()

    def _flat_net(self, c, boundary=True):
        """The full control net of the inner coefficients c as one flat
        array, component after component: the layout the kernels gather
        their coefficients from (``sig_idx``). Its boundary points are the
        boundary data, or zero when not ``boundary``."""
        net = self._flat_template.copy() if boundary \
            else np.zeros(2 * self.topology.n_sigma)
        inner, c = self.topology.inner_indices, self.c_as_net(c)
        components = net.reshape(2, -1)
        components[0, inner] = c[:, 0]
        components[1, inner] = c[:, 1]
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
        out -= self._derivative_moments(self._flat_net(c))
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
        template = self._flat_template.reshape(2, -1)
        net = np.zeros((2, self.topology.n_sigma))
        net[:, bnd] = template[:, bnd] - template[:, bnd[:1]]
        return float(np.linalg.norm(
            self.reduce_tilde(self._derivative_moments(net))))

    # -- nonlinear part ------------------------------------------------------

    def _scratch(self, name, *shape):
        """A view of the scratch array ``name`` shared by the per-iterate
        kernels of all patches, allocated by :meth:`_plans` at the largest
        need of any patch (:meth:`_scratch_sizes`): their arrays have the
        same shapes at every iterate, and fresh ones cost a page fault per 4
        KB whenever the C allocator has handed the freed memory back to the
        system. The plans take every view once."""
        return self._buffers[name][:math.prod(shape)].reshape(shape)

    def _laplacian_sizes(self, ctx):
        """Doubles of the two scratch arrays :meth:`frozen_laplacian` works
        in on the patch ``ctx``, idle in the residual kernels while it runs:
        the metric planes, and then the eta products, in that of the raw
        rows, sized for the eta products of all cell-local xi pairs (those
        of the pairs kept are fewer); the xi products in that of the
        eta-contracted auxiliary coefficients."""
        npx, npy = ctx.wgrid.shape
        n_cells, n_local, _ = ctx.cache.xi.cell_shape(True)
        n_cells_eta, n_local_eta, _ = ctx.cache.eta.cell_shape(False)
        return {"rows": max(3 * npx * npy, len(PAIRINGS) * n_cells_eta * n_local_eta
                            * n_cells * n_local),
                "eta_bar": n_cells * n_local * len(PAIRINGS) * npy}

    def _scratch_sizes(self, ctx):
        """Doubles of each shared scratch array that the kernels of the
        patch ``ctx`` take views of: its residual pass and derivative
        moments (:meth:`_patch_plan`, whose shapes these are, the strips at
        their largest) and its frozen Laplacian (:meth:`_laplacian_sizes`)."""
        groups, n_fields = self._jet_groups, self.n_fields
        _, nx, ny = ctx.sig_idx.shape
        _, nbx, nby = ctx.bar_idx.shape
        npy = ctx.wgrid.shape[1]
        n_rows = sum(k1 - k0 for _, k0, k1 in groups) + n_fields
        n_pts = max(pts.stop - pts.start for pts, _, _ in ctx.strips)
        n_cols = max(cols.stop - cols.start for _, cols, _ in ctx.strips)
        laplacian = self._laplacian_sizes(ctx)
        return {"eta_sig": len(groups) * 2 * nx * npy,
                "eta_bar": max(2 * n_fields * nbx * npy, laplacian["eta_bar"]),
                "moments": 2 * nx * npy,
                "rows": max(2 * nx * 2 * nby, n_rows * 2 * n_pts * npy, laplacian["rows"]),
                "Z": len(ctx.combo) * 2 * n_pts * npy,
                "U": 2 * n_pts * npy,
                "strip_moments": 2 * n_cols * npy,
                "net": 2 * nx * ny}

    def _patch_plan(self, ctx, out):
        """The :class:`_PatchPlan` of one patch, its residual moments
        written to ``out``."""
        fx, fy = ctx.cache.xi, ctx.cache.eta
        groups, n_fields = self._jet_groups, self.n_fields
        _, nx, ny = ctx.sig_idx.shape
        _, nbx, nby = ctx.bar_idx.shape
        npy = ctx.wgrid.shape[1]
        n_rows = sum(k1 - k0 for _, k0, k1 in groups) + n_fields
        E = self._scratch("eta_sig", len(groups), 2, nx, npy)
        F = self._scratch("eta_bar", 2, n_fields, nbx, npy)
        acc = self._scratch("moments", 2, nx, npy)
        # the derivative moments take the scratch of the raw rows, idle there
        T = self._scratch("rows", 2 * nx, 2 * nby)
        strips = []
        for pts, cols, bar_cols in ctx.strips:
            n_pts = pts.stop - pts.start
            rows = self._scratch("rows", n_rows, 2, n_pts, npy)
            products, r = [], 0
            for l, k0, k1 in groups:
                products.append((fx.sig[k0:k1, pts, cols][:, None], E[l][:, cols],
                                 rows[r: r + k1 - k0]))
                r += k1 - k0
            # s-derivatives of the auxiliary fields, then t-derivatives
            products.append((fx.bar[::-1, pts, bar_cols][:, None], F[:, :, bar_cols],
                             rows[r:].reshape(2, n_fields, n_pts, npy)))
            Z = self._scratch("Z", len(ctx.combo), 2 * n_pts * npy)
            z = Z.reshape(len(ctx.combo), 2, n_pts, npy)
            g = ctx.metric[:, pts]
            U = self._scratch("U", 2, n_pts, npy)
            strips.append(_StripPlan(
                products=products, rows=rows.reshape(n_rows, -1), Z=Z,
                z=(z[0], z[1], z[:2], z[:2, 0], z[:2, 1], z[2:], z[2], z[3], z[4]),
                g=(g[0], g[1], g[2], g[3], g[:2], g[:3, None]),
                weights=ctx.wgrid[pts], U=(U, U[0], U[1]),
                test=fx.sig[0, pts, cols].T,
                moments=self._scratch("strip_moments", 2, cols.stop - cols.start, npy),
                acc=acc[:, cols]))
        return _PatchPlan(
            ctx=ctx,
            sig_take=ctx.sig_idx.reshape(2 * nx, ny),
            bar_take=ctx.bar_idx.reshape(-1, nby),
            C=self._scratch("net", 2 * nx, ny),
            E=E.reshape(len(groups), 2 * nx, npy),
            eta_sig=np.swapaxes(fy.sig[:len(groups)], 1, 2),
            F=F.reshape(2, -1, npy),
            eta_bar=np.swapaxes(fy.bar, 1, 2),
            acc=acc.reshape(2 * nx, npy),
            eta_test=fy.sig[0],
            out=out.reshape(2 * nx, ny),
            strips=strips,
            derivatives=(T, T.reshape(1, 2, 2 * nx, nby), ctx.left[:, None]))

    @functools.cached_property
    def _plans(self):
        """The :class:`_Plans`, built on first use, in one pass: the shared
        scratch arrays are allocated first, each at the largest need of any
        patch and kernel (:meth:`_scratch_sizes`), and then the
        :class:`_PatchPlan` of every patch takes its views of them. The
        residual moments of all patches lie patch after patch as the
        positions ``_rn_bins``, so that one ``bincount`` sums them."""
        sizes = {}
        for ctx in self.patches:
            for name, size in self._scratch_sizes(ctx).items():
                sizes[name] = max(size, sizes.get(name, 0))
        self._buffers = {name: np.empty(size) for name, size in sizes.items()}
        moments = np.empty(len(self._rn_bins))
        bounds = np.cumsum([0] + [ctx.sig_idx.size for ctx in self.patches])
        return _Plans([self._patch_plan(ctx, moments[a:b]) for ctx, a, b
                       in zip(self.patches, bounds[:-1], bounds[1:])], moments)

    def _strip_pass(self, plan, net, d):
        """One walk over the xi strips of the patch of ``plan`` at the flat
        control net ``net`` (:meth:`_flat_net`) and the auxiliary
        coefficients ``d``, writing g11, g22, g12 and w / (g11 + g22 + mu)
        of every Gauss point into the patch's ``metric`` and its residual
        moments (2 n_xi, n_eta) against the test functions into
        ``plan.out``.

        The eta direction is contracted first, on the coefficients: jet row
        (k, l) is xi.sig[k] @ E_l with E_l = C @ eta.sig[l].T, and the
        auxiliary derivatives are xi.bar[k] @ D @ eta.bar[l].T likewise.
        Each strip then multiplies only the band of xi factor columns
        active on its spans and does ``combo``, the metric and the weights
        on strip-sized scratch, every array component-major, so that each
        pointwise step is one product or sum of whole planes. Every strip
        also forms the residual's pointwise values w U and adds their xi
        moments into an accumulator. The metric depends on x_xi and x_eta
        alone, not on ``d``. Every operand and ``out=`` view is fixed in the
        plan (:meth:`_patch_plan`)."""
        ctx, mu = plan.ctx, self.mu
        np.take(net, plan.sig_take, out=plan.C, mode="clip")
        np.matmul(plan.C, plan.eta_sig, out=plan.E)
        np.matmul(d[plan.bar_take], plan.eta_bar, out=plan.F)
        plan.acc.fill(0.0)
        for st in plan.strips:
            for factor, operand, out in st.products:
                np.matmul(factor, operand, out=out)
            np.matmul(ctx.combo, st.rows, out=st.Z)
            x_xi, x_eta, xs, xs0, xs1, Y, Y11, Y22, Y12 = st.z
            g11, g22, g12, w, g_diag, g_y = st.g
            U, U0, U1 = st.U
            np.multiply(x_xi, x_eta, out=U)
            np.add(U0, U1, out=g12)
            np.square(xs, out=xs)
            np.add(xs0, xs1, out=g_diag)
            np.add(g11, g22, out=w)
            w += mu
            np.divide(st.weights, w, out=w)
            # U = (g11 Y11 + g22 Y22 + g12 Y12) w / (g11 + g22 + mu)
            np.multiply(Y, g_y, out=Y)
            np.add(Y11, Y22, out=U)
            U += Y12
            U *= w
            np.matmul(st.test, U, out=st.moments)
            st.acc += st.moments
        np.matmul(plan.acc, plan.eta_test, out=plan.out)

    def eval_RN(self, d, c):
        """Nonlinear residual: moments of the scaled operator against every
        inner primal basis function, components stacked (x..., y...).

        Sum factorisation by strips (:meth:`_strip_pass`): on each patch the
        eta direction is contracted on the coefficients, then the xi Gauss
        points are walked in strips of whole spans, and the moments against
        the test functions are Bx.T @ (w U) @ By, xi strip by strip and
        then eta; one ``bincount`` sums the moments of all patches. The
        metric of every Gauss point stays in the patch contexts, tagged
        with this iterate, for :meth:`frozen_laplacian`. The result is a
        fresh array."""
        t0 = time.perf_counter()
        plans = self._plans
        net = self._flat_net(c)
        d = np.asarray(d, dtype=float).ravel()
        n_res = 2 * self.n_inner
        # a call that fails part way leaves no tag on a half-written metric
        self._metric_net = None
        for plan in plans.patches:
            self._strip_pass(plan, net, d)
        res = np.bincount(self._rn_bins, weights=plans.moments, minlength=n_res + 1)
        self._metric_net = net
        self.rn_eval_count += 1
        self.rn_eval_s += time.perf_counter() - t0
        return res[:n_res]

    def min_denominator(self):
        """The minimum Winslow denominator g11 + g22 + mu over the Gauss
        points of all patches, read from the metric the last residual pass
        left in the patch contexts, that of the control net
        ``_metric_net``: the last :meth:`eval_RN`, unless
        :meth:`frozen_laplacian` has passed at another net since. Rounding
        is monotone, so this is the least of the denominators that pass
        divided by. The sums g11 + g22 go strip by strip into the idle
        scratch of the residual pass. Raises RuntimeError when no pass has
        left a whole metric."""
        if self._metric_net is None:
            raise RuntimeError("no residual pass has left a metric: call eval_RN first")
        least = math.inf
        for plan in self._plans.patches:
            for st in plan.strips:
                _, U0, _ = st.U
                least = min(least, float(np.add(st.g[0], st.g[1], out=U0).min()))
        return least + self.mu

    # -- Schur preconditioner ------------------------------------------------

    @functools.cached_property
    def _laplacian_factors(self):
        """The per-patch pair tables (:func:`_span_tables`, shared by the
        patch directions that share their :class:`DirectionFactors`), the
        coupled pairs and their summing matrices (one stable argsort per
        direction, :func:`_coupled_pairs`), the metric maps and the band
        layout (:func:`_band_layout`, one reverse Cuthill-McKee order and
        one rank pass) of the inner primal couplings, built once, on first
        use, with the views of the scratch that :meth:`frozen_laplacian`
        works in: the plans (:meth:`_plans`) allocate that scratch, and are
        built here, once the layout's temporaries are freed, unless the
        residual has built them already.

        The couplings of a patch are S_xi x S_eta: functions (i1, i2) and
        (j1, j2) share an element exactly when (i1, j1) is in S_xi and
        (i2, j2) in S_eta. K is symmetric, so one of a coupling and its
        mirror is enough, and the xi pairs i1 <= j1 meet every coupling:
        those with i1 < j1 once, as itself or as its mirror, and those with
        i1 = j1 twice, once with i2 <= j2 and once, with i2 > j2, as the
        mirror, which is dropped. The pairs of either direction that meet
        no inner DOF are left out (:func:`_coupled_pairs`). ``places`` holds
        the place in K's lower band storage of every patch entry, laid out
        as the (|S_eta|, |S_xi|) products of :meth:`frozen_laplacian` over
        the pairs kept, patch after patch; a dropped entry, or one in a
        boundary row or column, takes the slot past the band. ``twice``
        lists the kept entries of two distinct functions on K's diagonal: a
        patch glued to itself across a single span joins two functions of
        one span, and K takes both such an entry and its mirror."""
        n = self.n_inner
        inner_of = np.full(self.topology.n_sigma, -1)
        inner_of[self.topology.inner_indices] = np.arange(n)
        # patch directions share their DirectionFactors, and so their
        # tables: one _span_tables call per (factor object, half)
        memo = {}

        def span_tables(f, half):
            if (id(f), half) not in memo:
                memo[id(f), half] = _span_tables(f, half)
            return memo[id(f), half]

        # the coupled pairs and the entries of every patch
        parts, rows, cols, twice = [], [], [], []
        offset = 0
        for i, ctx in enumerate(self.patches):
            tx, ty = span_tables(ctx.cache.xi, True), span_tables(ctx.cache.eta, False)
            loc = inner_of[self.topology.sig_l2g[i]].reshape(ctx.sig_idx.shape[1:])
            live = loc >= 0
            px, sum_x = _coupled_pairs(tx, loc.shape[0], live.any(axis=1))
            py, sum_y = _coupled_pairs(ty, loc.shape[1], live.any(axis=0), len(PAIRINGS))
            parts.append((tx, ty, px.shape[1], sum_x, sum_y,
                          _patch_metric_map(ctx.inv_a, self.mu)))
            # (|S_eta|, |S_xi|) inner indices of the first and the second
            # function of every entry, by flat positions in loc
            first, col = (loc.take(np.add.outer(py[k], px[k] * loc.shape[1]))
                          for k in (0, 1))
            mirror = (py[0] > py[1])[:, None] & (px[0] == px[1])
            row = np.where(mirror | (col < 0), -1, first)
            rows.append(row.ravel())
            cols.append(col.ravel())
            # two distinct functions of one DOF: an entry off the diagonal
            # of the patch matrix whose row and column are equal
            off = (py[0] != py[1])[:, None] | (px[0] != px[1])
            twice.append(offset + np.flatnonzero((row == col) & off))
            offset += row.size
        order, bandwidth, places = _band_layout(np.concatenate(rows),
                                                np.concatenate(cols), n)
        del rows, cols
        # the heap hands back only its top: a copy made once the layout's
        # temporaries are freed lands beneath them, so they do not stay
        # resident under the one array that outlives them
        places = places.copy()
        # the plans allocate every scratch for both kernels, so the views
        # taken below are of the arrays the residual works in, whichever
        # kernel runs first; built once the layout's temporaries are freed,
        # as built before them the set-up peaks 2 to 4 MB higher at bat L3
        self._plans
        patches = []
        for ctx, (tx, ty, n_rx, sum_x, sum_y, to_m) in zip(self.patches, parts):
            npx, npy = ctx.wgrid.shape
            sizes = self._laplacian_sizes(ctx)
            work, cells = self._scratch("rows", sizes["rows"]), \
                self._scratch("eta_bar", sizes["eta_bar"])
            _, n_cells, n_local, kq = tx.table.shape
            _, n_cells_eta, n_local_eta, kq_eta = ty.table.shape
            M = work[:3 * npx * npy].reshape(3, -1)
            Z = cells.reshape(n_cells, n_local, len(PAIRINGS), npy)
            patches.append(_LaplacianPatch(
                x=tx, y=ty, to_m=to_m, sum_x=sum_x, sum_y=sum_y,
                M=M, M_cells=M.reshape(3, n_cells, kq, npy),
                Z=Z.reshape(n_cells * n_local, -1), Zt=Z.transpose(2, 0, 1, 3),
                W=work[:ty.table[..., 0].size * n_rx].reshape(
                    len(PAIRINGS), n_cells_eta, n_local_eta, n_rx),
                shape=(n_rx, len(PAIRINGS), n_cells_eta, kq_eta)))
        return _LaplacianFactors(patches=patches, order=order, bandwidth=bandwidth,
                                 places=places, twice=np.concatenate(twice))

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
        metric does not depend on them).

        In the patch coordinates the scaled Q is M = ia Q ia^T (the patch
        map is affine), and the patch matrix sums X_ab^T M_ab Y_ab over the
        pairings (a, b), by sum factorisation on the cells of
        :meth:`_laplacian_factors` (Bressan & Takacs, Sum factorization
        techniques in isogeometric analysis, CMAME 352, 2019): the three
        planes M_ss, M_st = M_ts and M_tt take one product of the metric,
        the xi stage contracts each xi cell's points with its pair table in
        batched dense products, one sparse sum takes the cells onto the
        coupled xi pairs, the eta stage contracts the eta cells likewise,
        and one sparse sum takes them, and the four pairings, onto the
        coupled eta pairs. One ``bincount`` sums the entries of all patches
        straight into the lower band storage. Returns K's lower band ``ab``
        in the band order ``_laplacian_factors.order``, Fortran-ordered
        (bandwidth + 1, n), ``ab[d, k]`` the entry of band rows k + d and k
        (zero past the last row)."""
        lf = self._laplacian_factors
        plans = self._plans.patches
        net = self._flat_net(c)
        if not np.array_equal(net, self._metric_net):
            self._metric_net = None
            d = np.zeros(self.d_size)
            for plan in plans:
                self._strip_pass(plan, net, d)
            self._metric_net = net
        entries = []
        for plan, lp in zip(plans, lf.patches):
            g = plan.ctx.metric.reshape(4, -1)
            M = np.matmul(lp.to_m[:, :3], g[:3], out=lp.M)
            M += lp.to_m[:, 3:]
            M *= g[3]
            # pairings (0, 1) and (1, 0) both take the plane M_st
            np.matmul(lp.x.table[:2], lp.M_cells[:2], out=lp.Zt[:2])
            np.matmul(lp.x.table[2:], lp.M_cells[1:], out=lp.Zt[2:])
            Zx = (lp.sum_x @ lp.Z).reshape(lp.shape)
            np.matmul(lp.y.table, Zx.transpose(1, 2, 3, 0), out=lp.W)
            entries.append((lp.sum_y @ lp.W.reshape(lp.sum_y.shape[1], -1)).ravel())
        entries = np.concatenate(entries)
        n, width = self.n_inner, lf.bandwidth + 1
        # the last slot takes the dropped entries
        band = np.bincount(lf.places, weights=entries, minlength=width * n + 1)
        if lf.twice.size:
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
            z = chol.solve(np.reshape(y, (2, n))[:, order].T)
            out = np.empty((2, n))
            out[:, order] = z.T
            return np.negative(out, out=out).ravel()
        return apply

    # -- A^-1 products -------------------------------------------------------

    def _derivative_moments(self, net):
        """Union moments of the (x_xi, x_eta) fields of a flat control net
        (:meth:`_flat_net`), one row per auxiliary field: on patch i, field
        (direction d, component k) has vol (ia[0, d] Kxi C_k Oeta^T +
        ia[1, d] Oxi C_k Keta^T). Both components take the right factor
        [Oeta^T | Keta^T] in one product, then each direction its left
        factor [vol ia[0, d] Kxi | vol ia[1, d] Oxi], columns interleaved
        (column 2a + r meets half r at xi function a), in one product
        written into the union layout."""
        net = np.ravel(net)
        out = np.empty((self.n_fields, self.topology.n_tilde))
        for plan, (lo, hi) in zip(self._plans.patches, self._tilde_bounds):
            T, T4, left = plan.derivatives
            np.take(net, plan.sig_take, out=plan.C, mode="clip")
            np.matmul(plan.C, plan.ctx.right, out=T)
            n_dir, _, nbx, _ = left.shape
            np.matmul(left, T4, out=out[:, lo:hi].reshape(n_dir, 2, nbx, -1))
        return out

    def _mass_pcg(self, tilde):
        """:meth:`_CondensedMass.solve`. The name is that of the
        conjugate-gradient solve the condensation replaced; it stays
        because ``perfbench/tracing.py`` looks the method up by it, until
        the benchmark's hooks are renamed."""
        return self._mass.solve(tilde)

    def ainv_exact(self, tilde):
        """Exact coupled A^-1 applied to union moments, one row per field,
        all fields in one call: the one mass solve, by static condensation
        onto the interface DOFs (:class:`_CondensedMass`, through
        :meth:`_mass_pcg`). The result is a fresh
        (n_fields, n_sigbar) array."""
        t0 = time.perf_counter()
        tilde = np.ascontiguousarray(tilde, dtype=float)
        shape = (self.n_fields, self.topology.n_tilde)
        if tilde.shape != shape:
            raise InputError(f"union moments of shape {tilde.shape}, expected {shape}")
        out = self._mass_pcg(tilde)
        self.mass_solve_s += time.perf_counter() - t0
        return out

    def apply_ainv_b(self, s):
        """A^-1 B s, solved exactly for all fields in one call of
        :meth:`ainv_exact`."""
        net = self._flat_net(s, boundary=False)
        return self.ainv_exact(self._derivative_moments(net)).ravel()

    def project_d(self, c):
        """Auxiliary coefficients from the L2 projection of x_xi and x_eta of
        the current map (boundary included) onto the coupled auxiliary
        basis, solved exactly by :meth:`ainv_exact`."""
        return self.ainv_exact(self._derivative_moments(self._flat_net(c))).ravel()

    def solve_delta_d(self, a_tilde, delta_c):
        """A delta_d = a + B delta_c, solved exactly for all fields in one
        call of :meth:`ainv_exact`; ``a_tilde`` are the union moments of a
        (sign already applied)."""
        net = self._flat_net(delta_c, boundary=False)
        return self.ainv_exact(a_tilde + self._derivative_moments(net)).ravel()


def single_patch_system(m, **settings) -> MixedSystem:
    """Mixed system for a single-patch SplineMap (identity affine map);
    ``settings`` are the keywords of :class:`MixedSystem`."""
    topo = single_patch_topology(m.basis)
    return MixedSystem(topo, m.control[topo.boundary_indices], **settings)


def boundary_values_from_faces(topology: PatchTopology, boundary_data):
    """Global boundary coefficient array from per-(patch, face) curve data:
    the one check of boundary contours.

    Every unglued face needs an entry of one point per DOF of the face;
    coefficients meeting at shared corner DOFs (including across patches)
    must agree to 1e-12. Every boundary DOF lies on an unglued face, so
    each receives a value.
    """
    values = np.zeros((topology.n_sigma, 2))
    source = {}  # global DOF -> the curve point that set its value
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
                if g in source:
                    gap = float(np.linalg.norm(values[g] - arr[k]))
                    if gap > 1e-12:
                        raise CornerMismatchError(
                            f"patch {p}.{face}[{k}] vs {source[g]}", gap)
                else:
                    values[g] = arr[k]
                    source[g] = f"patch {p}.{face}[{k}]"
    return values[topology.boundary_indices]

