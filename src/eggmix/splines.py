"""Univariate and tensor-product B-spline bases on [0, 1].

Open (clamped) knot vectors; one tabulation kernel for the nonzero basis
functions and their derivatives, the recursion of Piegl & Tiller's
algorithm A2.3 run on all points at once and batched over the basis index,
bit for bit the scalar algorithm (:func:`_ders_basis`,
:meth:`KnotVector.eval_many`); dense collocation factors put from its table
by one flat scatter; per-span Gauss grids, Greville abscissae, global
h-refinement by knot bisection, its exact prolongation formed apart, and
the lexicographic (xi-major) tensor-product numbering that every other
module relies on.
"""

from __future__ import annotations

from functools import cached_property, lru_cache

import numpy as np
from scipy import sparse

from .errors import DomainError, InputError

KNOT_TOL = 1e-12
# the first-derivative coefficients of A2.3 before their division
_SIGNS = np.array([1.0, -1.0])[:, None, None]
_SIGNS.flags.writeable = False
# the faces of a patch, by the parameter line each lies on: eta = 0, eta =
# 1, xi = 0, xi = 1
FACES = ("south", "north", "west", "east")


@lru_cache(maxsize=None)
def gauss_legendre(n: int):
    """Gauss-Legendre nodes and weights on [0, 1], computed once per order.

    Every caller of an order shares the two arrays, so they are read-only.
    """
    x, w = np.polynomial.legendre.leggauss(n)
    x, w = 0.5 * (x + 1.0), 0.5 * w
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


def _group_knots(knots):
    """Distinct knot values and their multiplicities."""
    breaks = [knots[0]]
    mult = [1]
    for v in knots[1:]:
        if v - breaks[-1] <= KNOT_TOL:
            mult[-1] += 1
        else:
            breaks.append(v)
            mult.append(1)
    return np.asarray(breaks, dtype=float), np.asarray(mult, dtype=int)


def _ders_basis(t, p, first, x, n, out):
    """Values and first ``n`` derivatives of the p+1 basis functions active
    at each point ``x[i]``, the knot span of ``x[i]`` being ``first[i] +
    p``: the triangular-table recursion of Piegl & Tiller, The NURBS Book,
    algorithm A2.3, run on every point at once and batched over the basis
    index r, with the same floating-point operations in the same order on
    every point as the scalar algorithm, so its results are the same bits
    (the one addition it adds, of +0.0 to a value >= +0, changes nothing).
    Writes ``out[k, r, i]``, k = 0..n, into a zero-filled (>= n + 1, p + 1,
    len(x)) array or view.

    Row j of the table holds the knot differences ``right[r + 1] + left[j -
    r]`` of its r = 0..j-1, and its column j the basis functions of degree
    j: one step per j for all r. In the derivative stage, level k holds the
    coefficients a_kj of every r at the sheared position (j, c), c = r - k
    + j: all of them divide by the same difference of column c, so a level
    is a few slab operations, and the sum over j of every r is one shifted
    add per j, in the order of j."""
    m = len(x)
    # left[j] = x - t[span + 1 - j] in row p - j, right[j] = t[span + j] - x
    # in row p - 1 + j, j = 1..p: the knots first + 1 .. first + 2p
    lr = t[first + np.arange(1, 2 * p + 1)[:, None]]
    np.subtract(x, lr[:p], out=lr[:p])
    lr[p:] -= x
    ndu = np.empty((p + 1, p + 1, m))
    ndu[0, 0] = 1.0
    # column j is saved + right[r + 1] temp[r], r = 0..j: rows 0..j of
    # ``terms`` hold the saved terms, 0 for r = 0, and rows j + 1..2j + 1
    # the products, 0 for r = j, which leaves ndu[j, j] = saved + 0.0
    # exactly: every value of the table is >= +0
    terms = np.zeros((2 * p + 2, m))
    for j in range(1, p + 1):
        # (left[j - r], right[r + 1]) for r = 0..j-1
        both = lr[p - j: p + j].reshape(2, j, m)
        np.add(both[1], both[0], out=ndu[j, :j])
        temp = ndu[:j, j - 1] / ndu[j, :j]
        np.multiply(both, temp, out=terms[1: 2 * j + 1].reshape(2, j, m))
        # the last column, the values, is read no further
        np.add(terms[:j + 1], terms[j + 1: 2 * j + 2],
               out=ndu[:j + 1, j] if j < p else out[0])
    if not n:
        return
    # level 1: a_10 = 1 / diff for r >= 1 and a_11 = -1 / diff for r <= p - 1
    a = np.divide(_SIGNS, ndu[p, :p])
    fac = float(p)
    for k in range(1, n + 1):
        pk = p - k
        if k > 1:
            # a_kj = (a_k-1,j - a_k-1,j-1) / diff, the first and the last
            # terms of the difference left out where they vanish: j = 0
            # for r >= k, 0 < j < k, and j = k for r <= p - k
            nxt = np.empty((k + 1, pk + 1, m))
            nxt[0] = a[0, 1:]
            np.subtract(a[1:k, 1:], a[:k - 1, :-1], out=nxt[1:k])
            np.negative(a[k - 1, :-1], out=nxt[k])
            a = np.divide(nxt, ndu[pk + 1, :pk + 1], out=nxt)
        terms = a * ndu[:pk + 1, pk]
        d = out[k]
        # term j of the derivative of function r = c + k - j
        d[k:] = terms[0]
        for j in range(1, k + 1):
            d[k - j: p + 1 - j] += terms[j]
        d *= fac
        fac *= p - k


class KnotVector:
    """Open (clamped) knot vector of a given degree with knots in [0, 1].

    Endpoint knots must appear with multiplicity exactly degree+1; interior
    multiplicities may go up to the degree (a degree-fold repetition gives a
    C0 break). Instances are immutable.
    """

    def __init__(self, degree, knots):
        degree = int(degree)
        if degree < 1:
            raise InputError(f"degree must be >= 1, got {degree}")
        knots = np.array(knots, dtype=float)
        if knots.ndim != 1 or len(knots) < 2 * (degree + 1):
            raise InputError("knot sequence too short for the degree")
        if not np.isfinite(knots).all():
            raise InputError("knots must be finite")
        if np.any(np.diff(knots) < 0):
            raise InputError("knots must be nondecreasing")
        if abs(knots[0]) > KNOT_TOL or abs(knots[-1] - 1.0) > KNOT_TOL:
            raise InputError("knots must be normalized to [0, 1]")
        breaks, mult = _group_knots(knots)
        if mult[0] != degree + 1 or mult[-1] != degree + 1:
            raise InputError(
                "knot vector must be open: end multiplicities exactly degree+1")
        if len(mult) > 2 and mult[1:-1].max() > degree:
            raise InputError("interior knot multiplicity exceeds the degree")
        if len(breaks) < 2:
            raise InputError("need at least one span of positive length")
        self.degree = degree
        self.knots = knots
        self.breakpoints = breaks
        self.multiplicities = mult
        knots.setflags(write=False)
        breaks.setflags(write=False)
        mult.setflags(write=False)

    @property
    def dim(self) -> int:
        return len(self.knots) - self.degree - 1

    @property
    def nelems(self) -> int:
        return len(self.breakpoints) - 1

    def __eq__(self, other):
        return (isinstance(other, KnotVector)
                and self.degree == other.degree
                and len(self.knots) == len(other.knots)
                and np.allclose(self.knots, other.knots, atol=KNOT_TOL, rtol=0.0))

    def __hash__(self):
        # __eq__ compares knots only within KNOT_TOL, so only the exactly
        # compared parts may enter the hash
        return hash((self.degree, len(self.knots)))

    def __repr__(self):
        return f"KnotVector(p={self.degree}, nelems={self.nelems}, dim={self.dim})"

    def flipped(self) -> "KnotVector":
        """Knot vector of the same basis traversed in reverse parameter."""
        return KnotVector(self.degree, np.sort(1.0 - self.knots))

    def eval_many(self, pts, nderiv: int):
        """Nonzero basis values and derivatives at every point of ``pts``,
        derivative orders above the degree zero-padded: returns ``(first,
        table)`` with ``table[i, k, j]`` the k-th derivative of basis
        function ``first[i] + j`` at ``pts[i]``, j = 0..degree.

        One call of the batched A2.3 kernel (:func:`_ders_basis`) tabulates
        every point, point-last so that its slab operations run on
        contiguous memory, and one copy gives the C-ordered (n_points,
        nderiv + 1, degree + 1) table."""
        pts = np.asarray(pts, dtype=float)
        # NaN fails both tests
        if pts.size and not (pts.min() >= 0.0 and pts.max() <= 1.0):
            bad = pts[~((pts >= 0.0) & (pts <= 1.0))][0]
            raise DomainError(f"evaluation point {bad} outside [0, 1]")
        if nderiv < 0:
            raise InputError(f"derivative order {nderiv} is negative")
        p = self.degree
        # the span of x is p plus the number of interior knots <= x
        first = np.searchsorted(self.knots[p + 1: self.dim], pts, side="right")
        ders = np.zeros((nderiv + 1, p + 1, len(pts)))
        _ders_basis(self.knots, p, first, pts, min(nderiv, p), ders)
        return first, np.ascontiguousarray(ders.transpose(2, 0, 1))

    def dense(self, first, tab):
        """Dense (nderiv + 1, n_points, dim) collocation factors from the
        ``(first, table)`` of :meth:`eval_many`: ``out[k, i]`` is the row of
        k-th derivatives of every basis function at point i. One flat
        scatter puts the table, in its own order, at the positions ``k
        n_points dim + i dim + first[i] + j``."""
        n_points, nd1, width = tab.shape
        out = np.zeros((nd1, n_points, self.dim))
        offsets = np.add.outer(np.arange(nd1) * out[0].size, np.arange(width))
        np.put(out, np.add.outer(first + np.arange(n_points) * self.dim, offsets), tab)
        return out

    def gauss_grid(self, n: int):
        """Gauss-Legendre points and weights of order ``n`` on every nonempty
        span, span-major: point ``k`` lies in span ``k // n``, and the
        weights of a span sum to its length."""
        q, w = gauss_legendre(n)
        a = self.breakpoints[:-1]
        h = np.diff(self.breakpoints)
        return (a[:, None] + h[:, None] * q).ravel(), (h[:, None] * w).ravel()

    @cached_property
    def greville(self):
        """Knot averages; one abscissa per basis function."""
        p = self.degree
        g = np.array([self.knots[i + 1: i + p + 1].mean() for i in range(self.dim)])
        return np.clip(g, 0.0, 1.0)

    def max_interior_multiplicity(self) -> int:
        if len(self.multiplicities) <= 2:
            return 0
        return int(self.multiplicities[1:-1].max())

    def bisected(self) -> "KnotVector":
        """The knot vector with every nonempty span bisected: all midpoints
        inserted at once, by one sort of the knots and the midpoints. This
        is the knot half of :meth:`refine`, and the auxiliary basis of the
        mixed system is built from it alone."""
        mids = 0.5 * (self.breakpoints[:-1] + self.breakpoints[1:])
        return KnotVector(self.degree, np.sort(np.concatenate([self.knots, mids])))

    def refine(self):
        """Bisect every nonempty span, with the prolongation.

        Returns the refined knot vector (:meth:`bisected`) and the sparse
        prolongation matrix mapping coarse to fine coefficients exactly,
        formed directly by the Oslo algorithm (Cohen, Lyche & Riesenfeld,
        "Discrete B-splines and subdivision techniques in computer-aided
        geometric design", CGIP 14 (1980)): fine row i, with t[mu] <=
        tau[i] < t[mu + 1], holds the discrete B-splines of coarse
        coefficients mu-p..mu, the product R_1(tau[i+1]) ... R_p(tau[i+p])
        of the B-spline recurrence matrices, evaluated for all rows in p
        passes. Only a coarse-to-fine solve needs the prolongation, to
        carry an iterate up one level.
        """
        t, p = self.knots, self.degree
        fine = self.bisected()
        tau = fine.knots
        n_fine = fine.dim
        mu = np.clip(np.searchsorted(t, tau[:n_fine], side="right") - 1,
                     p, self.dim - 1)
        # after pass k, alpha[i, r] weighs coarse coefficient mu[i] - k + r
        alpha = np.ones((n_fine, 1))
        for k in range(1, p + 1):
            j = mu[:, None] + np.arange(1 - k, 1)
            x = tau[k: k + n_fine, None]
            w = (x - t[j]) / (t[j + k] - t[j])
            nxt = np.zeros((n_fine, k + 1))
            nxt[:, :k] = alpha * (1.0 - w)
            nxt[:, 1:] += alpha * w
            alpha = nxt
        P = sparse.csr_matrix(
            (alpha.ravel(), ((mu - p)[:, None] + np.arange(p + 1)).ravel(),
             np.arange(0, n_fine * (p + 1) + 1, p + 1)),
            shape=(n_fine, self.dim))
        P.eliminate_zeros()
        return fine, P

    def collocation(self, pts, nderiv: int = 0):
        """Dense collocation matrices at ``pts``: a (nderiv + 1, len(pts),
        dim) array, one matrix per derivative order 0..nderiv."""
        return self.dense(*self.eval_many(pts, nderiv))

    def interpolate(self, data):
        """Spline coefficients interpolating ``data`` at the Greville abscissae.

        ``data`` is either an array of length dim (scalar or vector values) or
        a callable evaluated at each abscissa.
        """
        g = self.greville
        if callable(data):
            y = np.array([data(t) for t in g], dtype=float)
        else:
            y = np.asarray(data, dtype=float)
            if len(y) != self.dim:
                raise InputError("interpolation data length mismatch")
        A = self.collocation(g)[0]
        return np.linalg.solve(A, y)


def uniform_knots(degree: int, nelems: int, c0_breaks=()) -> KnotVector:
    """Uniform open knot vector, optionally with degree-fold (C0) repetitions
    at the given breakpoints."""
    if nelems < 1:
        raise InputError("need at least one element")
    breaks = np.linspace(0.0, 1.0, nelems + 1)
    knots = [0.0] * (degree + 1)
    for b in breaks[1:-1]:
        rep = degree if any(abs(b - c) <= KNOT_TOL for c in c0_breaks) else 1
        knots.extend([b] * rep)
    knots.extend([1.0] * (degree + 1))
    return KnotVector(degree, knots)


class TensorBasis:
    """Tensor product of two knot vectors with xi-major flat numbering:
    flat index i = i_xi * n_eta + i_eta."""

    def __init__(self, kv_xi: KnotVector, kv_eta: KnotVector):
        self.kv_xi = kv_xi
        self.kv_eta = kv_eta

    @property
    def n_xi(self):
        return self.kv_xi.dim

    @property
    def n_eta(self):
        return self.kv_eta.dim

    @property
    def dim(self):
        return self.n_xi * self.n_eta

    def __repr__(self):
        return f"TensorBasis({self.kv_xi!r} x {self.kv_eta!r})"

    @cached_property
    def boundary_indices(self):
        """Flat indices of basis functions not vanishing on the boundary of
        the unit square."""
        ix, iy = np.meshgrid(np.arange(self.n_xi), np.arange(self.n_eta),
                             indexing="ij")
        mask = (ix == 0) | (ix == self.n_xi - 1) | (iy == 0) | (iy == self.n_eta - 1)
        return np.flatnonzero(mask.ravel())

    @cached_property
    def inner_indices(self):
        mask = np.ones(self.dim, dtype=bool)
        mask[self.boundary_indices] = False
        return np.flatnonzero(mask)

    def face_indices(self, face: str):
        """Flat indices along a face, ordered by the running parameter."""
        if face == "west":
            return np.arange(self.n_eta)
        if face == "east":
            return (self.n_xi - 1) * self.n_eta + np.arange(self.n_eta)
        if face == "south":
            return np.arange(self.n_xi) * self.n_eta
        if face == "north":
            return np.arange(self.n_xi) * self.n_eta + (self.n_eta - 1)
        raise InputError(f"unknown face {face!r}")

    def face_knotvector(self, face: str) -> KnotVector:
        return self.kv_eta if face in ("west", "east") else self.kv_xi

    def greville_grid(self):
        """(dim, 2) array of tensor Greville points in flat ordering."""
        gx = self.kv_xi.greville
        gy = self.kv_eta.greville
        out = np.empty((self.dim, 2))
        out[:, 0] = np.repeat(gx, self.n_eta)
        out[:, 1] = np.tile(gy, self.n_xi)
        return out

    def bisected(self) -> "TensorBasis":
        """The global h-refinement: both knot vectors bisected
        (:meth:`KnotVector.bisected`), without the prolongation."""
        return TensorBasis(self.kv_xi.bisected(), self.kv_eta.bisected())

    def refine(self):
        """Globally h-refine both directions; returns (fine basis,
        prolongation), the fine basis that of :meth:`bisected` and the
        prolongation the Kronecker product of the univariate ones of
        :meth:`KnotVector.refine`."""
        kx, Px = self.kv_xi.refine()
        ky, Py = self.kv_eta.refine()
        return TensorBasis(kx, ky), sparse.kron(Px, Py).tocsr()
