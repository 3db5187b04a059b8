"""Structured linear algebra: banded Cholesky factors in LAPACK band storage
(the frozen-metric Laplacian of the preconditioner), dense Cholesky factors
(the interface Schur complement of the auxiliary mass), Kronecker-product
solves for the tensor blocks of the auxiliary mass (two dense products with
the univariate inverses, each formed once by LAPACK ``potrf`` and
``potri``), and GMRES (Saad & Schultz, SISC 7, 1986) for the
Schur-complement systems."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
from scipy.linalg.lapack import dpbtrf, dpbtrs, dpotrf, dpotri, dpotrs

from .errors import FactorizationError, InputError


class Banded1DCholesky:
    """Lower banded Cholesky factor of an SPD banded matrix, by one LAPACK
    ``pbtrf`` call.

    The matrix M is given by its lower band storage, ``ab[d, j] = M[j + d,
    j]`` (the LAPACK layout, zero past the last row); a Fortran-ordered
    float ``ab`` is factored in place. The factor is never mutated; solves
    are reentrant.
    """

    def __init__(self, ab):
        cb, info = dpbtrf(ab, lower=1, overwrite_ab=1)
        if info < 0:
            raise InputError(f"pbtrf rejected argument {-info}")
        if info > 0:
            raise FactorizationError(
                f"matrix is not SPD: the leading minor of order {info} is "
                "not positive")
        # NaN passes the pivot test of pbtrf and spreads to the diagonal
        if not np.isfinite(cb[0]).all():
            raise FactorizationError("matrix is not finite")
        self.n = cb.shape[1]
        self.bandwidth = cb.shape[0] - 1
        self._cb = cb
        cb.setflags(write=False)

    def solve(self, rhs):
        """Solve M x = rhs for a vector or the columns of a matrix, by one
        LAPACK ``pbtrs`` call, and return x. A Fortran-ordered float
        ``rhs`` is solved in place and holds x afterwards; any other is
        copied first. Callers use the returned x."""
        if self.n == 0:
            # LAPACK refuses the leading dimension 0 of an empty rhs
            return np.array(rhs, dtype=float)
        x, info = dpbtrs(self._cb, rhs, lower=1, overwrite_b=1)
        if info:
            raise InputError(f"pbtrs rejected argument {-info}")
        return x


class DenseCholesky:
    """Lower Cholesky factor of a dense SPD matrix, by one LAPACK ``potrf``
    call; ``lower`` is the factor, Fortran-ordered with a zero strict upper
    triangle, and never mutated. Solves call LAPACK ``potrs`` directly: at
    the sizes of the interface Schur complement of the auxiliary mass,
    scipy's ``cho_solve`` wrapper costs as much again as the solve. Raises
    FactorizationError when the matrix is not SPD or not finite."""

    def __init__(self, matrix):
        M = np.asarray(matrix, dtype=float)
        if M.ndim != 2 or M.shape[0] != M.shape[1]:
            raise InputError("expected a square matrix")
        # clean: the factor's strict upper triangle is zero
        L, info = dpotrf(M, lower=1, clean=1)
        # NaN can pass the pivot test of potrf and spreads to the diagonal
        if info > 0 or not np.isfinite(np.diagonal(L)).all():
            raise FactorizationError("matrix is not SPD or not finite")
        L.setflags(write=False)
        self.lower = L

    def solve(self, rhs):
        """Solve M x = rhs for the columns of a matrix, by one LAPACK
        ``potrs`` call; ``rhs`` is left as it is and x is returned."""
        x, info = dpotrs(self.lower, rhs, lower=1)
        if info:
            raise InputError(f"potrs rejected argument {-info}")
        return x


def _spd_inverse(matrix):
    """Inverse of a dense SPD matrix from its :class:`DenseCholesky` factor
    by one LAPACK ``potri``, mirrored so that it is exactly symmetric.
    Raises FactorizationError when the matrix is not SPD."""
    # a factor with a positive diagonal always inverts; potri writes the
    # lower triangle alone, so adding the transpose mirrors it exactly
    inv, _ = dpotri(DenseCholesky(matrix).lower, lower=1)
    out = inv + inv.T
    np.fill_diagonal(out, np.diagonal(inv))
    return out


class KronSolver:
    """Applies (m_xi x m_eta)^-1 blockwise to stacked right-hand sides.

    The two univariate factors are SPD mass matrices, small and well
    conditioned, so their inverses are formed once, densely, by one LAPACK
    ``potrf`` and one ``potri`` each; a block solve is then two dense
    products, Mxi^-1 X Meta^-1 (the tensor-product direct solve of Lynch,
    Rice & Thomas, Numer. Math. 6, 1964). ``scale`` divides the result,
    accounting for a constant Jacobian factor multiplying the separable
    mass matrix. ``solve_count`` counts the blocks solved so far. Raises
    FactorizationError when a factor is not SPD.
    """

    def __init__(self, m_xi, m_eta, scale: float = 1.0):
        if scale == 0.0:
            raise InputError("scale must be nonzero")
        self.inv_xi = _spd_inverse(m_xi)
        self.inv_eta = _spd_inverse(m_eta)
        self.n_xi = len(self.inv_xi)
        self.n_eta = len(self.inv_eta)
        self.scale = float(scale)
        self.solve_count = 0

    def solve_block(self, rhs):
        """Solve k stacked (m_xi x m_eta) blocks with two dense products;
        rhs has shape (k * n_xi * n_eta,) or (k, n_xi * n_eta), each block
        in xi-major ordering, and the result has the shape of rhs."""
        rhs = np.asarray(rhs, dtype=float)
        n_xi, n_eta = self.n_xi, self.n_eta
        if rhs.ndim == 0 or rhs.shape[-1] % (n_xi * n_eta):
            raise InputError(
                f"rhs shape {rhs.shape} is not made of blocks of size "
                f"{n_xi * n_eta}")
        # one product for every row of every block, then one per block;
        # dividing last keeps a scaled solve one division from the unscaled
        Y = rhs.reshape(-1, n_eta) @ self.inv_eta
        X = self.inv_xi @ Y.reshape(-1, n_xi, n_eta)
        X /= self.scale
        self.solve_count += len(X)
        return X.reshape(rhs.shape)


@dataclass
class GmresResult:
    solution: np.ndarray
    converged: bool
    iterations: int
    residual_norms: list = field(default_factory=list)


def gmres(matvec, rhs, tol: float, max_iter: int) -> GmresResult:
    """GMRES with modified Gram-Schmidt and Givens rotations, in one Krylov
    cycle of at most ``max_iter`` iterations (one matvec each).

    Convergence criterion: ||rhs - A x|| <= tol * ||rhs||. On breakdown, on
    a singular operator (the Krylov space reaches its null space) or on
    iteration exhaustion the best iterate found so far is returned with
    ``converged`` reflecting the final residual estimate.
    ``residual_norms`` holds that estimate before the first iteration and
    after each one.
    """
    if max_iter < 1:
        raise InputError(f"max_iter must be at least 1, got {max_iter}")
    rhs = np.asarray(rhs, dtype=float)
    n = len(rhs)
    bnorm = float(np.linalg.norm(rhs))
    res = bnorm
    res_hist = [res]
    target = tol * bnorm
    if res <= target:
        return GmresResult(np.zeros(n), True, 0, res_hist)
    # every entry of the basis V and of the upper Hessenberg H is written
    # before it is read (the triangular solve reads H's upper triangle
    # alone), so a solve of k iterations touches k + 1 rows of each
    V = np.empty((max_iter + 1, n))
    H = np.empty((max_iter + 1, max_iter))
    cs = np.zeros(max_iter)
    sn = np.zeros(max_iter)
    g = np.zeros(max_iter + 1)
    g[0] = bnorm
    V[0] = rhs / bnorm
    k = 0
    for j in range(max_iter):
        # copy: a matvec may return its argument (e.g. the identity)
        w = np.array(matvec(V[j]), dtype=float)
        for i in range(j + 1):
            H[i, j] = V[i] @ w
            w -= H[i, j] * V[i]
        H[j + 1, j] = np.linalg.norm(w)
        # apply accumulated Givens rotations to the new column
        for i in range(j):
            h0 = cs[i] * H[i, j] + sn[i] * H[i + 1, j]
            H[i + 1, j] = -sn[i] * H[i, j] + cs[i] * H[i + 1, j]
            H[i, j] = h0
        denom = np.hypot(H[j, j], H[j + 1, j])
        if denom == 0.0:
            # A V[j] lies in A span(V[:j]): the Krylov space is invariant
            # and A is singular on it, so no iterate beats the last one
            res_hist.append(res)
            break
        cs[j], sn[j] = H[j, j] / denom, H[j + 1, j] / denom
        H[j, j] = cs[j] * H[j, j] + sn[j] * H[j + 1, j]
        g[j + 1] = -sn[j] * g[j]
        g[j] = cs[j] * g[j]
        res = abs(g[j + 1])
        res_hist.append(res)
        k = j + 1
        if res <= target or H[j + 1, j] <= 1e-300:
            break
        V[j + 1] = w / H[j + 1, j]
    y = scipy.linalg.solve_triangular(H[:k, :k], g[:k], lower=False,
                                      check_finite=False)
    return GmresResult(V[:k].T @ y, res <= target, len(res_hist) - 1, res_hist)
