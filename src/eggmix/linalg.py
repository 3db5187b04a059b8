"""Structured linear algebra: banded Cholesky factors for univariate mass
matrices, Kronecker-product solves for the tensor blocks of the auxiliary
mass, and a restarted GMRES used for the Schur-complement systems."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
from scipy.linalg.lapack import dpbtrs

from .errors import FactorizationError, InputError


class Banded1DCholesky:
    """Lower banded Cholesky factor of an SPD banded matrix.

    The factor is computed once and never mutated; solves are reentrant.
    """

    def __init__(self, matrix):
        M = np.asarray(matrix, dtype=float)
        if M.ndim != 2 or M.shape[0] != M.shape[1]:
            raise InputError("expected a square matrix")
        if not np.allclose(M, M.T, atol=1e-12, rtol=1e-12):
            raise FactorizationError("matrix is not symmetric")
        n = M.shape[0]
        nz = np.nonzero(M)
        bw = int(np.abs(nz[0] - nz[1]).max()) if nz[0].size else 0
        ab = np.zeros((bw + 1, n))
        for d in range(bw + 1):
            ab[d, : n - d] = np.diagonal(M, -d)
        try:
            cb = scipy.linalg.cholesky_banded(ab, lower=True)
        except scipy.linalg.LinAlgError as exc:
            raise FactorizationError(f"matrix is not SPD: {exc}") from exc
        self.n = n
        self.bandwidth = bw
        self._cb = cb
        cb.setflags(write=False)

    def solve(self, rhs, overwrite=False):
        """Solve M x = rhs for a vector or the columns of a matrix, by one
        LAPACK ``pbtrs`` call. With ``overwrite`` a Fortran-ordered float
        ``rhs`` is solved in place."""
        x, info = dpbtrs(self._cb, rhs, lower=1, overwrite_b=overwrite)
        if info:
            raise InputError(f"pbtrs rejected argument {-info}")
        return x

    def dense_factor(self):
        """Reconstruct the dense lower-triangular factor (for tests)."""
        L = np.zeros((self.n, self.n))
        for d in range(self.bandwidth + 1):
            L += np.diag(self._cb[d, : self.n - d], -d)
        return L


class KronSolver:
    """Applies (m_xi x m_eta)^-1 blockwise to stacked right-hand sides.

    ``scale`` divides the result, accounting for a constant Jacobian factor
    multiplying the separable mass matrix. ``solve_count`` counts the blocks
    solved so far.
    """

    def __init__(self, m_xi, m_eta, scale: float = 1.0):
        if scale == 0.0:
            raise InputError("scale must be nonzero")
        self.chol_xi = Banded1DCholesky(m_xi)
        self.chol_eta = Banded1DCholesky(m_eta)
        self.n_xi = self.chol_xi.n
        self.n_eta = self.chol_eta.n
        self.scale = float(scale)
        self.solve_count = 0

    def solve_block(self, rhs):
        """Solve k stacked (m_xi x m_eta) blocks with one pair of banded
        solves; rhs has shape (k * n_xi * n_eta,) or (k, n_xi * n_eta), each
        block in xi-major ordering, and the result has the shape of rhs."""
        rhs = np.asarray(rhs, dtype=float)
        n_xi, n_eta = self.n_xi, self.n_eta
        if rhs.ndim == 0 or rhs.shape[-1] % (n_xi * n_eta):
            raise InputError(
                f"rhs shape {rhs.shape} is not made of blocks of size "
                f"{n_xi * n_eta}")
        X = rhs.reshape(-1, n_xi, n_eta)
        k = X.shape[0]
        # each direction is solved down the columns of a Fortran-ordered
        # matrix, made by one transposing copy and solved in place
        Y = self.chol_xi.solve(
            X.transpose(0, 2, 1).copy().reshape(k * n_eta, n_xi).T, overwrite=True)
        Y = Y.T.reshape(k, n_eta, n_xi).transpose(0, 2, 1).copy()
        Z = self.chol_eta.solve(Y.reshape(k * n_xi, n_eta).T, overwrite=True)
        self.solve_count += k
        return (Z.T / self.scale).reshape(rhs.shape)


@dataclass
class GmresResult:
    solution: np.ndarray
    converged: bool
    iterations: int
    matvec_count: int
    residual_norms: list = field(default_factory=list)


def gmres(matvec, rhs, tol: float = 1e-3, restart: int = 50,
          max_iter: int = 200) -> GmresResult:
    """Restarted GMRES with modified Gram-Schmidt and Givens rotations.

    Convergence criterion: ||rhs - A x|| <= tol * ||rhs||. On breakdown or
    iteration exhaustion the best iterate found so far is returned with
    ``converged`` reflecting the final residual estimate.
    """
    rhs = np.asarray(rhs, dtype=float)
    n = len(rhs)
    bnorm = float(np.linalg.norm(rhs))
    if n == 0 or bnorm == 0.0:
        return GmresResult(np.zeros(n), True, 0, 0, [0.0])
    target = tol * bnorm
    x = np.zeros(n)
    total_it = 0
    mv = 0
    res_hist = [bnorm]
    res = bnorm
    first_cycle = True

    while total_it < max_iter:
        if first_cycle:
            r = rhs.copy()
            first_cycle = False
        else:
            r = rhs - matvec(x)
            mv += 1
        beta = float(np.linalg.norm(r))
        if beta <= target:
            return GmresResult(x, True, total_it, mv, res_hist)
        m = min(restart, max_iter - total_it)
        V = np.zeros((m + 1, n))
        H = np.zeros((m + 1, m))
        cs = np.zeros(m)
        sn = np.zeros(m)
        g = np.zeros(m + 1)
        g[0] = beta
        V[0] = r / beta
        k = 0
        breakdown = False
        for j in range(m):
            # copy: a matvec may return its argument (e.g. the identity)
            w = np.array(matvec(V[j]), dtype=float)
            mv += 1
            total_it += 1
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
                cs[j], sn[j] = 1.0, 0.0
            else:
                cs[j], sn[j] = H[j, j] / denom, H[j + 1, j] / denom
            H[j, j] = cs[j] * H[j, j] + sn[j] * H[j + 1, j]
            g[j + 1] = -sn[j] * g[j]
            g[j] = cs[j] * g[j]
            res = abs(g[j + 1])
            res_hist.append(res)
            k = j + 1
            if H[j + 1, j] <= 1e-300:
                breakdown = True
                break
            V[j + 1] = w / H[j + 1, j]
            if res <= target:
                break
        if k > 0:
            y = scipy.linalg.solve_triangular(H[:k, :k], g[:k], lower=False)
            x = x + V[:k].T @ y
        if res <= target:
            return GmresResult(x, True, total_it, mv, res_hist)
        if breakdown:
            return GmresResult(x, res <= target, total_it, mv, res_hist)
    return GmresResult(x, False, total_it, mv, res_hist)
