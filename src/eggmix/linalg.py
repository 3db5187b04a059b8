"""Structured linear algebra: banded Cholesky factors for univariate mass
matrices and for the frozen-metric Laplacian, Kronecker-product solves for
the tensor blocks of the auxiliary mass (two dense products with the
univariate inverses, formed once from the banded factors), and a restarted
GMRES used for the Schur-complement systems."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
from scipy.linalg.lapack import dpbtrf, dpbtrs

from .errors import FactorizationError, InputError


class Banded1DCholesky:
    """Lower banded Cholesky factor of an SPD banded matrix, by one LAPACK
    ``pbtrf`` call.

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
        ab = np.zeros((bw + 1, n), order="F")
        for d in range(bw + 1):
            ab[d, : n - d] = np.diagonal(M, -d)
        self._factor(ab)

    @classmethod
    def from_band(cls, ab):
        """Factor of the SPD matrix M given by its lower band storage,
        ``ab[d, j] = M[j + d, j]`` (the LAPACK layout, zero past the last
        row). A Fortran-ordered float ``ab`` is factored in place."""
        chol = cls.__new__(cls)
        chol._factor(ab)
        return chol

    def _factor(self, ab):
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

    def solve(self, rhs, overwrite=False):
        """Solve M x = rhs for a vector or the columns of a matrix, by one
        LAPACK ``pbtrs`` call. With ``overwrite`` a Fortran-ordered float
        ``rhs`` is solved in place."""
        if self.n == 0:
            # LAPACK refuses the leading dimension 0 of an empty rhs
            return np.array(rhs, dtype=float)
        x, info = dpbtrs(self._cb, rhs, lower=1, overwrite_b=overwrite)
        if info:
            raise InputError(f"pbtrs rejected argument {-info}")
        return x


class KronSolver:
    """Applies (m_xi x m_eta)^-1 blockwise to stacked right-hand sides.

    The two univariate factors are SPD mass matrices, small and well
    conditioned, so their inverses are formed once, densely, by one banded
    Cholesky solve on the identity each; a block solve is then two dense
    products, Mxi^-1 X Meta^-1 (the tensor-product direct solve of Lynch,
    Rice & Thomas, Numer. Math. 6, 1964). ``scale`` divides the result,
    accounting for a constant Jacobian factor multiplying the separable
    mass matrix. ``solve_count`` counts the blocks solved so far.
    """

    def __init__(self, m_xi, m_eta, scale: float = 1.0):
        if scale == 0.0:
            raise InputError("scale must be nonzero")
        self.inv_xi = _inverse(Banded1DCholesky(m_xi))
        self.inv_eta = _inverse(Banded1DCholesky(m_eta))
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


def _inverse(chol):
    """Dense inverse of the matrix factored by ``chol``."""
    return np.ascontiguousarray(chol.solve(np.eye(chol.n, order="F"), overwrite=True))


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
    if restart < 1:
        raise InputError(f"restart must be at least 1, got {restart}")
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
