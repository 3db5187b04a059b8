"""Galerkin assembly of the mixed first-order system.

The constant blocks (auxiliary mass A and derivative projections B) are
assembled once from separable univariate integrals; the nonlinear residual is
evaluated from per-element quadrature tables that are precomputed and reused
across all Newton iterations. Every problem is treated as a (possibly
1-patch) topology, so the single-patch pipeline and the degenerate multipatch
pipeline are the same code path.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import splu

from .errors import CornerMismatchError, InputError, ModeError
from .linalg import KronSolver
from .multipatch import PatchTopology, single_patch_topology
from .splines import KnotVector, TensorBasis, gauss_legendre

MODES = ("full", "xi", "eta")
# elements per block when the frozen-metric Laplacian is assembled
LAPLACIAN_CHUNK = 128


@dataclass
class QuadratureCache:
    """Per-patch Gauss points on the finest knot grid with precomputed basis
    tables for the primal and auxiliary bases.

    Element index is lexicographic (s-major); ``act_*`` arrays hold the local
    flat indices of the active functions per element.
    """
    n_el: int
    nq: int
    points: np.ndarray      # (n_el, nq, 2), strictly element-interior
    weights: np.ndarray     # (n_el, nq), sums to the local element area
    areas: np.ndarray       # (n_el,)
    act_sig: np.ndarray     # (n_el, na)
    act_bar: np.ndarray     # (n_el, nb)
    w: np.ndarray           # (n_el, nq, na) primal values
    w_s: np.ndarray
    w_t: np.ndarray
    wb_s: np.ndarray        # (n_el, nq, nb) auxiliary first derivatives
    wb_t: np.ndarray
    w_ss: np.ndarray | None = None
    w_st: np.ndarray | None = None
    w_tt: np.ndarray | None = None


def _direction_tables(kv_sig: KnotVector, kv_bar: KnotVector, nderiv_sig: int):
    """Univariate tables on every nonempty span of the fine knot vector.

    Gauss order is degree+1 per span, which integrates the auxiliary mass
    exactly. Returns points, weights and (first index, value table) pairs for
    both bases; tables are zero-padded above the degree.
    """
    p = kv_sig.degree
    nq = p + 1
    q, wq = gauss_legendre(nq)
    a = kv_bar.breakpoints[:-1]
    h = np.diff(kv_bar.breakpoints)
    n_es = len(h)
    pts = a[:, None] + h[:, None] * q[None, :]
    wts = h[:, None] * wq[None, :]
    first_s, tab_s = kv_sig.eval_many(pts.ravel(), nderiv_sig)
    first_b, tab_b = kv_bar.eval_many(pts.ravel(), 1)
    # all Gauss points of a span share its active functions
    first_s = first_s.reshape(n_es, nq)[:, 0]
    first_b = first_b.reshape(n_es, nq)[:, 0]
    tab_s = tab_s.reshape(n_es, nq, nderiv_sig + 1, p + 1)
    tab_b = tab_b.reshape(n_es, nq, 2, kv_bar.degree + 1)
    return pts, wts, first_s, tab_s, first_b, tab_b


def build_quadrature(sigma: TensorBasis, sigma_bar: TensorBasis,
                     need_second: bool = False) -> QuadratureCache:
    """Quadrature cache on the union grid of primal and auxiliary knot lines
    (the auxiliary grid, since it refines the primal one)."""
    for kc, kf in ((sigma.kv_xi, sigma_bar.kv_xi), (sigma.kv_eta, sigma_bar.kv_eta)):
        if not set(np.round(kc.breakpoints, 12)) <= set(np.round(kf.breakpoints, 12)):
            raise InputError("auxiliary knot lines must contain the primal ones")
    nds = 2 if need_second else 1
    ps_x, ws_x, fs_x, ts_x, fb_x, tb_x = _direction_tables(
        sigma.kv_xi, sigma_bar.kv_xi, nds)
    ps_y, ws_y, fs_y, ts_y, fb_y, tb_y = _direction_tables(
        sigma.kv_eta, sigma_bar.kv_eta, nds)
    n_es, n_et = len(fs_x), len(fs_y)
    n_el = n_es * n_et
    nqx, nqy = ps_x.shape[1], ps_y.shape[1]
    nq = nqx * nqy

    points = np.empty((n_es, n_et, nqx, nqy, 2))
    points[..., 0] = ps_x[:, None, :, None]
    points[..., 1] = ps_y[None, :, None, :]
    points = points.reshape(n_el, nq, 2)
    weights = (ws_x[:, None, :, None] * ws_y[None, :, None, :]).reshape(n_el, nq)
    areas = np.multiply.outer(
        np.diff(sigma_bar.kv_xi.breakpoints),
        np.diff(sigma_bar.kv_eta.breakpoints)).reshape(n_el)

    def active(first_x, first_y, nfx, nfy, n_eta):
        ax = np.arange(nfx)
        ay = np.arange(nfy)
        loc = ((first_x[:, None, None, None] + ax[None, None, :, None]) * n_eta
               + first_y[None, :, None, None] + ay[None, None, None, :])
        return loc.reshape(n_el, nfx * nfy)

    act_sig = active(fs_x, fs_y, sigma.kv_xi.degree + 1,
                     sigma.kv_eta.degree + 1, sigma.n_eta)
    act_bar = active(fb_x, fb_y, sigma_bar.kv_xi.degree + 1,
                     sigma_bar.kv_eta.degree + 1, sigma_bar.n_eta)

    def combine(tx, ty):
        out = np.einsum("eqa,frb->efqrab", tx, ty)
        na = tx.shape[2] * ty.shape[2]
        return out.reshape(n_el, nq, na)

    cache = QuadratureCache(
        n_el=n_el, nq=nq, points=points, weights=weights, areas=areas,
        act_sig=act_sig, act_bar=act_bar,
        w=combine(ts_x[:, :, 0], ts_y[:, :, 0]),
        w_s=combine(ts_x[:, :, 1], ts_y[:, :, 0]),
        w_t=combine(ts_x[:, :, 0], ts_y[:, :, 1]),
        wb_s=combine(tb_x[:, :, 1], tb_y[:, :, 0]),
        wb_t=combine(tb_x[:, :, 0], tb_y[:, :, 1]))
    if need_second:
        cache.w_ss = combine(ts_x[:, :, 2], ts_y[:, :, 0])
        cache.w_st = combine(ts_x[:, :, 1], ts_y[:, :, 1])
        cache.w_tt = combine(ts_x[:, :, 0], ts_y[:, :, 2])
    return cache


def _univariate_matrices(kv_bar: KnotVector, kv_sig: KnotVector):
    """Dense univariate integral factors over the fine span grid:
    mbar[i,j] = int wbar_i wbar_j, obar[i,j] = int wbar_i w_j,
    kbar[i,j] = int wbar_i w_j'."""
    p = max(kv_bar.degree, kv_sig.degree)
    q, wq = gauss_legendre(p + 1)
    a = kv_bar.breakpoints[:-1]
    h = np.diff(kv_bar.breakpoints)
    pts = a[:, None] + h[:, None] * q[None, :]
    wts = h[:, None] * wq[None, :]
    n_e, nq = pts.shape
    first_b, tab_b = kv_bar.eval_many(pts.ravel(), 0)
    first_s, tab_s = kv_sig.eval_many(pts.ravel(), 1)
    tab_b = tab_b.reshape(n_e, nq, 1, kv_bar.degree + 1)
    tab_s = tab_s.reshape(n_e, nq, 2, kv_sig.degree + 1)
    mbar = np.zeros((kv_bar.dim, kv_bar.dim))
    obar = np.zeros((kv_bar.dim, kv_sig.dim))
    kbar = np.zeros((kv_bar.dim, kv_sig.dim))
    for e in range(n_e):
        fb, fs = first_b[e * nq], first_s[e * nq]
        sb = slice(fb, fb + kv_bar.degree + 1)
        ss = slice(fs, fs + kv_sig.degree + 1)
        for wt, tb, ts in zip(wts[e], tab_b[e], tab_s[e]):
            mbar[sb, sb] += wt * np.outer(tb[0], tb[0])
            obar[sb, ss] += wt * np.outer(tb[0], ts[0])
            kbar[sb, ss] += wt * np.outer(tb[0], ts[1])
    return mbar, obar, kbar


@dataclass
class _PatchContext:
    cache: QuadratureCache
    act_sig_glob: np.ndarray
    act_bar_glob: np.ndarray
    inv_a: np.ndarray
    vol: float
    kron: KronSolver


class MixedSystem:
    """Assembled mixed system on a patch topology.

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
        if mu <= 0.0:
            raise InputError(f"mu must be positive, got {mu}")
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
        self._build_matrices(univariate)
        self.rn_eval_count = 0
        self.last_min_denominator = np.inf
        self._blocks = None

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
        need_second = self.mode != "full"
        self.patches = []
        for i in range(topo.n_patches):
            cache = build_quadrature(topo.bases[i], topo.bar_bases[i], need_second)
            am = topo.maps[i]
            (mbar_s, _, _), (mbar_t, _, _) = univariate[i]
            vol = abs(am.det)
            self.patches.append(_PatchContext(
                cache=cache,
                act_sig_glob=topo.sig_l2g[i][cache.act_sig],
                act_bar_glob=topo.bar_l2g[i][cache.act_bar],
                inv_a=am.inv,
                vol=vol,
                kron=KronSolver(mbar_s, mbar_t, scale=vol)))

    def _build_matrices(self, univariate):
        """Global sparse operators on the discontinuous union:
        ``_mt_gather`` maps coupled auxiliary coefficients to union moments,
        ``_btilde[dir]`` maps full primal coefficient vectors to union moments
        of the corresponding derivative."""
        topo = self.topology
        offs = topo.tilde_offsets
        mt_blocks = []
        coo = {"xi": [], "eta": []}
        for i in range(topo.n_patches):
            am = topo.maps[i]
            vol = abs(am.det)
            ia = am.inv
            (mbar_s, obar_s, kbar_s), (mbar_t, obar_t, kbar_t) = univariate[i]
            mt_blocks.append(vol * sparse.kron(
                sparse.csr_matrix(mbar_s), sparse.csr_matrix(mbar_t)))
            ks = sparse.kron(sparse.csr_matrix(kbar_s), sparse.csr_matrix(obar_t))
            kt = sparse.kron(sparse.csr_matrix(obar_s), sparse.csr_matrix(kbar_t))
            for key, col in (("xi", 0), ("eta", 1)):
                mat = (vol * (ia[0, col] * ks + ia[1, col] * kt)).tocoo()
                coo[key].append((mat.data, mat.row + offs[i],
                                 topo.sig_l2g[i][mat.col]))
        n_tilde = topo.n_tilde
        self._btilde = {}
        for key, blocks in coo.items():
            vals, rows, cols = map(np.concatenate, zip(*blocks))
            self._btilde[key] = sparse.csr_matrix(
                (vals, (rows, cols)), shape=(n_tilde, topo.n_sigma))
        self._tilde2g = topo.tilde_to_global()
        gather = sparse.csr_matrix(
            (np.ones(n_tilde), (np.arange(n_tilde), self._tilde2g)),
            shape=(n_tilde, topo.n_sigbar))
        self._gather_bar = gather
        self._mt_gather = sparse.block_diag(mt_blocks, format="csr") @ gather
        # with coupled DOFs the coupled mass is factored once here by a sparse
        # LU with a fill-reducing symmetric ordering; it is SPD, so no pivoting
        self._coupled = topo.n_tilde != topo.n_sigbar
        self._mass_lu = None
        if self._coupled:
            self._mass_lu = splu(
                (gather.T @ self._mt_gather).tocsc(), permc_spec="MMD_AT_PLUS_A",
                diag_pivot_thresh=0.0, options={"SymmetricMode": True})

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
        per auxiliary field."""
        net = self.full_control_net(c)
        d = np.asarray(d, dtype=float).reshape(self.n_fields, -1)
        out = np.empty((self.n_fields, self.topology.n_tilde))
        for f, (direction, comp) in enumerate(self.fields):
            out[f] = self._mt_gather @ d[f] - self._btilde[direction] @ net[:, comp]
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

    # -- nonlinear part ------------------------------------------------------

    def _gather_aux(self, cache_act, d, f0):
        """(n_el, nb, 2) coefficients of one auxiliary vector field."""
        return np.stack([d[f0][cache_act], d[f0 + 1][cache_act]], axis=-1)

    def eval_RN(self, d, c):
        """Nonlinear residual: moments of the scaled operator against every
        inner primal basis function, components stacked (x..., y...)."""
        topo = self.topology
        net = self.full_control_net(c)
        d = np.asarray(d, dtype=float).reshape(self.n_fields, -1)
        res = np.zeros((topo.n_sigma, 2))
        min_denom = np.inf
        for ctx in self.patches:
            q = ctx.cache
            ia = ctx.inv_a
            C = net[ctx.act_sig_glob]
            x_s = q.w_s @ C
            x_t = q.w_t @ C
            x_xi = ia[0, 0] * x_s + ia[1, 0] * x_t
            x_eta = ia[0, 1] * x_s + ia[1, 1] * x_t
            g11 = np.einsum("eqc,eqc->eq", x_xi, x_xi)
            g12 = np.einsum("eqc,eqc->eq", x_xi, x_eta)
            g22 = np.einsum("eqc,eqc->eq", x_eta, x_eta)
            denom = g11 + g22 + self.mu
            min_denom = min(min_denom, float(denom.min()))

            def aux_derivs(f0):
                D = self._gather_aux(ctx.act_bar_glob, d, f0)
                a_s = q.wb_s @ D
                a_t = q.wb_t @ D
                return (ia[0, 0] * a_s + ia[1, 0] * a_t,
                        ia[0, 1] * a_s + ia[1, 1] * a_t)

            if self.mode != "full":
                x_ss = q.w_ss @ C
                x_st = q.w_st @ C
                x_tt = q.w_tt @ C
                x_xieta = (ia[0, 0] * ia[0, 1] * x_ss
                           + (ia[0, 0] * ia[1, 1] + ia[1, 0] * ia[0, 1]) * x_st
                           + ia[1, 0] * ia[1, 1] * x_tt)

            g11e = g11[..., None]
            g12e = g12[..., None]
            g22e = g22[..., None]
            chi = self.chi
            if self.mode == "full":
                u_xi, u_eta = aux_derivs(0)
                v_xi, v_eta = aux_derivs(2)
                num = (g22e * u_xi - 2.0 * g12e * (chi * u_eta + (1 - chi) * v_xi)
                       + g11e * v_eta)
            elif self.mode == "xi":
                u_xi, u_eta = aux_derivs(0)
                x_etaeta = (ia[0, 1] ** 2 * x_ss
                            + 2.0 * ia[0, 1] * ia[1, 1] * x_st
                            + ia[1, 1] ** 2 * x_tt)
                num = (g22e * u_xi - 2.0 * g12e * (chi * u_eta + (1 - chi) * x_xieta)
                       + g11e * x_etaeta)
            else:
                v_xi, v_eta = aux_derivs(0)
                x_xixi = (ia[0, 0] ** 2 * x_ss
                          + 2.0 * ia[0, 0] * ia[1, 0] * x_st
                          + ia[1, 0] ** 2 * x_tt)
                num = (g22e * x_xixi - 2.0 * g12e * (chi * x_xieta + (1 - chi) * v_xi)
                       + g11e * v_eta)
            U = num / denom[..., None]
            wU = (ctx.vol * q.weights)[..., None] * U
            contrib = np.swapaxes(q.w, 1, 2) @ wU
            idx = ctx.act_sig_glob.ravel()
            for comp in range(2):
                res[:, comp] += np.bincount(idx, weights=contrib[..., comp].ravel(),
                                            minlength=topo.n_sigma)
        self.rn_eval_count += 1
        self.last_min_denominator = min_denom
        inner = topo.inner_indices
        return np.concatenate([res[inner, 0], res[inner, 1]])

    # -- Schur preconditioner ------------------------------------------------

    def _chunks(self):
        """(patch context, element slice) blocks of at most ``LAPLACIAN_CHUNK``
        elements, in a fixed order."""
        for ctx in self.patches:
            for e0 in range(0, ctx.cache.n_el, LAPLACIAN_CHUNK):
                yield ctx, slice(e0, e0 + LAPLACIAN_CHUNK)

    @functools.cached_property
    def _laplacian_pattern(self):
        """Fixed CSR pattern of the inner primal couplings, built on first
        use: ``(indices, indptr, positions)``, where ``positions`` holds per
        block of :meth:`_chunks` the place in the CSR data of every
        element-matrix entry (nnz for one in a boundary row or column)."""
        n = self.n_inner
        inner_of = np.full(self.topology.n_sigma, -1)
        inner_of[self.topology.inner_indices] = np.arange(n)

        def keys(ctx, els):
            loc = inner_of[ctx.act_sig_glob[els]]
            key = loc[:, :, None] * n + loc[:, None, :]
            return np.where((loc[:, :, None] < 0) | (loc[:, None, :] < 0),
                            n * n, key)

        chunk_keys = [keys(ctx, els) for ctx, els in self._chunks()]
        pattern = np.unique(np.concatenate([k.ravel() for k in chunk_keys]))
        pattern = pattern[pattern < n * n]
        positions = [np.searchsorted(pattern, k).astype(np.int32)
                     for k in chunk_keys]
        indptr = np.searchsorted(pattern // n, np.arange(n + 1))
        return (pattern % n).astype(np.int32), indptr.astype(np.int32), positions

    def frozen_laplacian(self, c):
        """Frozen-metric Laplacian on the inner primal basis at the iterate c:
        K_ij = int grad(w_i)^T Q grad(w_j) / (g11 + g22 + mu), gradients in
        (xi, eta), with Q = [[g22 + mu/2, -g12], [-g12, g11 + mu/2]].

        -K is the principal part of the Schur operator with the metric frozen
        (integrate the numerator of R_N by parts). The mu/2 shift makes Q
        positive definite at every point, det Q >= mu/2 (g11 + g22) + mu^2/4,
        so K is SPD even on folded iterates. Element matrices are formed one
        block of :meth:`_chunks` at a time and summed into the fixed pattern,
        so the temporaries stay small; returns a CSR matrix."""
        indices, indptr, positions = self._laplacian_pattern
        nnz = len(indices)
        data = np.zeros(nnz + 1)
        net = self.full_control_net(c)
        half_mu = 0.5 * self.mu
        for (ctx, els), pos in zip(self._chunks(), positions):
            q = ctx.cache
            ia = ctx.inv_a
            w_xi = ia[0, 0] * q.w_s[els] + ia[1, 0] * q.w_t[els]
            w_eta = ia[0, 1] * q.w_s[els] + ia[1, 1] * q.w_t[els]
            C = net[ctx.act_sig_glob[els]]
            x_xi = w_xi @ C
            x_eta = w_eta @ C
            g11 = np.einsum("eqc,eqc->eq", x_xi, x_xi)
            g12 = np.einsum("eqc,eqc->eq", x_xi, x_eta)
            g22 = np.einsum("eqc,eqc->eq", x_eta, x_eta)
            scale = ctx.vol * q.weights[els] / (g11 + g22 + self.mu)
            q11 = (scale * (g22 + half_mu))[..., None]
            q12 = (scale * -g12)[..., None]
            q22 = (scale * (g11 + half_mu))[..., None]
            # element matrices: sum over points of grad(w_i)^T (scaled Q) grad(w_j)
            grads = np.concatenate([w_xi, w_eta], axis=1)
            flux = np.concatenate([q11 * w_xi + q12 * w_eta,
                                   q12 * w_xi + q22 * w_eta], axis=1)
            Ke = np.swapaxes(grads, 1, 2) @ flux
            data += np.bincount(pos.ravel(), weights=Ke.ravel(),
                                minlength=nnz + 1)
        n = self.n_inner
        return sparse.csr_matrix((data[:nnz], indices, indptr), shape=(n, n))

    def laplace_preconditioner(self, c):
        """P^-1 for the Schur operator at the iterate c, with P = -K on each
        component (K from :meth:`frozen_laplacian`): a callable taking and
        returning vectors in the (x..., y...) layout. K is factored once by
        a sparse LU with a fill-reducing symmetric ordering (it is SPD, so
        without pivoting) and both components are solved in one call."""
        lu = splu(self.frozen_laplacian(c).tocsc(), permc_spec="MMD_AT_PLUS_A",
                  diag_pivot_thresh=0.0, options={"SymmetricMode": True})
        n = self.n_inner

        def apply(y):
            return -lu.solve(np.reshape(y, (2, n)).T).T.ravel()
        return apply

    # -- A^-1 products -------------------------------------------------------

    def ainv_tilde(self, tilde):
        """Exact patchwise solve of the block-diagonal union mass matrix, all
        fields of a patch in one batched Kronecker solve."""
        tilde = np.atleast_2d(tilde)
        offs = self.topology.tilde_offsets
        out = np.empty_like(tilde)
        for i, ctx in enumerate(self.patches):
            out[:, offs[i]: offs[i + 1]] = ctx.kron.solve_block(
                tilde[:, offs[i]: offs[i + 1]])
        return out

    def _derivative_moments(self, net):
        """Union moments of (x_xi, x_eta) fields of a full control net, one
        row per auxiliary field."""
        out = np.empty((self.n_fields, self.topology.n_tilde))
        for f, (direction, comp) in enumerate(self.fields):
            out[f] = self._btilde[direction] @ net[:, comp]
        return out

    def _mass_pcg(self, coupled):
        """Coupled A^-1 applied to every row of ``coupled`` (coupled moments,
        one row per field) by one multi-RHS solve with the sparse LU factor
        computed at construction. The name is that of the conjugate-gradient
        solve this replaced; ``perfbench/tracing.py`` looks the method up by
        it."""
        return self._mass_lu.solve(coupled.T).T

    def ainv_exact(self, tilde):
        """Exact coupled A^-1 applied to union moments: the factored coupled
        mass, or the patchwise Kronecker solves when nothing is coupled (the
        restriction is then the identity)."""
        if not self._coupled:
            return self.ainv_tilde(tilde)
        return self._mass_pcg(self.reduce_tilde(tilde))

    def apply_ainv_b(self, s):
        """A^-1 B s, solved exactly for all fields in one call (batched
        patchwise Kronecker factors when uncoupled, the factored coupled mass
        otherwise)."""
        net = np.zeros((self.topology.n_sigma, 2))
        net[self.topology.inner_indices] = self.c_as_net(s)
        return self.ainv_exact(self._derivative_moments(net)).ravel()

    def project_d(self, c):
        """Auxiliary coefficients from the L2 projection of x_xi and x_eta of
        the current map (boundary included); exact also under coupling."""
        net = self.full_control_net(c)
        return self.ainv_exact(self._derivative_moments(net)).ravel()

    def solve_delta_d(self, a_tilde, delta_c):
        """A delta_d = a + B delta_c, solved exactly for all fields in one
        call (batched patchwise Kronecker factors when uncoupled, the
        factored coupled mass otherwise); ``a_tilde`` are the union moments
        of a (sign already applied)."""
        net = np.zeros((self.topology.n_sigma, 2))
        net[self.topology.inner_indices] = self.c_as_net(delta_c)
        return self.ainv_exact(
            a_tilde + self._derivative_moments(net)).ravel()

    # -- assembled constant blocks (tests and small problems) ----------------

    def assemble_constant_blocks(self):
        """Sparse (A, B, B_bnd) with A = diag(coupled mass) per field and the
        derivative-projection columns split into inner and boundary parts."""
        if self._blocks is None:
            topo = self.topology
            mglob = (self._gather_bar.T @ self._mt_gather).tocsr()
            bglob = {direction: (self._gather_bar.T @ self._btilde[direction]).tocsr()
                     for direction in ("xi", "eta")}
            A = sparse.block_diag([mglob] * self.n_fields, format="csr")
            inner, bnd = topo.inner_indices, topo.boundary_indices
            rows_in, rows_bnd = [], []
            for direction, comp in self.fields:
                row_in = [None, None]
                row_bnd = [None, None]
                row_in[comp] = bglob[direction][:, inner]
                row_bnd[comp] = bglob[direction][:, bnd]
                rows_in.append(row_in)
                rows_bnd.append(row_bnd)
            B = sparse.bmat(rows_in, format="csr")
            B_bnd = sparse.bmat(rows_bnd, format="csr")
            self._blocks = (A, B, B_bnd)
        return self._blocks

    @property
    def boundary_c(self):
        """Boundary coefficients in the (x..., y...) layout matching B_bnd."""
        b = self._template[self.topology.boundary_indices]
        return np.concatenate([b[:, 0], b[:, 1]])


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

