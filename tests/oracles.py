"""Independent reference implementations used as test oracles.

Everything here is deliberately naive (textbook recursions, dense algebra,
plain finite differences) and shares no code with the library paths it
checks.
"""

import numpy as np
from scipy import sparse


def naive_bspline(knots, p, i, x, deriv=0):
    """Value or derivative of basis function i by the plain two-term
    recursion; right-continuous with closure at the right end."""
    knots = np.asarray(knots, dtype=float)
    if deriv > 0:
        a = knots[i + p] - knots[i]
        b = knots[i + p + 1] - knots[i + 1]
        left = naive_bspline(knots, p - 1, i, x, deriv - 1) / a if a > 0 else 0.0
        right = naive_bspline(knots, p - 1, i + 1, x, deriv - 1) / b if b > 0 else 0.0
        return p * (left - right)
    if p == 0:
        if knots[i] <= x < knots[i + 1]:
            return 1.0
        if x == knots[-1] and knots[i] < knots[i + 1] and knots[i + 1] == knots[-1]:
            return 1.0
        return 0.0
    a = knots[i + p] - knots[i]
    b = knots[i + p + 1] - knots[i + 1]
    va = (x - knots[i]) / a * naive_bspline(knots, p - 1, i, x) if a > 0 else 0.0
    vb = (knots[i + p + 1] - x) / b * naive_bspline(knots, p - 1, i + 1, x) if b > 0 else 0.0
    return va + vb


def naive_all_values(kv, x, deriv=0):
    """All basis values at x via the naive recursion (length kv.dim)."""
    return np.array([naive_bspline(kv.knots, kv.degree, i, x, deriv)
                     for i in range(kv.dim)])


def a23_ders_basis(t, p, span, x, n):
    """Values and first ``n`` derivatives of the p+1 basis functions active
    on knot span ``span[i]`` at ``x[i]``: algorithm A2.3 of Piegl & Tiller,
    The NURBS Book, one basis index r at a time as the book writes it,
    vectorised over the points only. Returns an array of shape (n + 1, p +
    1, len(x)). The batched kernel of ``KnotVector.eval_many`` must match
    it bit for bit."""
    m = len(x)
    ndu = np.empty((p + 1, p + 1, m))
    left = np.empty((p + 1, m))
    right = np.empty((p + 1, m))
    ndu[0, 0] = 1.0
    for j in range(1, p + 1):
        left[j] = x - t[span + 1 - j]
        right[j] = t[span + j] - x
        saved = 0.0
        for r in range(j):
            ndu[j, r] = right[r + 1] + left[j - r]
            temp = ndu[r, j - 1] / ndu[j, r]
            ndu[r, j] = saved + right[r + 1] * temp
            saved = left[j - r] * temp
        ndu[j, j] = saved
    ders = np.zeros((n + 1, p + 1, m))
    ders[0] = ndu[:, p]
    a = np.empty((2, p + 1, m))
    for r in range(p + 1):
        s1, s2 = 0, 1
        a[0, 0] = 1.0
        for k in range(1, n + 1):
            d = 0.0
            rk = r - k
            pk = p - k
            if r >= k:
                a[s2, 0] = a[s1, 0] / ndu[pk + 1, rk]
                d = a[s2, 0] * ndu[rk, pk]
            j1 = 1 if rk >= -1 else -rk
            j2 = k - 1 if r - 1 <= pk else p - r
            for j in range(j1, j2 + 1):
                a[s2, j] = (a[s1, j] - a[s1, j - 1]) / ndu[pk + 1, rk + j]
                d = d + a[s2, j] * ndu[rk + j, pk]
            if r <= pk:
                a[s2, k] = -a[s1, k - 1] / ndu[pk + 1, r]
                d = d + a[s2, k] * ndu[r, pk]
            ders[k, r] = d
            s1, s2 = s2, s1
    fac = float(p)
    for k in range(1, n + 1):
        ders[k] *= fac
        fac *= p - k
    return ders


def a23_eval_many(kv, pts, nderiv):
    """``(first, table)`` as ``KnotVector.eval_many`` returns it, from the
    span search the library used with :func:`a23_ders_basis`: the last
    knot <= x, clipped to the spans p .. dim - 1, derivative orders above
    the degree zero-padded."""
    pts = np.asarray(pts, dtype=float)
    p = kv.degree
    span = np.clip(np.searchsorted(kv.knots, pts, side="right") - 1, p, kv.dim - 1)
    tab = np.zeros((len(pts), nderiv + 1, p + 1))
    n = min(nderiv, p)
    tab[:, : n + 1] = np.moveaxis(a23_ders_basis(kv.knots, p, span, pts, n), 2, 0)
    return span - p, tab


def reference_univariate_integral(kv_a, kv_b, da=0, db=0, order=12):
    """Dense matrix of integrals of the da-th derivative of kv_a's basis
    against the db-th derivative of kv_b's basis, with a high-order
    Gauss rule per span of the union breakpoint grid."""
    breaks = np.union1d(kv_a.breakpoints, kv_b.breakpoints)
    q, w = np.polynomial.legendre.leggauss(order)
    q = 0.5 * (q + 1.0)
    w = 0.5 * w
    M = np.zeros((kv_a.dim, kv_b.dim))
    for a, b in zip(breaks[:-1], breaks[1:]):
        for t, wt in zip(a + (b - a) * q, (b - a) * w):
            va = dense_row(kv_a, t, da)
            vb = dense_row(kv_b, t, db)
            M += wt * np.outer(va, vb)
    return M


def dense_row(kv, x, deriv=0):
    first, tab = kv.eval_many([x], deriv)
    row = np.zeros(kv.dim)
    row[first[0]: first[0] + kv.degree + 1] = tab[0, deriv]
    return row


def loop_collocation(kv, pts, nderiv=0):
    """Collocation matrices built point by point from ``eval_many`` at one
    point each: the per-point loop the vectorised ``KnotVector.collocation``
    replaced. It checks span lookup and scatter; the recursion itself is
    checked against ``naive_bspline``."""
    out = [np.zeros((len(pts), kv.dim)) for _ in range(nderiv + 1)]
    for i, x in enumerate(pts):
        first, tab = kv.eval_many([x], nderiv)
        for k in range(nderiv + 1):
            out[k][i, first[0]: first[0] + kv.degree + 1] = tab[0, k]
    return out


def fd_jacobian_blocks(system, d, c, h=1e-6):
    """Central-difference Jacobian blocks C = dR_N/dd and D = dR_N/dc of the
    nonlinear residual, assembled column by column."""
    d = np.asarray(d, dtype=float)
    c = np.asarray(c, dtype=float)
    n_out = system.c_size
    C = np.empty((n_out, d.size))
    for k in range(d.size):
        e = np.zeros(d.size)
        e[k] = h
        C[:, k] = (system.eval_RN(d + e, c) - system.eval_RN(d - e, c)) / (2 * h)
    D = np.empty((n_out, c.size))
    for k in range(c.size):
        e = np.zeros(c.size)
        e[k] = h
        D[:, k] = (system.eval_RN(d, c + e) - system.eval_RN(d, c - e)) / (2 * h)
    return C, D


def constant_blocks(system):
    """Sparse (A, B, B_bnd) of a MixedSystem: A = diag(coupled mass) per
    field, and the derivative-projection columns split into inner and
    boundary parts, so that R_L = A d - (B c + B_bnd boundary_c(system)).

    Assembled from the topology alone: per patch, the Kronecker products
    vol Mxi (x) Meta and vol (ia[0, d] Kxi (x) Oeta + ia[1, d] Oxi (x)
    Keta) of the univariate factors, scattered to the coupled auxiliary
    rows and the global primal columns."""
    from eggmix.assembly import build_quadrature

    topo = system.topology
    mglob = sparse.csr_matrix((topo.n_sigbar, topo.n_sigbar))
    bglob = {d: sparse.csr_matrix((topo.n_sigbar, topo.n_sigma))
             for d in ("xi", "eta")}
    for i, (tb, bb) in enumerate(zip(topo.bases, topo.bar_bases)):
        am = topo.maps[i]
        vol, ia = abs(am.det), am.inv
        cache = build_quadrature(tb, bb)
        mx, ox, kx = cache.xi.mbar, cache.xi.obar, cache.xi.kbar
        my, oy, ky = cache.eta.mbar, cache.eta.obar, cache.eta.kbar
        rows = sparse.csr_matrix((np.ones(bb.dim), (topo.bar_l2g[i], np.arange(bb.dim))),
                                 shape=(topo.n_sigbar, bb.dim))
        cols = sparse.csr_matrix((np.ones(tb.dim), (np.arange(tb.dim), topo.sig_l2g[i])),
                                 shape=(tb.dim, topo.n_sigma))
        mglob = mglob + rows @ (vol * sparse.kron(mx, my)) @ rows.T
        ks, kt = sparse.kron(kx, oy), sparse.kron(ox, ky)
        for direction, col in (("xi", 0), ("eta", 1)):
            bglob[direction] = bglob[direction] \
                + rows @ (vol * (ia[0, col] * ks + ia[1, col] * kt)) @ cols
    A = sparse.block_diag([mglob] * system.n_fields, format="csr")
    inner, bnd = topo.inner_indices, topo.boundary_indices
    rows_in, rows_bnd = [], []
    for direction, comp in system.fields:
        row_in = [None, None]
        row_bnd = [None, None]
        row_in[comp] = bglob[direction][:, inner]
        row_bnd[comp] = bglob[direction][:, bnd]
        rows_in.append(row_in)
        rows_bnd.append(row_bnd)
    return A, sparse.bmat(rows_in, format="csr"), sparse.bmat(rows_bnd, format="csr")


def boundary_c(system):
    """Boundary coefficients in the (x..., y...) layout of B_bnd."""
    b = system._template[system.topology.boundary_indices]
    return np.concatenate([b[:, 0], b[:, 1]])


def explicit_schur(system, d, c, h=1e-6):
    """Dense Schur complement and right-hand side from the explicit
    finite-difference Jacobian blocks."""
    C, D = fd_jacobian_blocks(system, d, c, h)
    A, B, B_bnd = constant_blocks(system)
    Ad = A.toarray()
    # Jacobian block dR_L/dc is -B, so the Schur complement is D + C A^-1 B
    Dt = D + C @ np.linalg.solve(Ad, B.toarray())
    a = -system.eval_RL(d, c)
    b = -system.eval_RN(d, c)
    rhs = b - C @ np.linalg.solve(Ad, a)
    return Dt, rhs


def greville_interpolate_2d(basis, fn):
    """Tensor Greville interpolation of a 2D-valued function of (xi, eta)."""
    gx = basis.kv_xi.greville
    gy = basis.kv_eta.greville
    vals = np.array([[fn(x, y) for y in gy] for x in gx])  # (nx, ny, 2)
    Ax = basis.kv_xi.collocation(gx)[0]
    Ay = basis.kv_eta.collocation(gy)[0]
    tmp = np.linalg.solve(Ay, vals.transpose(1, 0, 2).reshape(len(gy), -1))
    tmp = tmp.reshape(len(gy), len(gx), 2).transpose(1, 0, 2)
    out = np.linalg.solve(Ax, tmp.reshape(len(gx), -1))
    return out.reshape(basis.dim, 2)


# -- batched einsum formulations of the tensor kernels -------------------------
#
# These are the plain einsum forms of MixedSystem.eval_RN, SplineMap.grid_jet
# and winslow_gradient; the library evaluates the same contractions with
# matmul/tensordot and, for eval_RN, by sum factorisation.

def element_tables(system, i):
    """Per-element quadrature tables of patch ``i`` of ``system``, built
    from the padded univariate tables of ``build_quadrature`` alone: Gauss
    weights (n_el, nq), values and derivatives (n_el, nq, na) of the active
    primal functions ("w", "w_s", ..., second derivatives when present), first
    derivatives (n_el, nq, nb) of the active auxiliary functions ("wb_s",
    "wb_t") and the global indices of both active sets."""
    topo = system.topology
    cache = system.patches[i].cache
    fx, fy = cache.xi, cache.eta
    n_el = fx.n_spans * fy.n_spans
    nq = fx.nq * fy.nq

    def combine(tx, ty):
        out = np.einsum("eqa,frb->efqrab", tx, ty)
        return out.reshape(n_el, nq, tx.shape[2] * ty.shape[2])

    def active(first_x, first_y, nfx, nfy, n_eta):
        loc = ((first_x[:, None, None, None] + np.arange(nfx)[:, None]) * n_eta
               + first_y[None, :, None, None] + np.arange(nfy))
        return loc.reshape(n_el, nfx * nfy)

    tb, bb = topo.bases[i], topo.bar_bases[i]
    ts_x, ts_y = fx.tab_sig, fy.tab_sig
    tb_x, tb_y = fx.tab_bar, fy.tab_bar
    out = {
        "weights": np.multiply.outer(fx.weights.reshape(fx.n_spans, fx.nq),
                                     fy.weights.reshape(fy.n_spans, fy.nq))
        .transpose(0, 2, 1, 3).reshape(n_el, nq),
        "act_sig": topo.sig_l2g[i][active(fx.first_sig, fy.first_sig,
                                          ts_x.shape[3], ts_y.shape[3], tb.n_eta)],
        "act_bar": topo.bar_l2g[i][active(fx.first_bar, fy.first_bar,
                                          tb_x.shape[3], tb_y.shape[3], bb.n_eta)],
        "w": combine(ts_x[:, :, 0], ts_y[:, :, 0]),
        "w_s": combine(ts_x[:, :, 1], ts_y[:, :, 0]),
        "w_t": combine(ts_x[:, :, 0], ts_y[:, :, 1]),
        "wb_s": combine(tb_x[:, :, 1], tb_y[:, :, 0]),
        "wb_t": combine(tb_x[:, :, 0], tb_y[:, :, 1]),
    }
    if ts_x.shape[2] > 2:
        out["w_ss"] = combine(ts_x[:, :, 2], ts_y[:, :, 0])
        out["w_st"] = combine(ts_x[:, :, 1], ts_y[:, :, 1])
        out["w_tt"] = combine(ts_x[:, :, 0], ts_y[:, :, 2])
    return out


def einsum_eval_RN(system, d, c):
    """Nonlinear residual of ``system`` with every contraction written as one
    batched einsum over per-element quadrature tables (:func:`element_tables`);
    returns the residual and the minimum Winslow denominator."""
    topo = system.topology
    net = system.full_control_net(c)
    d = np.asarray(d, dtype=float).reshape(system.n_fields, -1)
    res = np.zeros((topo.n_sigma, 2))
    min_denom = np.inf
    for i, ctx in enumerate(system.patches):
        q = element_tables(system, i)
        ia = ctx.inv_a
        C = net[q["act_sig"]]
        x_s = np.einsum("eqa,eac->eqc", q["w_s"], C)
        x_t = np.einsum("eqa,eac->eqc", q["w_t"], C)
        x_xi = ia[0, 0] * x_s + ia[1, 0] * x_t
        x_eta = ia[0, 1] * x_s + ia[1, 1] * x_t
        g11 = np.einsum("eqc,eqc->eq", x_xi, x_xi)[..., None]
        g12 = np.einsum("eqc,eqc->eq", x_xi, x_eta)[..., None]
        g22 = np.einsum("eqc,eqc->eq", x_eta, x_eta)[..., None]

        def aux_derivs(f0):
            D = np.stack([d[f0][q["act_bar"]], d[f0 + 1][q["act_bar"]]],
                         axis=-1)
            a_s = np.einsum("eqb,ebc->eqc", q["wb_s"], D)
            a_t = np.einsum("eqb,ebc->eqc", q["wb_t"], D)
            return (ia[0, 0] * a_s + ia[1, 0] * a_t,
                    ia[0, 1] * a_s + ia[1, 1] * a_t)

        chi = system.chi
        if system.mode == "full":
            u_xi, u_eta = aux_derivs(0)
            v_xi, v_eta = aux_derivs(2)
            num = (g22 * u_xi - 2.0 * g12 * (chi * u_eta + (1 - chi) * v_xi)
                   + g11 * v_eta)
        else:
            x_ss = np.einsum("eqa,eac->eqc", q["w_ss"], C)
            x_st = np.einsum("eqa,eac->eqc", q["w_st"], C)
            x_tt = np.einsum("eqa,eac->eqc", q["w_tt"], C)
            d_xieta = (ia[0, 0] * ia[0, 1] * x_ss
                       + (ia[0, 0] * ia[1, 1] + ia[1, 0] * ia[0, 1]) * x_st
                       + ia[1, 0] * ia[1, 1] * x_tt)
            if system.mode == "xi":
                u_xi, u_eta = aux_derivs(0)
                d_etaeta = (ia[0, 1] ** 2 * x_ss
                            + 2.0 * ia[0, 1] * ia[1, 1] * x_st
                            + ia[1, 1] ** 2 * x_tt)
                num = (g22 * u_xi
                       - 2.0 * g12 * (chi * u_eta + (1 - chi) * d_xieta)
                       + g11 * d_etaeta)
            else:
                v_xi, v_eta = aux_derivs(0)
                d_xixi = (ia[0, 0] ** 2 * x_ss
                          + 2.0 * ia[0, 0] * ia[1, 0] * x_st
                          + ia[1, 0] ** 2 * x_tt)
                num = (g22 * d_xixi
                       - 2.0 * g12 * (chi * d_xieta + (1 - chi) * v_xi)
                       + g11 * v_eta)
        denom = g11 + g22 + system.mu
        min_denom = min(min_denom, float(denom.min()))
        U = num / denom
        contrib = np.einsum("eq,eqa,eqc->eac", ctx.vol * q["weights"], q["w"], U)
        np.add.at(res, q["act_sig"].ravel(), contrib.reshape(-1, 2))
    inner = topo.inner_indices
    return np.concatenate([res[inner, 0], res[inner, 1]]), min_denom


def einsum_grid_jet(m, xs, ys, nderiv=1):
    """SplineMap.grid_jet with each tensor-grid evaluation as one einsum."""
    Bx = m.basis.kv_xi.collocation(xs, nderiv)
    By = m.basis.kv_eta.collocation(ys, nderiv)
    C = m.net()
    keys = {(0, 0): "x", (1, 0): "x_xi", (0, 1): "x_eta"}
    return {key: np.einsum("xi,yj,ijc->xyc", Bx[i], By[j], C)
            for (i, j), key in keys.items() if i + j <= nderiv}


def einsum_winslow_gradient(m, quad_order):
    """Winslow energy and its gradient with respect to the inner control
    points, by Gauss quadrature of order ``quad_order`` per span, with the
    test-function contraction as one einsum per derivative direction."""
    q, w = np.polynomial.legendre.leggauss(quad_order)
    q = 0.5 * (q + 1.0)
    w = 0.5 * w

    def rule(kv):
        h = np.diff(kv.breakpoints)
        pts = kv.breakpoints[:-1, None] + h[:, None] * q[None, :]
        return pts.ravel(), (h[:, None] * w[None, :]).ravel()

    px, wx = rule(m.basis.kv_xi)
    py, wy = rule(m.basis.kv_eta)
    jets = einsum_grid_jet(m, px, py, 1)
    a, b = jets["x_xi"], jets["x_eta"]
    detj = a[..., 0] * b[..., 1] - a[..., 1] * b[..., 0]
    F = (np.sum(a * a, axis=-1) + np.sum(b * b, axis=-1)) / detj
    W2 = wx[:, None] * wy[None, :]
    rot_a = np.stack([a[..., 1], -a[..., 0]], axis=-1)
    rot_b = np.stack([-b[..., 1], b[..., 0]], axis=-1)
    Fa = (2.0 * a + F[..., None] * rot_b) / detj[..., None]
    Fb = (2.0 * b + F[..., None] * rot_a) / detj[..., None]
    Bx = m.basis.kv_xi.collocation(px, 1)
    By = m.basis.kv_eta.collocation(py, 1)
    grad = (np.einsum("xy,xyc,xi,yj->ijc", W2, Fa, Bx[1], By[0])
            + np.einsum("xy,xyc,xi,yj->ijc", W2, Fb, Bx[0], By[1]))
    return float(np.sum(W2 * F)), grad.reshape(m.basis.dim, 2)[m.inner_indices]


def loop_frozen_laplacian(system, c):
    """Dense frozen-metric Laplacian on the inner primal basis, assembled one
    quadrature point at a time from :func:`element_tables`, with the
    gradients and the metric in (xi, eta):
    K_ij = int grad(w_i)^T Q grad(w_j) / (g11 + g22 + mu),
    Q = [[g22 + mu/2, -g12], [-g12, g11 + mu/2]]."""
    topo = system.topology
    net = system.full_control_net(c)
    mu = system.mu
    K = np.zeros((topo.n_sigma, topo.n_sigma))
    for i, ctx in enumerate(system.patches):
        q = element_tables(system, i)
        ia = ctx.inv_a
        n_el, nq = q["weights"].shape
        for e in range(n_el):
            act = q["act_sig"][e]
            for k in range(nq):
                w_s, w_t = q["w_s"][e, k], q["w_t"][e, k]
                w_xi = ia[0, 0] * w_s + ia[1, 0] * w_t
                w_eta = ia[0, 1] * w_s + ia[1, 1] * w_t
                x_xi = w_xi @ net[act]
                x_eta = w_eta @ net[act]
                g11, g12, g22 = x_xi @ x_xi, x_xi @ x_eta, x_eta @ x_eta
                wt = ctx.vol * q["weights"][e, k] / (g11 + g22 + mu)
                # add.at: a patch glued to itself repeats a DOF in ``act``
                np.add.at(K, np.ix_(act, act), wt * (
                    (g22 + 0.5 * mu) * np.outer(w_xi, w_xi)
                    - g12 * (np.outer(w_xi, w_eta) + np.outer(w_eta, w_xi))
                    + (g11 + 0.5 * mu) * np.outer(w_eta, w_eta)))
    inner = topo.inner_indices
    return K[np.ix_(inner, inner)]


def band_to_dense(ab, order):
    """Dense symmetric matrix in the inner order from its lower band storage
    ``ab`` in the band order ``order`` (``ab[d, k]`` the entry of band rows
    k + d and k, ``order[k]`` the inner index of band row k), mirrored
    entry by entry. The storage past the last row must be zero."""
    width, n = ab.shape
    B = np.zeros((n, n))
    for d in range(width):
        k = np.arange(n - d)
        assert not ab[d, n - d:].any()
        B[k + d, k] = B[k, k + d] = ab[d, :n - d]
    K = np.empty_like(B)
    K[np.ix_(order, order)] = B
    return K


def insert_knot(kv, xbar):
    """Insert one knot value (Boehm's algorithm); returns the new knot
    vector and the sparse (dim + 1, dim) prolongation."""
    from scipy import sparse
    from eggmix.splines import KnotVector

    t, p, n = kv.knots, kv.degree, kv.dim
    k = min(max(int(np.searchsorted(t, xbar, side="right")) - 1, p), n - 1)
    rows, cols, vals = [], [], []
    for i in range(n + 1):
        if i <= k - p:
            alpha = 1.0
        elif i >= k + 1:
            alpha = 0.0
        else:
            alpha = (xbar - t[i]) / (t[i + p] - t[i])
        if alpha != 0.0:
            rows.append(i)
            cols.append(i)
            vals.append(alpha)
        if alpha != 1.0:
            rows.append(i)
            cols.append(i - 1)
            vals.append(1.0 - alpha)
    P = sparse.csr_matrix((vals, (rows, cols)), shape=(n + 1, n))
    return KnotVector(p, np.insert(t, k + 1, xbar)), P


def knot_by_knot_refine(kv):
    """Bisect every nonempty span by inserting the midpoints one at a time
    and chaining the single-knot prolongations: the loop the one-pass
    ``KnotVector.refine`` replaced."""
    from scipy import sparse

    mids = 0.5 * (kv.breakpoints[:-1] + kv.breakpoints[1:])
    P = sparse.identity(kv.dim, format="csr")
    for x in mids:
        kv, Pk = insert_knot(kv, x)
        P = Pk @ P
    return kv, P.tocsr()


def element_union_laplacian_pattern(system):
    """CSR ``(indices, indptr)`` of the frozen Laplacian as the union of the
    element couplings: every pair of inner primal functions active on one
    element (:func:`element_tables`), grown by one ``np.union1d`` per patch."""
    n = system.n_inner
    inner_of = np.full(system.topology.n_sigma, -1)
    inner_of[system.topology.inner_indices] = np.arange(n)
    pattern = np.empty(0, dtype=np.int64)
    for i in range(system.topology.n_patches):
        loc = inner_of[element_tables(system, i)["act_sig"]]
        key = loc[:, :, None] * n + loc[:, None, :]
        both_inner = (loc[:, :, None] >= 0) & (loc[:, None, :] >= 0)
        pattern = np.union1d(pattern, key[both_inner])
    indptr = np.searchsorted(pattern // n, np.arange(n + 1))
    return (pattern % n).astype(np.int32), indptr.astype(np.int32)


def loop_univariate_matrices(kv_bar, kv_sig):
    """The integral factors of ``assembly.build_quadrature`` (``mbar``,
    ``obar``, ``kbar`` of a direction) summed one Gauss point at a time
    with ``np.outer`` (the loop the batched products replaced):
    mbar = int wbar wbar^T, obar = int wbar w^T, kbar = int wbar w'^T over
    the fine span grid."""
    from eggmix.splines import gauss_legendre

    p = max(kv_bar.degree, kv_sig.degree)
    q, wq = gauss_legendre(p + 1)
    mbar = np.zeros((kv_bar.dim, kv_bar.dim))
    obar = np.zeros((kv_bar.dim, kv_sig.dim))
    kbar = np.zeros((kv_bar.dim, kv_sig.dim))
    for a, b in zip(kv_bar.breakpoints[:-1], kv_bar.breakpoints[1:]):
        for x, wt in zip(a + (b - a) * q, (b - a) * wq):
            (fb,), (tb,) = kv_bar.eval_many([x], 0)
            (fs,), (ts,) = kv_sig.eval_many([x], 1)
            sb = slice(fb, fb + kv_bar.degree + 1)
            ss = slice(fs, fs + kv_sig.degree + 1)
            mbar[sb, sb] += wt * np.outer(tb[0], tb[0])
            obar[sb, ss] += wt * np.outer(tb[0], ts[0])
            kbar[sb, ss] += wt * np.outer(tb[0], ts[1])
    return mbar, obar, kbar


def loop_prolong_net(topo_c, topo_f, prolongations, net):
    """Fine control net from a coarse one, each global fine DOF taken from
    the first (patch, local index) that holds it, one DOF at a time."""
    out = np.zeros((topo_f.n_sigma, 2))
    done = np.zeros(topo_f.n_sigma, dtype=bool)
    for p in range(topo_c.n_patches):
        fine_local = prolongations[p] @ net[topo_c.sig_l2g[p]]
        for loc, g in enumerate(topo_f.sig_l2g[p]):
            if not done[g]:
                out[g] = fine_local[loc]
                done[g] = True
    return out


def per_line_svg_isolines(maps, resolution):
    """Images of all element-boundary knot lines with one ``grid_jet`` call
    per knot line, sampled on the dense grid of ``max(resolution, 4)``
    points per element."""
    from eggmix.io_cli import _sample_grid

    polylines = []
    for pmap in maps:
        kx, ky = pmap.basis.kv_xi, pmap.basis.kv_eta
        dense_x = _sample_grid(kx, max(resolution, 4))
        dense_y = _sample_grid(ky, max(resolution, 4))
        for xv in kx.breakpoints:
            polylines.append(pmap.grid_jet([xv], dense_y, 0)["x"][0])
        for yv in ky.breakpoints:
            polylines.append(pmap.grid_jet(dense_x, [yv], 0)["x"][:, 0])
    return polylines


def per_point_csv_text(patches_samples):
    """CSV point table of sampled patches, formatted one numpy scalar row
    at a time."""
    lines = ["patch,i,j,s,t,x,y,detj"]
    for pi, (xs, ys, X, detj) in enumerate(patches_samples):
        for i in range(len(xs)):
            for j in range(len(ys)):
                lines.append("%d,%d,%d,%.17g,%.17g,%.17g,%.17g,%.17g" % (
                    pi, i, j, xs[i], ys[j], X[i, j, 0], X[i, j, 1], detj[i, j]))
    return "\n".join(lines) + "\n"


def per_point_svg_points(polyline):
    """The ``points`` attribute of one SVG polyline, formatted one numpy
    scalar pair at a time."""
    return " ".join("%.6f,%.6f" % (p[0], p[1]) for p in polyline)


def per_point_vtk_text(xs, ys, X, detj):
    """Structured-grid VTK text of one sampled patch, formatted one numpy
    scalar at a time."""
    nx, ny = len(xs), len(ys)
    lines = ["# vtk DataFile Version 3.0", "eggmix structured grid",
             "ASCII", "DATASET STRUCTURED_GRID",
             f"DIMENSIONS {ny} {nx} 1", f"POINTS {nx * ny} double"]
    for i in range(nx):
        for j in range(ny):
            lines.append("%.9g %.9g 0" % (X[i, j, 0], X[i, j, 1]))
    lines += [f"POINT_DATA {nx * ny}", "SCALARS detj double 1",
              "LOOKUP_TABLE default"]
    for i in range(nx):
        for j in range(ny):
            lines.append("%.9g" % detj[i, j])
    return "\n".join(lines) + "\n"


def coons_loop_transfinite_global(system):
    """Control-net Coons interior of every patch, written out per patch
    with a per-DOF fill of the unknown DOFs; interface curves get the same
    straight-segment placeholders as ``transfinite_global``."""
    topo = system.topology
    net = system._template.copy()
    known = np.zeros(topo.n_sigma, dtype=bool)
    known[topo.boundary_indices] = True
    centroid = net[topo.boundary_indices].mean(axis=0)

    for itf in topo.interfaces:
        tb = topo.bases[itf.patch_a]
        gl = topo.sig_l2g[itf.patch_a][tb.face_indices(itf.face_a)]
        for g in (gl[0], gl[-1]):
            if not known[g]:
                net[g] = centroid
                known[g] = True
    for itf in topo.interfaces:
        tb = topo.bases[itf.patch_a]
        gl = topo.sig_l2g[itf.patch_a][tb.face_indices(itf.face_a)]
        ratios = tb.face_knotvector(itf.face_a).greville
        v0, v1 = net[gl[0]], net[gl[-1]]
        for g, r in zip(gl[1:-1], ratios[1:-1]):
            if not known[g]:
                net[g] = (1.0 - r) * v0 + r * v1
                known[g] = True

    for p in range(topo.n_patches):
        tb = topo.bases[p]
        local = net[topo.sig_l2g[p]].reshape(tb.n_xi, tb.n_eta, 2)
        s = tb.kv_xi.greville[:, None, None]
        t = tb.kv_eta.greville[None, :, None]
        F = ((1 - s) * local[0][None, :, :] + s * local[-1][None, :, :]
             + (1 - t) * local[:, 0][:, None, :] + t * local[:, -1][:, None, :]
             - ((1 - s) * (1 - t) * local[0, 0] + s * (1 - t) * local[-1, 0]
                + (1 - s) * t * local[0, -1] + s * t * local[-1, -1]))
        flat = F.reshape(tb.dim, 2)
        for loc in range(tb.dim):
            g = topo.sig_l2g[p][loc]
            if not known[g]:
                net[g] = flat[loc]
                known[g] = True
    return net


def two_pass_quality_block(maps):
    """The solution file's quality block: Winslow energies only when no
    patch has a folded sample, and then of every patch."""
    from eggmix.errors import NonbijectiveMapError
    from eggmix.mapping import sampled_bijectivity, winslow

    min_detj = np.inf
    folds = 0
    for m in maps:
        rep = sampled_bijectivity(m, 5)
        min_detj = min(min_detj, rep.min_detj)
        folds += rep.fold_count
    ws = None
    if folds == 0:
        try:
            ws = [winslow(m) for m in maps]
        except NonbijectiveMapError:
            pass
    return {"min_detj": float(min_detj), "fold_count": int(folds),
            "nonbijective": ws is None,
            "winslow_per_patch": None if ws is None else [float(w) for w in ws],
            "winslow_total": None if ws is None else float(sum(ws))}


def two_pass_quality_text(maps):
    """The stdout of ``eggmix quality``, computed patch by patch on its
    own."""
    from eggmix.errors import NonbijectiveMapError
    from eggmix.mapping import sampled_bijectivity, winslow

    lines = []
    total = 0.0
    bijective = True
    min_detj = np.inf
    for i, m in enumerate(maps):
        rep = sampled_bijectivity(m, 5)
        min_detj = min(min_detj, rep.min_detj)
        if rep.fold_count:
            bijective = False
            lines.append(f"patch {i}: nonbijective ({rep.fold_count} folded samples)")
            for loc in rep.fold_locations[:10]:
                lines.append("  fold at s=%.4f t=%.4f detJ=%.3e" % loc)
            continue
        try:
            w = winslow(m)
        except NonbijectiveMapError as exc:
            bijective = False
            lines.append(f"patch {i}: nonbijective between the samples ({exc})")
            continue
        total += w
        lines.append(f"patch {i}: winslow {w:.6f}  min detJ {rep.min_detj:.6e}")
    lines.append(f"total winslow: {total:.6f}" if bijective else "nonbijective")
    lines.append(f"min detJ: {min_detj:.6e}")
    return "\n".join(lines) + "\n"
