import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from eggmix.errors import FactorizationError, InputError
from eggmix.linalg import Banded1DCholesky, KronSolver, gmres
from eggmix.splines import uniform_knots

from oracles import reference_univariate_integral


def univariate_mass(p, ne):
    kv = uniform_knots(p, ne)
    return reference_univariate_integral(kv, kv)


def band_storage(M):
    """Lower band storage ab[d, j] = M[j + d, j] of a symmetric matrix, as
    wide as its farthest nonzero diagonal."""
    nz = np.nonzero(M)
    bw = int(np.abs(nz[0] - nz[1]).max()) if nz[0].size else 0
    n = len(M)
    ab = np.zeros((bw + 1, n), order="F")
    for d in range(bw + 1):
        ab[d, : n - d] = np.diagonal(M, -d)
    return ab


def test_cholesky_identity():
    f = Banded1DCholesky(band_storage(np.eye(4)))
    assert f.bandwidth == 0
    np.testing.assert_allclose(f.solve(np.eye(4)), np.eye(4))


def test_cholesky_closed_form_2x2():
    f = Banded1DCholesky(band_storage(np.array([[2.0, 1.0], [1.0, 2.0]])))
    np.testing.assert_allclose(
        f.solve(np.eye(2)), np.array([[2.0, -1.0], [-1.0, 2.0]]) / 3, atol=1e-14)


def test_cholesky_cubic_mass_reconstruction(rng):
    M = univariate_mass(3, 9)
    assert M.shape == (12, 12)
    f = Banded1DCholesky(band_storage(M))
    assert f.bandwidth == 3
    rhs = rng.standard_normal((12, 3))
    ref = np.linalg.solve(M, rhs)
    assert np.abs(f.solve(rhs) - ref).max() < 1e-13 * np.abs(ref).max()


def test_cholesky_rejects_non_spd():
    with pytest.raises(FactorizationError):
        Banded1DCholesky(band_storage(np.array([[1.0, 2.0], [2.0, 1.0]])))


def test_cholesky_solve_roundtrip(rng):
    M = univariate_mass(2, 6)
    f = Banded1DCholesky(band_storage(M))
    x = rng.standard_normal(M.shape[0])
    np.testing.assert_allclose(f.solve(M @ x), x, atol=1e-11)


def test_cholesky_from_band_matches_dense(rng):
    M = univariate_mass(3, 9)
    f = Banded1DCholesky(band_storage(M))
    assert f.n == 12 and f.bandwidth == 3
    # the band factor holds the dense Cholesky factor's band
    L = np.linalg.cholesky(M)
    assert np.abs(f._cb - band_storage(L)).max() <= 1e-14 * np.abs(L).max()
    # two right-hand sides in one solve
    x = rng.standard_normal((12, 2))
    np.testing.assert_allclose(f.solve(M @ x), x, atol=1e-11)


@pytest.mark.parametrize("ab", [
    [[1.0, -1.0], [2.0, 0.0]],          # [[1, 2], [2, -1]]: indefinite
    [[1.0, np.nan], [0.5, 0.0]],        # NaN passes the pivot test
], ids=["indefinite", "nan"])
def test_cholesky_from_band_rejects(ab):
    with pytest.raises(FactorizationError):
        Banded1DCholesky(np.array(ab, order="F"))


def test_kron_identity_blocks():
    ks = KronSolver(np.eye(3), np.eye(4))
    rhs = np.arange(24, dtype=float)
    np.testing.assert_allclose(ks.solve_block(rhs), rhs)


def test_kron_roundtrip_and_blockwise(rng):
    mx = univariate_mass(2, 4)
    me = univariate_mass(3, 3)
    A = np.kron(mx, me)
    ks = KronSolver(mx, me)
    x = rng.standard_normal(3 * A.shape[0])
    rhs = np.concatenate([A @ x[i * A.shape[0]:(i + 1) * A.shape[0]]
                          for i in range(3)])
    sol = ks.solve_block(rhs)
    assert np.abs(sol - x).max() < 1e-11 * max(1.0, np.abs(x).max())
    single = KronSolver(mx, me)
    per_block = np.concatenate([single.solve_block(rhs[i * A.shape[0]:(i + 1) * A.shape[0]])
                                for i in range(3)])
    np.testing.assert_array_equal(sol, per_block)
    # one batched solve_block call on k blocks equals k single-block calls
    blocks = rhs.reshape(3, -1)
    before = single.solve_count
    batched = single.solve_block(blocks)
    assert single.solve_count == before + 3
    np.testing.assert_array_equal(
        batched, np.stack([single.solve_block(b) for b in blocks]))


def test_kron_dense_oracle_small_blocks(rng):
    # every separable block with up to 64 DOFs against a dense solve
    for p in (1, 2, 3):
        for nx in (1, 2, 4):
            for ny in (1, 3):
                mx = univariate_mass(p, nx)
                me = univariate_mass(p, ny)
                n = mx.shape[0] * me.shape[0]
                if n > 64:
                    continue
                A = np.kron(mx, me)
                ks = KronSolver(mx, me)
                rhs = rng.standard_normal(n)
                ref = np.linalg.solve(A, rhs)
                assert np.abs(ks.solve_block(rhs) - ref).max() < 1e-11 * max(
                    1.0, np.abs(ref).max())


@pytest.mark.parametrize("kv_xi, kv_eta", [
    (uniform_knots(2, 95), uniform_knots(2, 79)),    # the largest bat L2 block
    (uniform_knots(2, 7), uniform_knots(2, 40)),
    (uniform_knots(3, 40, c0_breaks=(0.5,)), uniform_knots(3, 80, c0_breaks=(0.5,))),
], ids=["p2-97x81", "p2-9x42", "p3-c0-45x85"])
def test_kron_solves_stacked_blocks_at_solver_sizes(kv_xi, kv_eta, rng):
    # four stacked fields with a patch volume factor, as in the mass solve;
    # the residual scale Mxi X Meta^T - B is formed block by block
    mx = reference_univariate_integral(kv_xi, kv_xi)
    me = reference_univariate_integral(kv_eta, kv_eta)
    ks = KronSolver(mx, me, scale=0.37)
    B = rng.standard_normal((4, len(mx), len(me)))
    X = ks.solve_block(B.reshape(4, -1))
    assert X.shape == (4, len(mx) * len(me)) and ks.solve_count == 4
    residual = 0.37 * mx @ X.reshape(B.shape) @ me.T - B
    assert np.abs(residual).max() <= 1e-12 * np.abs(B).max()


def test_kron_scale_divides():
    mx = univariate_mass(1, 2)
    ks = KronSolver(mx, mx, scale=2.5)
    rhs = np.ones(mx.shape[0] ** 2)
    ref = KronSolver(mx, mx).solve_block(rhs)
    np.testing.assert_allclose(ks.solve_block(rhs), ref / 2.5)


def test_kron_length_mismatch():
    ks = KronSolver(np.eye(2), np.eye(2))
    with pytest.raises(InputError):
        ks.solve_block(np.ones(5))


@pytest.mark.parametrize("p, ne", [(1, 1), (2, 7), (3, 40)])
def test_kron_inverses_symmetric_and_exact(p, ne):
    M = univariate_mass(p, ne)
    ks = KronSolver(M, 2.0 * M)
    ref = np.linalg.inv(M)
    for inv, scale in ((ks.inv_xi, 1.0), (ks.inv_eta, 2.0)):
        np.testing.assert_array_equal(inv, inv.T)
        assert np.abs(scale * inv - ref).max() <= 1e-13 * np.abs(ref).max()


@pytest.mark.parametrize("bad", [
    [[1.0, 2.0], [2.0, 1.0]],           # indefinite
    [[1.0, 0.0], [0.0, 0.0]],           # singular
    [[1.0, np.nan], [np.nan, 1.0]],     # not finite
], ids=["indefinite", "singular", "nan"])
def test_kron_rejects_non_spd_factor(bad):
    with pytest.raises(FactorizationError):
        KronSolver(np.eye(3), np.array(bad))
    with pytest.raises(FactorizationError):
        KronSolver(np.array(bad), np.eye(3))


def test_factor_immutability(rng):
    M = univariate_mass(2, 5)
    f = Banded1DCholesky(band_storage(M))
    before = f._cb.tobytes()
    for _ in range(5):
        f.solve(rng.standard_normal(M.shape[0]))
    assert f._cb.tobytes() == before


def test_gmres_identity_one_iteration():
    res = gmres(lambda v: v, np.array([3.0, -1.0, 2.0]))
    np.testing.assert_allclose(res.solution, [3.0, -1.0, 2.0])
    assert res.converged and res.iterations == 1


@pytest.mark.parametrize("max_iter", [0, -1])
def test_gmres_rejects_max_iter_below_one(max_iter):
    with pytest.raises(InputError, match="max_iter"):
        gmres(lambda v: 2 * v, np.ones(4), max_iter=max_iter)


@pytest.mark.parametrize("matvec, rhs", [
    (lambda v: 0 * v, np.ones(4)),
    (lambda v: np.array([1.0, 1.0, 0.0]) * v, np.array([0.0, 0.0, 1.0])),
], ids=["zero", "rhs_in_null_space"])
def test_gmres_singular_operator_returns_unconverged(matvec, rhs):
    # the first Krylov vector lies in the null space: no iterate improves
    # on x = 0, and the solve reports that instead of raising
    res = gmres(matvec, rhs, tol=1e-8)
    assert not res.converged and res.iterations == 1
    np.testing.assert_array_equal(res.solution, np.zeros(len(rhs)))
    assert res.residual_norms == [np.linalg.norm(rhs)] * 2


def test_gmres_zero_rhs():
    res = gmres(lambda v: v, np.zeros(4))
    assert res.converged and res.iterations == 0
    np.testing.assert_array_equal(res.solution, np.zeros(4))


def test_gmres_dense_spd_oracle(rng):
    A = rng.standard_normal((5, 5))
    A = A @ A.T + 5 * np.eye(5)
    b = rng.standard_normal(5)
    res = gmres(lambda v: A @ v, b, tol=1e-10)
    assert res.converged
    ref = np.linalg.solve(A, b)
    assert np.linalg.norm(res.solution - ref) < 1e-8 * np.linalg.norm(ref)


def test_gmres_monotone_within_cycle(rng):
    A = rng.standard_normal((40, 40)) + 8 * np.eye(40)
    b = rng.standard_normal(40)
    res = gmres(lambda v: A @ v, b, tol=1e-12, max_iter=60)
    assert res.converged
    # residual estimates never increase inside the one Krylov cycle
    hist = res.residual_norms
    assert len(hist) == res.iterations + 1
    for k in range(1, len(hist)):
        assert hist[k] <= hist[k - 1] * (1 + 1e-12)


def test_gmres_reports_non_convergence(rng):
    A = rng.standard_normal((30, 30)) + 2 * np.eye(30)
    b = rng.standard_normal(30)
    res = gmres(lambda v: A @ v, b, tol=1e-14, max_iter=8)
    assert not res.converged
    assert res.iterations == 8
    # best iterate is still an improvement over x = 0
    assert np.linalg.norm(A @ res.solution - b) < np.linalg.norm(b)


@settings(max_examples=20, deadline=None)
@given(st.integers(2, 12), st.integers(0, 2 ** 31 - 1))
def test_gmres_solves_shifted_random_systems(n, seed):
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((n, n)) + (n + 3) * np.eye(n)
    b = rng.standard_normal(n)
    res = gmres(lambda v: A @ v, b, tol=1e-9, max_iter=200)
    assert res.converged
    assert np.linalg.norm(A @ res.solution - b) <= 1e-8 * np.linalg.norm(b) * 10
