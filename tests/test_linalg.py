"""Dense kernel tests: rank-revealing factorizations against independent oracles."""

import numpy as np
import pytest

from fds.linalg import (
    LowRankFactor,
    SingularMatrixError,
    complex_singular_values,
    cpqr,
    dense_lu_solve,
    eps_rank,
    interpolative_decomposition,
    low_rank_approx,
    recompress,
    truncated_svd,
)

RNG_SEED = 20240611


def svd_rank_oracle(A, tol):
    """Brute-force numerical rank: count sigma_j > tol * sigma_1."""
    s = np.linalg.svd(A, compute_uv=False)
    return int(np.sum(s > tol * s[0]))


class TestCpqr:
    def test_identity(self):
        Q, R, perm, rank = cpqr(np.eye(5), 1e-10)
        assert rank == 5
        recon = np.zeros((5, 5))
        recon[:, perm] = Q @ R
        assert np.allclose(recon, np.eye(5), atol=1e-14)

    def test_rank_one_outer_product(self):
        rng = np.random.default_rng(RNG_SEED)
        u = rng.standard_normal(12) + 0.1
        v = rng.standard_normal(9) + 0.1
        _, _, _, rank = cpqr(np.outer(u, v), 1e-10)
        assert rank == 1

    def test_rank_vs_svd_oracle_geometric_spectrum(self):
        # 30x20 with singular values 2^-j; oracle computed first
        rng = np.random.default_rng(RNG_SEED)
        U, _ = np.linalg.qr(rng.standard_normal((30, 20)))
        V, _ = np.linalg.qr(rng.standard_normal((20, 20)))
        s = 2.0 ** -np.arange(1, 21)
        A = (U * s) @ V.T
        oracle = svd_rank_oracle(A, 1e-6)
        _, _, _, rank = cpqr(A, 1e-6)
        assert abs(rank - oracle) <= 1

    def test_zero_matrix(self):
        Q, R, perm, rank = cpqr(np.zeros((4, 6)), 1e-10)
        assert rank == 0 and Q.shape == (4, 0)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            cpqr(np.empty((0, 3)), 1e-10)
        with pytest.raises(ValueError):
            cpqr(np.array([[np.nan, 1.0]]), 1e-10)
        with pytest.raises(ValueError):
            cpqr(np.eye(3), 2.0)

    def test_reconstruction_on_random_matrices(self):
        # 100 random low-rank-plus-noise matrices per shape class
        rng = np.random.default_rng(RNG_SEED)
        for shape in [(16, 16), (24, 12), (12, 24)]:
            for _ in range(100):
                k = rng.integers(1, min(shape) // 2)
                A = rng.standard_normal((shape[0], k)) @ rng.standard_normal((k, shape[1]))
                A += 1e-10 * rng.standard_normal(shape)
                Q, R, perm, rank = cpqr(A, 1e-6)
                err = np.linalg.norm(A[:, perm] - Q @ R)
                assert err <= 10 * 1e-6 * np.linalg.norm(A)
                assert abs(rank - svd_rank_oracle(A, 1e-6)) <= 1


class TestTruncatedSvd:
    def test_diagonal(self):
        U, s, V = truncated_svd(np.diag([3.0, 2.0, 1.0]), 0.5)
        assert np.allclose(s, [3.0, 2.0])

    def test_zero(self):
        U, s, V = truncated_svd(np.zeros((3, 3)), 1e-10)
        assert s.size == 0 and U.shape == (3, 0)

    def test_hilbert_vs_extended_precision_oracle(self):
        # oracle: 50-digit SVD of the 8x8 Hilbert matrix, built first
        mp = pytest.importorskip("mpmath")
        n = 8
        with mp.workdps(50):
            H = mp.matrix(n, n)
            for i in range(n):
                for j in range(n):
                    H[i, j] = mp.mpf(1) / (i + j + 1)
            oracle = np.array([float(x) for x in mp.svd_r(H, compute_uv=False)])
        A = 1.0 / (np.arange(n)[:, None] + np.arange(n)[None, :] + 1.0)
        _, s, _ = truncated_svd(A, 1e-10)
        kept = min(len(s), len(oracle))
        assert np.max(np.abs(s[:kept] - oracle[:kept]) / oracle[0]) < 1e-12

    def test_rank_cap(self):
        rng = np.random.default_rng(RNG_SEED)
        A = rng.standard_normal((10, 10))
        U, s, V = truncated_svd(A, max_rank=3)
        assert len(s) == 3

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_factor_owns_only_kept_rows(self, dtype):
        # a view into the full Vh would keep the whole SVD alive with V
        rng = np.random.default_rng(RNG_SEED)
        A = (rng.standard_normal((60, 3)) @ rng.standard_normal((3, 50))).astype(dtype)
        _, _, V = truncated_svd(A, 1e-10)
        owner = V
        while owner.base is not None:
            owner = owner.base
        assert V.shape == (50, 3) and owner.nbytes == V.nbytes

    def test_reconstruction_error_bound(self):
        rng = np.random.default_rng(RNG_SEED + 1)
        for _ in range(100):
            A = rng.standard_normal((15, 10))
            U, s, V = truncated_svd(A, 1e-3)
            full = np.linalg.svd(A, compute_uv=False)
            k = len(s)
            resid = np.linalg.norm(A - (U * s) @ V.conj().T, 2)
            bound = (full[k] if k < len(full) else 0.0) + 50 * np.finfo(float).eps * full[0]
            assert resid <= bound


class TestLowRankApprox:
    @pytest.mark.parametrize("kind", ["real", "complex"])
    def test_range_finder_branch_vs_truncated_svd(self, kind):
        # 600 x 560 is past the dense-SVD limit, so the range finder runs
        x = np.linspace(0.0, 1.0, 600)
        y = np.linspace(1.5, 2.5, 560)
        d = np.abs(x[:, None] - y[None, :])
        A = np.log(d) if kind == "real" else np.exp(10j * d) / d
        tol = 1e-10
        F = low_rank_approx(A, tol)
        _, s, _ = truncated_svd(A, tol)
        assert F.rank == len(s)
        assert np.linalg.norm(A - F.todense(), 2) <= 10 * tol * np.linalg.norm(A, 2)


class TestInterpolativeDecomposition:
    def test_exactly_dependent_column(self):
        rng = np.random.default_rng(RNG_SEED)
        A = rng.standard_normal((8, 5))
        A[:, 2] = 2.0 * A[:, 0]
        fac = interpolative_decomposition(A, 1e-12)
        assert fac.rank == 4
        assert (2 in fac.skeleton) != (0 in fac.skeleton) or not (
            2 in fac.skeleton and 0 in fac.skeleton
        )

    def test_identity(self):
        fac = interpolative_decomposition(np.eye(6), 1e-12)
        assert fac.rank == 6 and fac.interp.shape == (6, 0)
        assert sorted(fac.skeleton) == list(range(6))

    def test_low_rank_plus_noise_vs_svd_oracle(self):
        rng = np.random.default_rng(RNG_SEED)
        A = rng.standard_normal((40, 5)) @ rng.standard_normal((5, 40))
        A += 1e-12 * rng.standard_normal((40, 40))
        fac = interpolative_decomposition(A, 1e-8)
        assert fac.rank == 5 == svd_rank_oracle(A, 1e-8)
        recon = A[:, fac.skeleton] @ fac.interp_full()
        _, s_or, _ = truncated_svd(A, 1e-8)
        assert np.linalg.norm(A - recon, 2) <= 1e-7 * np.linalg.norm(A, 2)

    def test_interp_entries_bounded(self):
        # pivoting keeps the interpolation coefficients modest
        rng = np.random.default_rng(RNG_SEED + 2)
        for _ in range(20):
            A = rng.standard_normal((30, 8)) @ rng.standard_normal((8, 30))
            fac = interpolative_decomposition(A, 1e-10)
            if fac.interp.size:
                assert np.max(np.abs(fac.interp)) <= 2.0


class TestDenseLuSolve:
    def test_identity(self):
        rng = np.random.default_rng(RNG_SEED)
        B = rng.standard_normal((6, 3))
        assert np.allclose(dense_lu_solve(np.eye(6), B), B)

    def test_scaled_identity(self):
        X = dense_lu_solve(2.0 * np.eye(4), np.eye(4))
        assert np.allclose(X, 0.5 * np.eye(4))

    @pytest.mark.filterwarnings("ignore::scipy.linalg.LinAlgWarning")

    def test_singular_raises(self):
        # an exact zero pivot and a tiny nonzero one below the underflow cut
        A = np.zeros((3, 3))
        A[0, 0] = 1.0
        for M in (A, np.diag([1.0, 1e-305])):
            with pytest.raises(SingularMatrixError, match="pivot 1"):
                dense_lu_solve(M, np.ones(M.shape[0]))


class TestComplexSingularValues:
    def test_scalar_i(self):
        s = complex_singular_values(np.array([[1j]]))
        assert np.allclose(s, [1.0])

    def test_diagonal(self):
        s = complex_singular_values(np.diag([2j, 1.0 + 0j]))
        assert np.allclose(s, [2.0, 1.0])

    def test_vs_complex_lapack(self):
        rng = np.random.default_rng(RNG_SEED)
        A = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        s = complex_singular_values(A)
        s_ref = np.linalg.svd(A, compute_uv=False)
        assert np.max(np.abs(s - s_ref)) < 1e-12 * s_ref[0]

    def test_real_matrix_matches_real_svd(self):
        rng = np.random.default_rng(RNG_SEED)
        A = rng.standard_normal((7, 5))
        s = complex_singular_values(A.astype(complex))
        assert np.allclose(s, np.linalg.svd(A, compute_uv=False))


class TestRecompress:
    def test_tightens_padded_factor(self):
        rng = np.random.default_rng(RNG_SEED)
        U = rng.standard_normal((20, 3)) @ rng.standard_normal((3, 8))
        V = rng.standard_normal((15, 8))
        f = recompress(LowRankFactor(U, V), 1e-12)
        assert f.rank == 3
        assert np.linalg.norm(f.todense() - U @ V.conj().T) < 1e-10


def test_eps_rank():
    assert eps_rank([1.0, 1e-3, 1e-12], 1e-6) == 2
    assert eps_rank([], 1e-6) == 0
