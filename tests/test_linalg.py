"""Dense kernel tests: rank-revealing factorizations against independent oracles."""

import numpy as np
import pytest

from fds import linalg
from fds.linalg import (
    LowRankFactor,
    SingularMatrixError,
    complex_singular_values,
    dense_lu_solve,
    eps_rank,
    interpolative_decomposition,
    low_rank_approx,
    range_finder,
    recompress,
    truncated_svd,
)

RNG_SEED = 20240611


def svd_rank_oracle(A, tol):
    """Brute-force numerical rank: count sigma_j > tol * sigma_1."""
    s = np.linalg.svd(A, compute_uv=False)
    return int(np.sum(s > tol * s[0]))


class TestCpqr:
    """The column-pivoted QR behind the ID: its cut and A ~= A[:, J] X."""

    def test_identity(self):
        J, X = interpolative_decomposition(np.eye(5), 1e-10)
        assert len(J) == 5
        assert np.allclose(np.eye(5)[:, J] @ X, np.eye(5), atol=1e-14)

    def test_rank_one_outer_product(self):
        rng = np.random.default_rng(RNG_SEED)
        u = rng.standard_normal(12) + 0.1
        v = rng.standard_normal(9) + 0.1
        J, _ = interpolative_decomposition(np.outer(u, v), 1e-10)
        assert len(J) == 1

    def test_rank_vs_svd_oracle_geometric_spectrum(self):
        # 30x20 with singular values 2^-j; oracle computed first
        rng = np.random.default_rng(RNG_SEED)
        U, _ = np.linalg.qr(rng.standard_normal((30, 20)))
        V, _ = np.linalg.qr(rng.standard_normal((20, 20)))
        s = 2.0 ** -np.arange(1, 21)
        A = (U * s) @ V.T
        oracle = svd_rank_oracle(A, 1e-6)
        J, _ = interpolative_decomposition(A, 1e-6)
        assert abs(len(J) - oracle) <= 1

    def test_zero_matrix(self):
        J, X = interpolative_decomposition(np.zeros((4, 6)), 1e-10)
        assert len(J) == 0 and X.shape == (0, 6)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            interpolative_decomposition(np.empty((0, 3)), 1e-10)
        with pytest.raises(ValueError):
            interpolative_decomposition(np.array([[np.nan, 1.0]]), 1e-10)
        with pytest.raises(ValueError):
            interpolative_decomposition(np.eye(3), 2.0)

    def test_reconstruction_on_random_matrices(self):
        # 100 random low-rank-plus-noise matrices per shape class
        rng = np.random.default_rng(RNG_SEED)
        for shape in [(16, 16), (24, 12), (12, 24)]:
            for _ in range(100):
                k = rng.integers(1, min(shape) // 2)
                A = rng.standard_normal((shape[0], k)) @ rng.standard_normal((k, shape[1]))
                A += 1e-10 * rng.standard_normal(shape)
                J, X = interpolative_decomposition(A, 1e-6)
                err = np.linalg.norm(A - A[:, J] @ X)
                assert err <= 10 * 1e-6 * np.linalg.norm(A)
                assert abs(len(J) - svd_rank_oracle(A, 1e-6)) <= 1


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
        # 600 x 560 is past the dense-SVD limit, so the sampled path runs
        # the range finder; cross approximation lands at the same rank
        x = np.linspace(0.0, 1.0, 600)
        y = np.linspace(1.5, 2.5, 560)
        d = np.abs(x[:, None] - y[None, :])
        A = np.log(d) if kind == "real" else np.exp(10j * d) / d
        tol = 1e-10
        _, s, _ = truncated_svd(A, tol)
        for F in (linalg._sampled_approx(A, tol), low_rank_approx(A, tol)):
            assert F.rank == len(s)
            assert np.linalg.norm(A - F.todense(), 2) <= 10 * tol * np.linalg.norm(A, 2)

    def test_unvisited_row_is_refused_by_the_sketch(self, sampled_path):
        # row 0 is zero, so cross approximation stops at rank 0 without
        # visiting row 17; the sketch sees the entry and the SVD keeps it
        A = np.zeros((40, 30))
        A[17, 11] = 1.0
        assert linalg._aca(A, 1e-12).rank == 0
        F = low_rank_approx(A, 1e-10)
        assert sampled_path == [(40, 30)]
        assert F.rank == 1 and np.array_equal(F.todense(), A)

    @pytest.mark.parametrize("shape", [(50, 40), (1, 7), (600, 600)])
    def test_zero_block_certified_at_rank_zero(self, sampled_path, shape):
        F = low_rank_approx(np.zeros(shape), 1e-10)
        assert sampled_path == []
        assert F.U.shape == (shape[0], 0) and F.V.shape == (shape[1], 0)

    @pytest.mark.parametrize("tol", [1e-6, 1e-12])
    def test_complex_block_certified_at_svd_rank(self, sampled_path, tol):
        x = np.linspace(0.0, 1.0, 200)
        y = np.linspace(1.5, 2.5, 180)
        d = np.abs(x[:, None] - y[None, :])
        A = np.exp(10j * d) / d
        F = low_rank_approx(A, tol)
        _, s, _ = truncated_svd(A, tol)
        assert sampled_path == []
        assert np.iscomplexobj(F.U) and np.iscomplexobj(F.V) and F.rank == len(s)
        assert np.linalg.norm(A - F.todense(), 2) <= 2 * tol * s[0]

    def test_rejects_bad_tolerance(self):
        with pytest.raises(ValueError, match="relative tolerance"):
            low_rank_approx(np.eye(3), 2.0)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("row", [0, 3])
    def test_nonfinite_block_refused(self, bad, row):
        # in the first pivot row cross approximation stops at the bad entry,
        # elsewhere it never reads it; the sketch refuses both, without a
        # warning, and the sampled path names the entry
        A = np.outer(np.arange(1.0, 701.0), np.ones(650))
        A[row, 5] = bad
        with pytest.raises(ValueError, match="non-finite"):
            low_rank_approx(A, 1e-10)

    def test_seeded_factors_are_byte_identical(self, sampled_path):
        x = np.linspace(0.0, 1.0, 300)
        A = np.log(np.abs(x[:, None] - x[None, ::-1] - 1.5))
        F, G = low_rank_approx(A, 1e-10), low_rank_approx(A, 1e-10)
        assert sampled_path == [] and F.rank > 1
        assert F.U.tobytes() == G.U.tobytes() and F.V.tobytes() == G.V.tobytes()

    def test_refused_wide_block_goes_through_range_finder(self, sampled_path, monkeypatch):
        calls = []
        real = linalg.range_finder
        monkeypatch.setattr(linalg, "range_finder",
                            lambda A, tol: calls.append(A.shape) or real(A, tol))
        A = np.zeros((600, 560))
        A[300, 200] = 2.0
        F = low_rank_approx(A, 1e-10)
        assert sampled_path == [(600, 560)] and calls == [(600, 560)]
        assert F.rank == 1 and np.allclose(F.todense(), A, rtol=0.0, atol=1e-14)
        for M in (F.U, F.V):  # neither factor is a view of the sample-sized arrays
            owner = M
            while owner.base is not None:
                owner = owner.base
            assert owner.nbytes == M.nbytes


def known_spectrum(m, n, s, complex_, seed):
    """U diag(s) V* with Haar-like orthonormal U (m x r) and V (n x r)."""
    rng = np.random.default_rng(seed)

    def orth(rows):
        G = rng.standard_normal((rows, len(s)))
        if complex_:
            G = G + 1j * rng.standard_normal(G.shape)
        return np.linalg.qr(G)[0]

    return (orth(m) * s) @ orth(n).conj().T


class TestRangeFinder:
    @pytest.mark.parametrize("complex_", [False, True])
    def test_rank_past_first_sample_matches_exact_svd(self, complex_):
        # sigma_j = 10^(-j/4.2): 51 values above tol = 1e-12, past the
        # 32-column first sample, none within a tenth of a decade of the cut
        tol = 1e-12
        A = known_spectrum(600, 500, 10.0 ** (-np.arange(120) / 4.2), complex_, 1)
        Q, B, s = range_finder(A, tol)
        exact = np.linalg.svd(A, compute_uv=False)
        r = eps_rank(exact, tol)
        assert r == 51 and Q.shape[1] > 32
        assert eps_rank(s, tol) == r
        assert np.max(np.abs(s[:r] - exact[:r])) <= 1e-13 * exact[0]
        assert np.sum(s <= tol * s[0]) >= 10
        assert np.linalg.norm(Q.conj().T @ Q - np.eye(Q.shape[1])) <= 1e-13
        assert np.allclose(B, Q.conj().T @ A, rtol=0.0, atol=1e-14 * exact[0])

    def test_exact_rank_inside_first_sample_keeps_basis_orthonormal(self):
        # rank 28 leaves only 4 of 32 sampled values at the cut, so the
        # sample grows with columns whose range A has already been captured
        A = known_spectrum(500, 450, np.linspace(1.0, 0.5, 28), True, 2)
        Q, _, s = range_finder(A, 1e-10)
        assert Q.shape[1] == 64
        assert np.linalg.norm(Q.conj().T @ Q - np.eye(64)) <= 1e-13
        assert eps_rank(s, 1e-10) == 28
        assert np.max(np.abs(s[:28] - np.linspace(1.0, 0.5, 28))) <= 1e-14

    @pytest.mark.parametrize("complex_", [False, True])
    def test_rank_one_block_takes_one_sample(self, complex_):
        rng = np.random.default_rng(3)
        u, v = rng.standard_normal(700), rng.standard_normal(600)
        A = np.outer(u, v) * (1.0 + 1j if complex_ else 1.0)
        Q, B, s = range_finder(A, 1e-10)
        assert Q.shape == (700, 32) and B.shape == (32, 600) and s.shape == (32,)
        assert eps_rank(s, 1e-10) == 1

    def test_sample_stops_at_smaller_dimension(self):
        A = np.random.default_rng(4).standard_normal((40, 600))
        Q, B, s = range_finder(A, 1e-10)
        assert Q.shape == (40, 40) and len(s) == 40
        assert np.allclose(s, np.linalg.svd(A, compute_uv=False), rtol=1e-13)


class TestInterpolativeDecomposition:
    def test_exactly_dependent_column(self):
        rng = np.random.default_rng(RNG_SEED)
        A = rng.standard_normal((8, 5))
        A[:, 2] = 2.0 * A[:, 0]
        J, _ = interpolative_decomposition(A, 1e-12)
        assert len(J) == 4
        assert (2 in J) != (0 in J) or not (2 in J and 0 in J)

    def test_identity(self):
        J, X = interpolative_decomposition(np.eye(6), 1e-12)
        assert len(J) == 6 and np.array_equal(X[:, J], np.eye(6))
        assert sorted(J) == list(range(6))

    def test_low_rank_plus_noise_vs_svd_oracle(self):
        rng = np.random.default_rng(RNG_SEED)
        A = rng.standard_normal((40, 5)) @ rng.standard_normal((5, 40))
        A += 1e-12 * rng.standard_normal((40, 40))
        J, X = interpolative_decomposition(A, 1e-8)
        assert len(J) == 5 == svd_rank_oracle(A, 1e-8)
        recon = A[:, J] @ X
        _, s_or, _ = truncated_svd(A, 1e-8)
        assert np.linalg.norm(A - recon, 2) <= 1e-7 * np.linalg.norm(A, 2)

    def test_interp_entries_bounded(self):
        # pivoting keeps the interpolation coefficients modest
        rng = np.random.default_rng(RNG_SEED + 2)
        for _ in range(20):
            A = rng.standard_normal((30, 8)) @ rng.standard_normal((8, 30))
            J, X = interpolative_decomposition(A, 1e-10)
            assert np.max(np.abs(X)) <= 2.0


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

    def test_non_square_raises_value_error(self):
        # it used to pass the LU and fail in lu_solve with scipy's untyped error
        with pytest.raises(ValueError, match=r"matrix must be square, got shape \(8, 6\)"):
            dense_lu_solve(np.random.default_rng(RNG_SEED).standard_normal((8, 6)), np.ones(8))


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
