"""1D boundary value solvers: finite differences vs the integral equation."""

import tracemalloc

import numpy as np
import pytest

from fds.bvp1d import (
    Bvp1dProblem,
    assemble_fd,
    assemble_nystrom,
    condition_study,
    green_1d,
    semiseparable_check,
    solve_bvp_fd,
    solve_bvp_ie,
    solve_tridiag,
)
from fds.linalg import SingularMatrixError, dense_lu_solve

RNG_SEED = 414243


def fig2_problem(N, sign=1.0, fa=0.0, fb=0.0):
    return Bvp1dProblem.from_functions(
        0.0, 1.0, N,
        lambda x: sign * 100.0 * (1.0 + x) * np.cos(x),
        lambda x: 1.0 + np.cos(1.0 + x),
        fa=fa, fb=fb,
    )


class TestAssembleFd:
    def test_harmonic_interpolant(self):
        # m = g = 0, u(0) = 0, u(1) = 1: solution is the straight line
        p = Bvp1dProblem(0.0, 1.0, 3, np.zeros(3), np.zeros(3), fa=0.0, fb=1.0)
        u = solve_bvp_fd(p)
        assert np.allclose(u, p.x, atol=1e-14)

    def test_manufactured_solution_second_order(self):
        # u = sin(pi x) has load pi^2 sin(pi x); error drops ~4x per doubling
        errs = []
        for N in (32, 64, 128):
            p = Bvp1dProblem.from_functions(
                0.0, 1.0, N, lambda x: 0.0 * x, lambda x: np.pi**2 * np.sin(np.pi * x)
            )
            errs.append(np.max(np.abs(solve_bvp_fd(p) - np.sin(np.pi * p.x))))
        for e1, e2 in zip(errs, errs[1:]):
            assert 3.7 <= e1 / e2 <= 4.3

    def test_diagonal_entries(self):
        p = fig2_problem(17)
        T, _ = assemble_fd(p)
        h2inv = 1.0 / p.h**2
        assert np.allclose(T.diag, 2.0 * h2inv + p.m)
        assert np.allclose(T.sub, -h2inv) and np.allclose(T.sup, -h2inv)


    @pytest.mark.parametrize("name", ["m", "g"])
    def test_complex_samples_raise(self, name):
        # the finite-difference and integral-equation routes are real only
        samples = {"m": np.ones(4), "g": np.ones(4)}
        samples[name] = samples[name] + 1j
        with pytest.raises(ValueError, match=f"^{name} must be real"):
            Bvp1dProblem(0.0, 1.0, 4, **samples)


class TestSolveTridiag:
    def test_complex_rhs_raises(self):
        from fds.bvp1d import TridiagonalMatrix

        T = TridiagonalMatrix(np.zeros(2), np.ones(3), np.zeros(2))
        with pytest.raises(ValueError, match="^rhs must be real"):
            solve_tridiag(T, np.ones(3) + 1j)

    def test_identity(self):
        from fds.bvp1d import TridiagonalMatrix

        T = TridiagonalMatrix(np.zeros(4), np.ones(5), np.zeros(4))
        rhs = np.arange(5.0)
        assert np.allclose(solve_tridiag(T, rhs), rhs)

    def test_vs_dense_oracle(self):
        from fds.bvp1d import TridiagonalMatrix

        rng = np.random.default_rng(RNG_SEED)
        n = 50
        T = TridiagonalMatrix(
            sub=rng.standard_normal(n - 1),
            diag=10.0 + rng.standard_normal(n),
            sup=rng.standard_normal(n - 1),
        )
        rhs = rng.standard_normal(n)
        x = solve_tridiag(T, rhs)
        x_ref = dense_lu_solve(T.todense(), rhs)
        assert np.max(np.abs(x - x_ref)) < 1e-13 * np.max(np.abs(x_ref))

    def test_scalar(self):
        from fds.bvp1d import TridiagonalMatrix

        T = TridiagonalMatrix(np.zeros(0), np.array([4.0]), np.zeros(0))
        assert np.allclose(solve_tridiag(T, np.array([2.0])), [0.5])

    def test_pivot_fallback_on_indefinite(self):
        # zero leading pivot forces the banded pivoted path
        from fds.bvp1d import TridiagonalMatrix

        T = TridiagonalMatrix(np.array([1.0, 1.0]), np.array([0.0, 1.0, 2.0]),
                              np.array([1.0, -1.0]))
        rhs = np.array([1.0, 2.0, 3.0])
        x = solve_tridiag(T, rhs)
        assert np.max(np.abs(T.todense() @ x - rhs)) < 1e-12

    def test_zero_scalar_raises(self):
        # scipy's banded solve would return [inf] for this 1x1 system
        from fds.bvp1d import TridiagonalMatrix

        T = TridiagonalMatrix(np.zeros(0), np.array([0.0]), np.zeros(0))
        with pytest.raises(SingularMatrixError):
            solve_tridiag(T, np.array([1.0]))

    def test_singular_raises(self):
        from fds.bvp1d import TridiagonalMatrix

        T = TridiagonalMatrix(np.array([1.0]), np.array([1.0, 1.0]), np.array([1.0]))
        with pytest.raises(SingularMatrixError):
            solve_tridiag(T, np.array([1.0, 2.0]))


class TestSemiseparable:
    def test_fd_inverse_is_semiseparable(self):
        p = Bvp1dProblem(0.0, 1.0, 8, np.zeros(8), np.zeros(8))
        T, _ = assemble_fd(p)
        B = dense_lu_solve(T.todense(), np.eye(8))
        assert semiseparable_check(B) <= 1e-12

    def test_random_matrix_fails(self):
        rng = np.random.default_rng(RNG_SEED)
        assert semiseparable_check(rng.standard_normal((8, 8))) > 1e-3

    def test_rank_one_passes(self):
        rng = np.random.default_rng(RNG_SEED)
        B = np.outer(rng.standard_normal(8), rng.standard_normal(8))
        assert semiseparable_check(B) <= 1e-14


class TestGreen1d:
    def test_boundary_zero(self):
        y = np.linspace(0.0, 1.0, 11)
        assert np.allclose(green_1d(0.0, y, 0.0, 1.0), 0.0)
        assert np.allclose(green_1d(1.0, y, 0.0, 1.0), 0.0)

    def test_symmetry(self):
        rng = np.random.default_rng(RNG_SEED)
        x, y = rng.uniform(0, 1, (2, 100))
        assert np.allclose(
            green_1d(x, y, 0.0, 1.0), green_1d(y, x, 0.0, 1.0), atol=1e-15
        )

    def test_midpoint_value(self):
        assert green_1d(0.5, 0.5, 0.0, 1.0) == pytest.approx(0.25, abs=1e-15)

    def test_out_of_interval(self):
        with pytest.raises(ValueError):
            green_1d(1.5, 0.5, 0.0, 1.0)


class TestNystrom:
    def test_zero_m_gives_identity(self):
        p = Bvp1dProblem(0.0, 1.0, 20, np.zeros(20), np.ones(20))
        system, _ = assemble_nystrom(p)
        assert np.allclose(system, np.eye(20), atol=1e-15)

    def test_offdiagonal_blocks_rank_one(self):
        # the Green kernel makes each off-diagonal triangle block exactly rank 1
        p = fig2_problem(64)
        system, _ = assemble_nystrom(p)
        s = np.linalg.svd(system[: 32, 32:], compute_uv=False)
        assert s[1] <= 1e-14 * s[0]

    def test_green_matrix_inverts_fd_stencil(self):
        # G of the quadrature is the exact inverse of the m = 0 stencil
        for N in (16, 128, 512):
            p = Bvp1dProblem(0.0, 1.0, N, np.zeros(N), np.zeros(N))
            T, _ = assemble_fd(p)
            x = p.x
            G = p.h * green_1d(x[:, None], x[None, :], 0.0, 1.0)
            assert np.max(np.abs(G @ T.todense() - np.eye(N))) <= 1e-12

    def test_endpoint_weights_never_enter(self):
        # the assembled system only uses G at interior node pairs, where
        # the h/2 trapezoid endpoint weights cannot appear
        p = fig2_problem(32)
        system, rhs = assemble_nystrom(p)
        x = p.x
        G = p.h * green_1d(x[:, None], x[None, :], 0.0, 1.0)
        assert np.allclose(system, np.eye(32) + G * p.m[None, :], atol=1e-15)
        assert np.allclose(rhs, G @ p.g, atol=1e-15)

    @pytest.mark.parametrize("N", [1, 2, 7, 64, 1000])
    def test_bitwise_entrywise_oracle(self, N):
        # the one-buffer assembly performs the same operations per entry
        # as the dense formula, including +0.0 where G m is -0.0
        a, b = -1.5, 2.25
        p = Bvp1dProblem.from_functions(a, b, N, lambda x: 30.0 * np.sin(3.0 * x),
                                        lambda x: np.exp(-x))
        p.m[N // 2] = -0.0
        x = p.x
        G = p.h * green_1d(x[:, None], x[None, :], a, b)
        system, rhs = assemble_nystrom(p)
        oracle = np.eye(N) + G * p.m
        assert system.dtype == oracle.dtype and system.shape == oracle.shape
        assert system.tobytes() == oracle.tobytes()
        assert rhs.tobytes() == (G @ p.g).tobytes()

    def test_grid_outside_interval_rejected(self):
        p = Bvp1dProblem(1.0, 0.0, 5, np.zeros(5), np.zeros(5))
        with pytest.raises(ValueError, match="outside the interval"):
            assemble_nystrom(p)

    def test_one_dense_buffer(self):
        # the returned matrix is the only N x N allocation: the dense
        # formula peaked at 3.13 N^2 doubles
        N = 1024
        p = fig2_problem(N)
        tracemalloc.start()
        try:
            assemble_nystrom(p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * 8 * N * N

    def test_fd_ie_equivalence(self):
        # (D + M)^{-1} rhs = (I + G M)^{-1} G rhs on the shared grid
        p = fig2_problem(400)
        u_fd = solve_bvp_fd(p)
        u_ie = solve_bvp_ie(p)
        scale = np.max(np.abs(u_fd))
        assert np.max(np.abs(u_fd - u_ie)) <= 1e-10 * scale


class TestSolveBvpIe:
    def test_zero_m_linear_boundary_lift(self):
        p = Bvp1dProblem(0.0, 1.0, 16, np.zeros(16), np.zeros(16), fa=2.0, fb=-1.0)
        u = solve_bvp_ie(p)
        w = 2.0 * (1.0 - p.x) + (-1.0) * p.x
        assert np.allclose(u, w, atol=1e-14)

    def test_fig2_nonosc_matches_fd(self):
        p = fig2_problem(256)
        assert np.max(np.abs(solve_bvp_ie(p) - solve_bvp_fd(p))) < 1e-10

    def test_oscillatory_case_solvable(self):
        p = fig2_problem(2000, sign=-1.0)
        system, rhs = assemble_nystrom(p)
        u = solve_bvp_ie(p)
        res = np.linalg.norm(system @ u - rhs) / np.linalg.norm(rhs)
        assert res <= 1e-10

    def test_inhomogeneous_matches_fd(self):
        p = fig2_problem(300, fa=0.5, fb=-0.25)
        assert np.max(np.abs(solve_bvp_ie(p) - solve_bvp_fd(p))) < 1e-9


class TestConditionStudy:
    def test_trends_small_sweep(self):
        rows = condition_study([64, 128, 256], case="nonosc")
        conds = np.array([r.cond_fd for r in rows])
        slope = np.polyfit(np.log([64, 128, 256]), np.log(conds), 1)[0]
        assert 1.8 <= slope <= 2.2
        ie = np.array([r.cond_ie for r in rows])
        assert ie.max() / ie.min() < 2.0
        for r in rows:
            assert r.err_fd <= 3.0 * r.err_ie and r.err_ie <= 3.0 * r.err_fd

    def test_osc_case_runs(self):
        rows = condition_study([64, 128], case="osc")
        assert rows[0].cond_fd > 0 and np.isfinite(rows[0].err_ie)

    def test_rejects_bad_case(self):
        with pytest.raises(ValueError):
            condition_study([64], case="wiggly")
