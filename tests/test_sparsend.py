"""Nested dissection: stencil assembly, partition, multifrontal LU, and
the Schur-complement spectrum study."""

import numpy as np
import pytest

from fds.linalg import SingularMatrixError
from fds.sparsend import (
    _subtree_indices,
    assemble_stencil,
    nd_factor,
    nd_partition,
    nd_solve,
    schur_offdiag_spectrum,
)

RNG_SEED = 31415


class TestAssemble:
    def test_2d_hand_count(self):
        st = assemble_stencil(2, 3)
        A = st.A.toarray()
        h2inv = 16.0  # h = 1/4
        assert A.shape == (9, 9)
        assert np.allclose(np.diag(A), 4.0 * h2inv)
        off = A[~np.eye(9, dtype=bool)]
        assert np.sum(off == -h2inv) == 24  # 12 neighbor pairs
        assert np.allclose(A, A.T)

    def test_3d_diagonal(self):
        st = assemble_stencil(3, 3)
        assert np.allclose(st.A.diagonal(), 6.0 * 16.0)

    def test_matvec_vs_dense_construction(self):
        n = 6
        st = assemble_stencil(2, n, m_field=1.5)
        h2inv = float((n + 1) ** 2)
        dense = np.zeros((36, 36))
        for i in range(n):
            for j in range(n):
                r = i * n + j
                dense[r, r] = 4.0 * h2inv + 1.5
                for di, dj in ((1, 0), (-1, 0), (0, 1), (0, -1)):
                    ii, jj = i + di, j + dj
                    if 0 <= ii < n and 0 <= jj < n:
                        dense[r, ii * n + jj] = -h2inv
        rng = np.random.default_rng(RNG_SEED)
        x = rng.standard_normal(36)
        assert np.allclose(st.A @ x, dense @ x, atol=1e-12)

    def test_laplacian_row_sums_count_boundary_deficit(self):
        n = 5
        st = assemble_stencil(2, n)
        h2inv = float((n + 1) ** 2)
        sums = np.asarray(st.A.sum(axis=1)).ravel() / h2inv
        # interior rows sum to 0, edge rows to the number of clipped neighbors
        grid = sums.reshape(n, n)
        assert np.allclose(grid[2, 2], 0.0)
        assert np.allclose(grid[0, 2], 1.0) and np.allclose(grid[0, 0], 2.0)


class TestPartition:
    def test_top_separator_structure_n6(self):
        tree = nd_partition(2, 6, leaf_cells=3)
        root = tree.root
        assert len(root.separator) == 6  # one grid line
        # separator is the center vertical line (axis 0, cut at 2)
        rows = root.separator // 6
        assert np.all(rows == 2)
        left, right = root.children
        assert len(_subtree_indices(left)) == 12 and len(_subtree_indices(right)) == 18

    def test_disconnection_everywhere(self):
        st = assemble_stencil(2, 32)
        tree = nd_partition(2, 32, leaf_cells=4)

        def check(node):
            if not node.children:
                return
            i2 = _subtree_indices(node.children[0])
            i3 = _subtree_indices(node.children[1])
            assert st.A[np.ix_(i2, i3)].nnz == 0
            for c in node.children:
                check(c)

        check(tree.root)

    def test_single_leaf_when_leaf_cells_equals_n(self):
        tree = nd_partition(2, 8, leaf_cells=8)
        assert not tree.root.children
        assert len(tree.root.separator) == 64

    def test_indices_cover_grid_once(self):
        for dim, n in ((2, 17), (3, 7)):
            tree = nd_partition(dim, n, leaf_cells=3)
            idx = np.sort(_subtree_indices(tree.root))
            assert np.array_equal(idx, np.arange(n**dim))


class TestFactorSolve:
    def test_vs_dense_oracle_n16(self):
        st = assemble_stencil(2, 16)
        tree = nd_partition(2, 16, leaf_cells=4)
        fac = nd_factor(st, tree)
        rng = np.random.default_rng(RNG_SEED)
        B = rng.standard_normal((st.N, 10))
        X = nd_solve(fac, B)
        X_ref = np.linalg.solve(st.A.toarray(), B)
        assert np.max(np.abs(X - X_ref)) <= 1e-11 * np.max(np.abs(X_ref))

    def test_inverse_composition_small_grids(self):
        # A applied to the solve of the identity reproduces the identity
        for dim, n in ((2, 8), (3, 5)):
            st = assemble_stencil(dim, n)
            tree = nd_partition(dim, n, leaf_cells=3)
            fac = nd_factor(st, tree)
            X = nd_solve(fac, np.eye(st.N))
            assert np.max(np.abs(st.A @ X - np.eye(st.N))) <= 1e-12 * st.A.diagonal().max()

    def test_shifted_operator_well_conditioned(self):
        st = assemble_stencil(2, 20, m_field=1e4)
        tree = nd_partition(2, 20, leaf_cells=4)
        fac = nd_factor(st, tree)
        rng = np.random.default_rng(RNG_SEED)
        b = rng.standard_normal(st.N)
        x = nd_solve(fac, b)
        assert np.linalg.norm(st.A @ x - b) <= 1e-12 * np.linalg.norm(b)

    def test_flop_exponent_in_window(self):
        flops = []
        Ns = []
        for n in (32, 64, 128):
            st = assemble_stencil(2, n)
            fac = nd_factor(st, nd_partition(2, n, leaf_cells=4))
            flops.append(fac.flops)
            Ns.append(st.N)
        slope = np.polyfit(np.log(Ns), np.log(flops), 1)[0]
        assert 1.4 <= slope <= 1.65

    def test_manufactured_solution_second_order(self):
        errs = []
        for n in (16, 32, 64):
            st = assemble_stencil(2, n)
            h = st.h
            ij = np.indices((n, n)).reshape(2, -1) + 1
            x, y = ij[0] * h, ij[1] * h
            u_exact = np.sin(np.pi * x) * np.sin(np.pi * y)
            f = 2.0 * np.pi**2 * u_exact
            fac = nd_factor(st, nd_partition(2, n, leaf_cells=4))
            u = nd_solve(fac, f)
            errs.append(np.max(np.abs(u - u_exact)))
        for e1, e2 in zip(errs, errs[1:]):
            assert 3.6 <= e1 / e2 <= 4.4

    def test_complex_rhs(self):
        st = assemble_stencil(2, 16)
        fac = nd_factor(st, nd_partition(2, 16, leaf_cells=4))
        rng = np.random.default_rng(RNG_SEED)
        b = rng.standard_normal(st.N) + 1j * rng.standard_normal(st.N)
        x = nd_solve(fac, b)
        assert np.iscomplexobj(x)
        assert np.linalg.norm(st.A @ x - b) <= 1e-10 * np.linalg.norm(b)

    def test_zero_rhs(self):
        st = assemble_stencil(2, 8)
        fac = nd_factor(st, nd_partition(2, 8, leaf_cells=3))
        assert np.allclose(nd_solve(fac, np.zeros(64)), 0.0)

    @pytest.mark.filterwarnings("ignore::scipy.linalg.LinAlgWarning")

    def test_singular_front_raises(self):
        st = assemble_stencil(2, 8)
        A = st.A.tolil()
        # zero out one leaf's rows to force a singular front
        A[0, :] = 0.0
        A[:, 0] = 0.0
        with pytest.raises(SingularMatrixError, match="box"):
            nd_factor(A.tocsr(), nd_partition(2, 8, leaf_cells=3))


class TestSchurSpectrum:
    def test_2d_laplace_rank_growth_slow(self):
        r64 = schur_offdiag_spectrum(2, 64).rank_at(1e-10)
        r128 = schur_offdiag_spectrum(2, 128).rank_at(1e-10)
        assert r128 - r64 <= 5
        assert r128 <= 30

    def test_2d_laplace_decay_reaches_floor(self):
        res = schur_offdiag_spectrum(2, 64)
        cutoff = min(60, len(res.sigmas))
        assert res.sigmas[cutoff - 1] < 1e-14

    def test_helmholtz_oscillatory_content(self):
        # oscillation raises the rank roughly linearly in the wave count
        # before the exponential tail takes over; the leading singular
        # values sag rather than staying flat because the two separator
        # halves are collinear (|x - y| = s + t separates the phase), so
        # no 0.1-level plateau appears (the acceptance suite records this)
        ranks = []
        for waves in (5, 10, 20):
            res = schur_offdiag_spectrum(
                2, 128, operator="helmholtz", kappa=2.0 * np.pi * waves
            )
            assert res.sigmas[-1] < 1e-10
            ranks.append(res.rank_at(1e-10))
        laplace_rank = schur_offdiag_spectrum(2, 128).rank_at(1e-10)
        assert ranks[0] > laplace_rank
        assert ranks[0] < ranks[1] < ranks[2]

    def test_3d_rank_exceeds_2d(self):
        r3 = schur_offdiag_spectrum(3, 16, leaf_cells=3).rank_at(1e-10)
        r2 = schur_offdiag_spectrum(2, 128).rank_at(1e-10)
        assert r3 >= 2 * r2  # 3D separators carry much higher rank

    def test_input_validation(self):
        with pytest.raises(ValueError):
            schur_offdiag_spectrum(2, 512)
        with pytest.raises(ValueError):
            schur_offdiag_spectrum(2, 64, operator="helmholtz")
