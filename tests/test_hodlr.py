"""HODLR compression, matvec, and the two inverse representations."""

import numpy as np
import pytest

from fds.bvp1d import Bvp1dProblem, assemble_nystrom
from fds.hodlr import (
    HodlrMatrix,
    compress_to_hodlr,
    hodlr_matvec,
    invert_multiplicative,
    invert_woodbury,
    storage_report,
)
from fds.linalg import LowRankFactor, SingularMatrixError, dense_lu_solve
from fds.tree import build_uniform_tree

RNG_SEED = 777


def ie_matrix(N):
    p = Bvp1dProblem.from_functions(
        0.0, 1.0, N,
        lambda x: 100.0 * (1.0 + x) * np.cos(x),
        lambda x: 1.0 + np.cos(1.0 + x),
    )
    system, rhs = assemble_nystrom(p)
    return system, rhs


def kernel_matrix(N):
    i = np.arange(N)
    return 1.0 / (1.0 + np.abs(i[:, None] - i[None, :]))


class TestCompress:
    def test_identity_all_ranks_zero(self):
        tree = build_uniform_tree(64, 8)
        H = compress_to_hodlr(np.eye(64), tree, 1e-10)
        assert H.max_rank() == 0
        for tau in tree.leaves():
            assert np.allclose(H.leaf_diag[tau], np.eye(tree.size(tau)))

    def test_smooth_kernel_reconstruction(self):
        A = kernel_matrix(256)
        tree = build_uniform_tree(256, 32)
        H = compress_to_hodlr(A, tree, 1e-10)
        err = np.linalg.norm(H.todense() - A) / np.linalg.norm(A)
        assert err <= 1e-9
        assert H.max_rank() < 32

    def test_ie_matrix_exact_rank_one(self):
        # diagonal + semi-separable: every off-diagonal block has rank 1
        A, _ = ie_matrix(512)
        tree = build_uniform_tree(512, 32)
        H = compress_to_hodlr(A, tree, 1e-12)
        assert H.max_rank() == 1
        assert np.linalg.norm(H.todense() - A) <= 1e-11 * np.linalg.norm(A)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            compress_to_hodlr(np.eye(10), build_uniform_tree(12, 4), 1e-8)


class TestMatvec:
    def test_identity(self):
        tree = build_uniform_tree(64, 8)
        H = compress_to_hodlr(np.eye(64), tree, 1e-10)
        x = np.arange(64.0)
        assert np.allclose(hodlr_matvec(H, x), x)

    def test_vs_dense(self):
        rng = np.random.default_rng(RNG_SEED)
        A = kernel_matrix(256)
        tree = build_uniform_tree(256, 32)
        H = compress_to_hodlr(A, tree, 1e-10)
        x = rng.standard_normal(256)
        y = hodlr_matvec(H, x)
        assert np.linalg.norm(y - A @ x) <= 1e-9 * np.linalg.norm(A @ x)

    def test_zero_vector(self):
        tree = build_uniform_tree(64, 8)
        H = compress_to_hodlr(kernel_matrix(64), tree, 1e-10)
        assert np.allclose(hodlr_matvec(H, np.zeros(64)), 0.0)

    def test_dimension_mismatch(self):
        tree = build_uniform_tree(64, 8)
        H = compress_to_hodlr(np.eye(64), tree, 1e-10)
        with pytest.raises(ValueError):
            hodlr_matvec(H, np.ones(65))


class TestWoodburyInverse:
    def test_scaled_identity(self):
        tree = build_uniform_tree(32, 8)
        H = compress_to_hodlr(2.0 * np.eye(32), tree, 1e-12)
        inv = invert_woodbury(H)
        x = np.arange(32.0)
        assert np.allclose(inv.apply(x), x / 2.0)

    def test_ie_matrix_vs_dense_solve(self):
        A, rhs = ie_matrix(512)
        tree = build_uniform_tree(512, 32)
        H = compress_to_hodlr(A, tree, 1e-12)
        inv = invert_woodbury(H)
        x = inv.apply(rhs)
        x_ref = dense_lu_solve(A, rhs)
        assert np.linalg.norm(x - x_ref) <= 1e-8 * np.linalg.norm(x_ref)

    def test_recompressed_inverse_is_hodlr(self):
        from fds.hodlr import recompress_inverse

        A, rhs = ie_matrix(256)
        tree = build_uniform_tree(256, 32)
        H = compress_to_hodlr(A, tree, 1e-12)
        inv = invert_woodbury(H)
        Hinv = recompress_inverse(inv, 1e-10)
        x_ref = dense_lu_solve(A, rhs)
        err = np.linalg.norm(hodlr_matvec(Hinv, rhs) - x_ref)
        assert err <= 1e-8 * np.linalg.norm(x_ref)
        # the recompressed inverse has modest but nonzero off-diagonal rank
        assert 1 <= Hinv.max_rank() <= 16

    def test_recompressed_complex_inverse_keeps_imaginary_part(self):
        from fds.hodlr import recompress_inverse

        N = 256
        i = np.arange(N)
        A = kernel_matrix(N) * np.exp(0.3j * (i[:, None] - i[None, :])) + 10 * np.eye(N)
        H = compress_to_hodlr(A, build_uniform_tree(N, 32), 1e-12)
        Hinv = recompress_inverse(invert_woodbury(H), 1e-10)
        rng = np.random.default_rng(RNG_SEED)
        x = rng.standard_normal(N) + 1j * rng.standard_normal(N)
        y = hodlr_matvec(Hinv, x)
        y_ref = np.linalg.solve(A, x)
        assert np.iscomplexobj(y)
        assert np.linalg.norm(y - y_ref) <= 1e-8 * np.linalg.norm(y_ref)

    @pytest.mark.filterwarnings("ignore::scipy.linalg.LinAlgWarning")
    def test_singular_woodbury_core_names_node(self):
        # [[I, I], [I, I]] has regular leaves but a singular core at the root
        I2 = np.eye(2)
        H = compress_to_hodlr(np.block([[I2, I2], [I2, I2]]), build_uniform_tree(4, 2), 1e-12)
        with pytest.raises(SingularMatrixError, match="node 1"):
            invert_woodbury(H)

    @pytest.mark.filterwarnings("ignore::scipy.linalg.LinAlgWarning")

    def test_singular_leaf_names_node(self):
        tree = build_uniform_tree(32, 8)
        A = kernel_matrix(32) + 10 * np.eye(32)
        H = compress_to_hodlr(A, tree, 1e-12)
        first_leaf = next(iter(tree.leaves()))
        H.leaf_diag[first_leaf] = np.zeros((tree.size(first_leaf),) * 2)
        with pytest.raises(SingularMatrixError, match=str(first_leaf)):
            invert_woodbury(H)


class TestMultiplicativeInverse:
    def test_factor_count_matches_depth(self):
        tree = build_uniform_tree(64, 8)  # depth 3
        H = compress_to_hodlr(kernel_matrix(64) + 8 * np.eye(64), tree, 1e-12)
        inv = invert_multiplicative(H)
        assert tree.depth == 3 and inv.nfactors == 4

    def test_diagonal_matrix(self):
        N = 64
        tree = build_uniform_tree(N, 8)
        H = compress_to_hodlr(np.diag(np.arange(1.0, N + 1)), tree, 1e-12)
        inv = invert_multiplicative(H)
        # off-diagonal blocks vanish: every correction factor has rank 0
        for blocks in inv.level_blocks.values():
            for f in blocks.values():
                assert f.rank == 0
        x = np.ones(N)
        assert np.allclose(inv.apply(x), 1.0 / np.arange(1.0, N + 1))

    def test_composition_with_matvec_is_identity(self):
        rng = np.random.default_rng(RNG_SEED)
        N = 256
        A = kernel_matrix(N) + N * np.eye(N)  # SPD-shifted kernel
        tree = build_uniform_tree(N, 32)
        H = compress_to_hodlr(A, tree, 1e-12)
        inv = invert_multiplicative(H)
        for _ in range(5):
            x = rng.standard_normal(N)
            y = inv.apply(hodlr_matvec(H, x))
            assert np.linalg.norm(y - x) <= 1e-8 * np.linalg.norm(x)

    def test_rank_preservation_under_sweeps(self):
        # every off-diagonal factor keeps its column count through the
        # left-multiplication sweeps; the factors store rank-k pairs and
        # the corrections never widen them
        A, _ = ie_matrix(256)
        tree = build_uniform_tree(256, 16)
        H = compress_to_hodlr(A, tree, 1e-12)
        ranks_before = {k: f.rank for k, f in H.offdiag.items()}
        inv = invert_multiplicative(H)
        ranks_after = {k: f.rank for k, f in H.offdiag.items()}
        assert ranks_before == ranks_after
        k_max = H.max_rank()
        for blocks in inv.level_blocks.values():
            for f in blocks.values():
                assert f.rank <= 2 * k_max

    def test_subnormal_leaf_pivot_names_leaf(self):
        # LAPACK's inverse accepts the 1e-310 pivot and the apply returns nan
        A = np.eye(8)
        A[1, 1] = 1e-310
        H = compress_to_hodlr(A, build_uniform_tree(8, 2), 1e-12)
        with pytest.raises(SingularMatrixError,
                           match=r"leaf diagonal block 4 is singular \(pivot 1\)"):
            invert_multiplicative(H)

    @pytest.mark.filterwarnings("ignore::scipy.linalg.LinAlgWarning")
    def test_singular_core_names_node(self):
        # [[I, I], [I, I]] has regular leaves but a singular core at the root
        I2 = np.eye(2)
        H = compress_to_hodlr(np.block([[I2, I2], [I2, I2]]), build_uniform_tree(4, 2), 1e-12)
        with pytest.raises(SingularMatrixError, match="core at node 1"):
            invert_multiplicative(H)


def reference_apply(inv, x):
    """The per-node multiplicative apply: every leaf block of B_L, then
    every block of B_ell for ell = depth - 1 .. 0, one product each."""
    t = inv.tree
    dtype = np.result_type(x.dtype, *(m.dtype for m in inv.leaf_inverses.values()))
    y = np.zeros(x.shape, dtype=dtype)
    for tau in t.leaves():
        i = t.index_range(tau)
        y[i] = inv.leaf_inverses[tau] @ x[i]
    for ell in range(t.depth - 1, -1, -1):
        for tau, corr in inv.level_blocks[ell].items():
            i = t.index_range(tau)
            y[i] += corr.matvec(y[i])
    return y


def mixed_rank_hodlr(N, leaf):
    """HODLR matrix whose sibling blocks of one level have ranks 1, 2, 3."""
    rng = np.random.default_rng(RNG_SEED)
    tree = build_uniform_tree(N, leaf)
    offdiag = {}
    for a, b in [(2 * t, 2 * t + 1) for t in range(1, 2**tree.depth)]:
        for p, q in ((a, b), (b, a)):
            k = 1 + p % 3
            offdiag[(p, q)] = LowRankFactor(rng.standard_normal((tree.size(p), k)) / N,
                                            rng.standard_normal((tree.size(q), k)))
    leaf_diag = {t: rng.standard_normal((tree.size(t),) * 2) + tree.size(t) * np.eye(tree.size(t))
                 for t in tree.leaves()}
    return HodlrMatrix(tree=tree, offdiag=offdiag, leaf_diag=leaf_diag, tol=0.0)


def complex_kernel_matrix(N):
    i = np.arange(N)
    return kernel_matrix(N) * np.exp(0.3j * (i[:, None] - i[None, :])) + 10 * np.eye(N)


class TestBatchedApply:
    """The stacked apply against the per-node loop it replaced."""

    CASES = {
        # N = 777, leaf 64: blocks of 97 and 98 rows, two stacks per level
        "two_sizes": lambda: compress_to_hodlr(ie_matrix(777)[0], build_uniform_tree(777, 64),
                                               1e-12),
        "complex": lambda: compress_to_hodlr(complex_kernel_matrix(300),
                                             build_uniform_tree(300, 32), 1e-12),
        "mixed_ranks": lambda: mixed_rank_hodlr(512, 32),
        # N < 2 * leaf: one dense block
        "depth_zero": lambda: compress_to_hodlr(kernel_matrix(100) + np.eye(100),
                                                build_uniform_tree(100, 64), 1e-12),
    }

    @pytest.mark.parametrize("nrhs", [None, 3])
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_matches_per_node_apply(self, case, nrhs):
        H = self.CASES[case]()
        inv = invert_multiplicative(H)
        rng = np.random.default_rng(RNG_SEED)
        x = rng.standard_normal((H.N,) if nrhs is None else (H.N, nrhs))
        y = inv.apply(x)
        y_ref = reference_apply(inv, x)
        assert y.shape == x.shape and y.dtype == y_ref.dtype
        assert np.linalg.norm(y - y_ref) <= 1e-14 * np.linalg.norm(y_ref)

    def test_stack_layout(self):
        two = invert_multiplicative(self.CASES["two_sizes"]())
        assert [len(two.level_stacks[ell]) for ell in range(3)] == [1, 2, 2]
        assert len(two.leaf_stacks) == 2 and two.level_stacks[0][0].rows is None
        mixed = invert_multiplicative(self.CASES["mixed_ranks"]())
        ranks = {s.U.shape[2] for s in mixed.level_stacks[2]}
        assert len(ranks) > 1  # unequal ranks in one level: one stack each
        zero = invert_multiplicative(self.CASES["depth_zero"]())
        assert zero.level_stacks == {} and zero.leaf_stacks[0].U.shape == (1, 100, 100)

    def test_views_share_the_stacks(self):
        inv = invert_multiplicative(self.CASES["two_sizes"]())
        for s in inv.leaf_stacks:
            for j, tau in enumerate(s.nodes):
                assert np.shares_memory(inv.leaf_inverses[tau], s.U[j])
        assert sorted(inv.leaf_inverses) == list(inv.tree.leaves())
        for ell, blocks in inv.level_blocks.items():
            assert sorted(blocks) == list(inv.tree.nodes_at_level(ell))

    def test_wrong_length_raises(self):
        inv = invert_multiplicative(self.CASES["two_sizes"]())
        with pytest.raises(ValueError, match="vector length"):
            inv.apply(np.ones(776))

    def test_storage_count_n4096(self):
        # the bvp1d rung at N = 4096, leaf 64: 64 leaf inverses of 64^2
        # plus rank-2 corrections, the count before the stacked layout
        A, _ = ie_matrix(4096)
        inv = invert_multiplicative(compress_to_hodlr(A, build_uniform_tree(4096, 64), 1e-10))
        assert storage_report(inv) == {"stored_scalars": 360448, "max_rank": 2}


class TestInverseConsistency:
    @pytest.mark.parametrize("inverter", [invert_woodbury, invert_multiplicative])
    def test_twenty_random_vectors(self, inverter):
        rng = np.random.default_rng(RNG_SEED)
        A, _ = ie_matrix(256)
        tree = build_uniform_tree(256, 32)
        H = compress_to_hodlr(A, tree, 1e-12)
        inv = inverter(H)
        cond = np.linalg.cond(A)
        for _ in range(20):
            x = rng.standard_normal(256)
            err = np.linalg.norm(A @ inv.apply(x) - x) / np.linalg.norm(x)
            assert err <= 1e3 * 1e-12 * cond


class TestStorage:
    def test_identity_counts_leaf_blocks_only(self):
        tree = build_uniform_tree(64, 8)
        H = compress_to_hodlr(np.eye(64), tree, 1e-10)
        rep = storage_report(H)
        assert rep["stored_scalars"] == 8 * 64
        assert rep["max_rank"] == 0

    def test_nlogn_growth_at_fixed_rank(self):
        def synthetic(N, k, leaf):
            rng = np.random.default_rng(RNG_SEED)
            tree = build_uniform_tree(N, leaf)
            offdiag = {}
            for a, b in [(2 * t, 2 * t + 1) for t in range(1, 2**tree.depth)]:
                m, n = tree.size(a), tree.size(b)
                offdiag[(a, b)] = LowRankFactor(
                    rng.standard_normal((m, k)), rng.standard_normal((n, k))
                )
                offdiag[(b, a)] = LowRankFactor(
                    rng.standard_normal((n, k)), rng.standard_normal((m, k))
                )
            from fds.hodlr import HodlrMatrix

            leaf_diag = {t: np.eye(tree.size(t)) for t in tree.leaves()}
            return HodlrMatrix(tree=tree, offdiag=offdiag, leaf_diag=leaf_diag, tol=0.0)

        s1 = storage_report(synthetic(1024, 4, 32))["stored_scalars"]
        s2 = storage_report(synthetic(2048, 4, 32))["stored_scalars"]
        assert 2.0 <= s2 / s1 <= 2.5

    def test_held_memory_matches_storage_count(self):
        # the factors own their memory: no block keeps its whole SVD alive
        A, _ = ie_matrix(1024)
        H = compress_to_hodlr(A, build_uniform_tree(1024, 64), 1e-10)
        owners = {}
        arrays = [M for f in H.offdiag.values() for M in (f.U, f.V)]
        for M in arrays + list(H.leaf_diag.values()):
            while M.base is not None:
                M = M.base
            owners[id(M)] = M.nbytes
        held = sum(owners.values())
        assert held <= 2 * storage_report(H)["stored_scalars"] * A.itemsize

    def test_max_rank_is_max_over_factors(self):
        A, _ = ie_matrix(128)
        tree = build_uniform_tree(128, 16)
        H = compress_to_hodlr(A, tree, 1e-12)
        assert storage_report(H)["max_rank"] == max(f.rank for f in H.offdiag.values())
