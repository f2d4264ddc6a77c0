"""HODLR compression, matvec, and the multiplicative inverse B_0 ... B_L,
checked as the recursive Woodbury formula it unrolls: per node against
dense inverses of the diagonal blocks, and per apply against dense solves."""

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings, strategies

from fds import linalg
from fds.bie2d import assemble_bie, make_curve
from fds.bvp1d import Bvp1dProblem, assemble_nystrom
from fds._stacks import Telescope
from fds.hodlr import (
    HodlrMatrix,
    compress_to_hodlr,
    hodlr_matvec,
    invert_multiplicative,
    storage_report,
)
from fds.linalg import LowRankFactor, SingularMatrixError, dense_lu_solve
from fds.solve import factor
from fds.tree import build_uniform_tree

from oracles import recompress_inverse

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

    @pytest.mark.parametrize("where", [(5, 7), (5, 200)])
    def test_nonfinite_entry_refused_by_name(self, where):
        # (5, 7) lies in a leaf diagonal block, which no block compression
        # reads; it used to fail later, in the inverse, with scipy's message
        A, _ = ie_matrix(256)
        A[where] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            compress_to_hodlr(A, build_uniform_tree(256, 32), 1e-10)


def bie_matrix(kind, N, *params):
    return assemble_bie(make_curve(kind, N, *params), np.zeros(N)).matrix


class TestCrossApproximation:
    """Sibling blocks go through certified cross approximation and land at
    the ranks of the sampled path (SVD up to 512 wide, range finder above)."""

    MATRICES = {
        "bvp1d-1024": (lambda: ie_matrix(1024)[0], 1e-10),
        "bvp1d-2048": (lambda: ie_matrix(2048)[0], 1e-10),
        "bvp1d-4096": (lambda: ie_matrix(4096)[0], 1e-10),
        "starfish-1024": (lambda: bie_matrix("starfish", 1024, 0.3, 5), 1e-10),
        "starfish-2048": (lambda: bie_matrix("starfish", 2048, 0.3, 5), 1e-10),
        "ellipse-1024": (lambda: bie_matrix("ellipse", 1024, 2.0, 1.0), 1e-10),
        "ellipse-2048": (lambda: bie_matrix("ellipse", 2048, 2.0, 1.0), 1e-10),
        "kernel-1e-6": (lambda: kernel_matrix(1024) + 8 * np.eye(1024), 1e-6),
        "kernel-1e-12": (lambda: kernel_matrix(1024) + 8 * np.eye(1024), 1e-12),
    }

    @pytest.mark.parametrize("name", sorted(MATRICES))
    def test_ranks_equal_sampled_path_ranks(self, name, sampled_path):
        make, tol = self.MATRICES[name]
        A = make()
        tree = build_uniform_tree(A.shape[0], 64)
        H = compress_to_hodlr(A, tree, tol)
        assert sampled_path == []
        r = tree.ranges
        for (a, b), f in H.offdiag.items():
            block = A[slice(*r[a]), slice(*r[b])]
            assert f.rank == linalg._sampled_approx(block, tol).rank, (a, b)

    def test_unequal_leaves(self, sampled_path):
        # N = 777, leaf 64: sibling blocks of 97 and 98 rows and columns
        A, _ = ie_matrix(777)
        tree = build_uniform_tree(777, 64)
        H = compress_to_hodlr(A, tree, 1e-12)
        assert sampled_path == [] and H.max_rank() == 1
        assert len({f.shape for f in H.offdiag.values()}) > tree.depth
        assert np.linalg.norm(H.todense() - A) <= 1e-11 * np.linalg.norm(A)


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
    """The multiplicative inverse against what the Woodbury recursion gives."""

    def test_scaled_identity(self):
        tree = build_uniform_tree(32, 8)
        H = compress_to_hodlr(2.0 * np.eye(32), tree, 1e-12)
        inv = invert_multiplicative(H)
        x = np.arange(32.0)
        assert np.allclose(inv.apply(x), x / 2.0)

    def test_ie_matrix_vs_dense_solve(self):
        A, rhs = ie_matrix(512)
        tree = build_uniform_tree(512, 32)
        H = compress_to_hodlr(A, tree, 1e-12)
        inv = invert_multiplicative(H)
        x = inv.apply(rhs)
        x_ref = dense_lu_solve(A, rhs)
        assert np.linalg.norm(x - x_ref) <= 1e-8 * np.linalg.norm(x_ref)

    @pytest.mark.parametrize("case", ["complex", "depth_zero", "mixed_ranks", "two_sizes"])
    def test_node_products_are_block_inverses(self, case):
        # B_ell ... B_L restricted to I_tau is A_tau^{-1}, the recursion's value
        H = TestBatchedApply.CASES[case]()
        assert max_node_inverse_error(H, invert_multiplicative(H)) <= 1e-12

    def test_recompressed_inverse_is_hodlr(self):
        A, rhs = ie_matrix(256)
        tree = build_uniform_tree(256, 32)
        H = compress_to_hodlr(A, tree, 1e-12)
        inv = invert_multiplicative(H)
        Hinv = recompress_inverse(inv, 1e-10)
        x_ref = dense_lu_solve(A, rhs)
        err = np.linalg.norm(hodlr_matvec(Hinv, rhs) - x_ref)
        assert err <= 1e-8 * np.linalg.norm(x_ref)
        # the recompressed inverse has modest but nonzero off-diagonal rank
        assert 1 <= Hinv.max_rank() <= 16

    def test_recompressed_complex_inverse_keeps_imaginary_part(self):
        N = 256
        A = complex_kernel_matrix(N)
        H = compress_to_hodlr(A, build_uniform_tree(N, 32), 1e-12)
        Hinv = recompress_inverse(invert_multiplicative(H), 1e-10)
        rng = np.random.default_rng(RNG_SEED)
        x = rng.standard_normal(N) + 1j * rng.standard_normal(N)
        y = hodlr_matvec(Hinv, x)
        y_ref = np.linalg.solve(A, x)
        assert np.iscomplexobj(y)
        assert np.linalg.norm(y - y_ref) <= 1e-8 * np.linalg.norm(y_ref)

    @pytest.mark.filterwarnings("ignore::scipy.linalg.LinAlgWarning")
    def test_singular_leaf_names_node(self):
        tree = build_uniform_tree(32, 8)
        A = kernel_matrix(32) + 10 * np.eye(32)
        H = compress_to_hodlr(A, tree, 1e-12)
        first_leaf = next(iter(tree.leaves()))
        H.leaf_diag[first_leaf] = np.zeros((tree.size(first_leaf),) * 2)
        with pytest.raises(SingularMatrixError,
                           match=f"leaf diagonal block {first_leaf} is singular"):
            invert_multiplicative(H)


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

    def test_complex_right_factors_kept(self):
        # real leaves and left factors, complex right factors: a working
        # dtype taken from the left factors drops V's imaginary parts
        rng = np.random.default_rng(RNG_SEED)
        tree = build_uniform_tree(64, 16)
        offdiag = {(a, a ^ 1): LowRankFactor(rng.standard_normal((tree.size(a), 2)) / 8,
                                             rng.standard_normal((tree.size(a ^ 1), 2))
                                             + 1j * rng.standard_normal((tree.size(a ^ 1), 2)))
                   for a in range(2, 2 ** (tree.depth + 1))}
        leaf_diag = {t: rng.standard_normal((16, 16)) + 16 * np.eye(16) for t in tree.leaves()}
        H = HodlrMatrix(tree=tree, offdiag=offdiag, leaf_diag=leaf_diag, tol=0.0)
        x = rng.standard_normal(64)
        y, y_ref = invert_multiplicative(H).apply(x), np.linalg.solve(H.todense(), x)
        assert H.dtype == np.complex128 and y.dtype == np.complex128
        assert np.linalg.norm(y - y_ref) <= 1e-12 * np.linalg.norm(y_ref)

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


def max_node_inverse_error(H, inv):
    """Largest relative gap, over all nodes tau of level ell, between
    B_ell ... B_L restricted to I_tau and the dense inverse of H's
    diagonal block at tau. The restriction is built as the Woodbury
    recursion: A_tau^{-1} = (I + U V*) blockdiag(A_alpha^{-1}, A_beta^{-1})."""
    t, dense = H.tree, H.todense()
    node_inv = dict(inv.leaf_inverses)
    for ell in range(t.depth - 1, -1, -1):
        for tau, f in inv.level_blocks[ell].items():
            D = scipy.linalg.block_diag(node_inv[2 * tau], node_inv[2 * tau + 1])
            node_inv[tau] = D + f.U @ (f.V.conj().T @ D)
    worst = 0.0
    for tau, got in node_inv.items():
        lo, hi = t.ranges[tau]
        ref = np.linalg.inv(dense[lo:hi, lo:hi])
        worst = max(worst, np.linalg.norm(got - ref) / np.linalg.norm(ref))
    return worst


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
        # N = 777, leaf 64: blocks of 97 and 98 rows, padded to 98
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

    @pytest.mark.parametrize("nrhs", [1, 2])
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_batched_products_are_per_block_products(self, case, nrhs):
        # each factor's batched matmul is its padded blocks' products, to the bit
        inv = invert_multiplicative(self.CASES[case]())
        x = np.random.default_rng(RNG_SEED).standard_normal((inv.tree.N, nrhs))
        v = inv.layout.pad(x)
        y = np.zeros(v.shape, np.result_type(x, inv.L, *inv.U))
        for j in range(len(v)):
            y[j] = inv.L[j] @ v[j]
        for U, V in zip(inv.U[::-1], inv.V[::-1]):
            yb = y.reshape(U.shape[:2] + (nrhs,))
            for j in range(len(U)):
                yb[j] += U[j] @ (V[j].conj().T @ yb[j])
        assert np.array_equal(inv.apply(x), inv.layout.unpad(y))

    def test_stack_layout(self):
        # one zero-padded stack per factor, on the rows of the HBS telescope
        two = invert_multiplicative(self.CASES["two_sizes"]())
        hbs_rows = Telescope.zeros(two.tree, lambda tau: 0, float).layout
        assert two.layout.leaf.shape == (8, 98) and two.layout.leaf.sum() == 777
        assert np.array_equal(two.layout.leaf, hbs_rows.leaf) and two.layout.m == hbs_rows.m
        mixed = invert_multiplicative(self.CASES["mixed_ranks"]())
        assert any(len({mixed.rank[tau] for tau in mixed.tree.nodes_at_level(ell)}) > 1
                   for ell in range(mixed.tree.depth))  # unequal ranks, padded in one stack
        for case in sorted(self.CASES):
            H = self.CASES[case]()
            inv, t = invert_multiplicative(H), H.tree
            m = inv.layout.m
            real = np.ones((2**t.depth, m), bool) if inv.layout.leaf is None else inv.layout.leaf
            assert inv.L.shape == (2**t.depth, m, m) and len(inv.U) == len(inv.V) == t.depth
            for Lj, tau in zip(inv.L, t.leaves()):
                n = t.size(tau)
                ref = scipy.linalg.lu_solve(scipy.linalg.lu_factor(H.leaf_diag[tau]), np.eye(n))
                assert Lj.flags.f_contiguous and np.array_equal(Lj[:n, :n], ref)
                assert not Lj[n:].any() and not Lj[:, n:].any()
            for ell, blocks in inv.level_blocks.items():
                k = max(inv.rank[tau] for tau in blocks)
                assert inv.U[ell].shape == inv.V[ell].shape == (2**ell, m << (t.depth - ell), k)
                for j, (tau, f) in enumerate(blocks.items()):
                    a, b = t.children(tau)
                    Vab, Vba = H.offdiag[(a, b)].V, H.offdiag[(b, a)].V
                    assert inv.rank[tau] == f.rank == Vab.shape[1] + Vba.shape[1]
                    ref = np.zeros((t.size(tau), f.rank), H.dtype)
                    ref[t.size(a):, :Vab.shape[1]] = Vab
                    ref[:t.size(a), Vab.shape[1]:] = Vba
                    assert np.array_equal(f.V, ref)
                    rows = real.reshape(2**ell, -1)[j]
                    for M, M_node in ((inv.U[ell][j], f.U), (inv.V[ell][j], f.V)):
                        assert np.array_equal(M[rows, :f.rank], M_node)
                        assert not M[~rows].any() and not M[:, f.rank:].any()

    def test_views_share_the_stacks(self):
        inv = invert_multiplicative(self.CASES["two_sizes"]())
        for Lj, tau in zip(inv.L, inv.tree.leaves()):
            assert np.shares_memory(inv.leaf_inverses[tau], Lj)
            assert inv.leaf_inverses[tau].shape == (inv.tree.size(tau),) * 2
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
    def test_twenty_random_vectors(self):
        rng = np.random.default_rng(RNG_SEED)
        A, _ = ie_matrix(256)
        tree = build_uniform_tree(256, 32)
        H = compress_to_hodlr(A, tree, 1e-12)
        inv = invert_multiplicative(H)
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

    def test_range_finder_factors_hold_exactly_their_count(self):
        # top blocks are 1024 wide: certified cross approximations, whose
        # factors must not be views of the cross buffers (or, on the range
        # finder path, of the sample-sized Vh)
        A, _ = ie_matrix(2048)
        H = compress_to_hodlr(A, build_uniform_tree(2048, 64), 1e-10)
        assert max(f.U.shape[0] for f in H.offdiag.values()) > 512
        owners = {}
        arrays = [M for f in H.offdiag.values() for M in (f.U, f.V)]
        for M in arrays + list(H.leaf_diag.values()):
            while M.base is not None:
                M = M.base
            owners[id(M)] = M.nbytes
        assert sum(owners.values()) == storage_report(H)["stored_scalars"] * A.itemsize

    def test_max_rank_is_max_over_factors(self):
        A, _ = ie_matrix(128)
        tree = build_uniform_tree(128, 16)
        H = compress_to_hodlr(A, tree, 1e-12)
        assert storage_report(H)["max_rank"] == max(f.rank for f in H.offdiag.values())


@settings(max_examples=25, derandomize=True, deadline=None, database=None)
@given(N=strategies.integers(3, 300), leaf=strategies.integers(2, 64),
       log_tol=strategies.integers(-12, -4), is_complex=strategies.booleans(),
       cut=strategies.booleans(), seed=strategies.integers(0, 2**32 - 1))
# a depth-0 tree (N < 2 leaf), and an odd N with a rank-0 root block
@example(N=100, leaf=64, log_tol=-12, is_complex=False, cut=False, seed=1)
@example(N=299, leaf=16, log_tol=-4, is_complex=True, cut=True, seed=2)
def test_factor_hodlr_property(N, leaf, log_tol, is_complex, cut, seed):
    """factor(A, "hodlr") on real and complex matrices, any N and leaf,
    tol 1e-12 .. 1e-4; ``cut`` zeroes one root coupling block."""
    tol = 10.0 ** log_tol
    rng = np.random.default_rng(seed)
    x = np.sort(rng.uniform(0.0, 1.0, N))
    A = 1.0 / (1.0 + 10.0 * np.abs(x[:, None] - x[None, :])) + 4.0 * np.eye(N)
    if is_complex:
        A = A * np.exp(3j * (x[:, None] - x[None, :]))
    tree = build_uniform_tree(N, leaf)
    if cut and tree.depth:
        A[slice(*tree.ranges[2]), slice(*tree.ranges[3])] = 0.0
    b = rng.standard_normal(N)

    H = compress_to_hodlr(A, tree, tol)
    ranks = {k: f.rank for k, f in H.offdiag.items()}
    inv = invert_multiplicative(H)
    assert {k: f.rank for k, f in H.offdiag.items()} == ranks
    if cut and tree.depth:
        assert ranks[(2, 3)] == 0
    for blocks in inv.level_blocks.values():
        for tau, f in blocks.items():
            assert f.rank == ranks[(2 * tau, 2 * tau + 1)] + ranks[(2 * tau + 1, 2 * tau)]

    y = factor(A, "hodlr", tree, tol).apply(b)
    assert np.array_equal(y, inv.apply(b)) and np.iscomplexobj(y) == is_complex
    # every block is cut at tol times its norm: ||A - H|| <= (depth + 1) tol ||A||
    y_ref = np.linalg.solve(A, b)
    bound = 2 * (tree.depth + 1) * tol * np.linalg.cond(A)
    assert np.linalg.norm(y - y_ref) <= bound * np.linalg.norm(y_ref)

    assert max_node_inverse_error(H, inv) <= 1e-12
    assert storage_report(inv)["stored_scalars"] == (
        sum(M.size for M in inv.leaf_inverses.values())
        + sum(f.storage() for blocks in inv.level_blocks.values() for f in blocks.values()))
