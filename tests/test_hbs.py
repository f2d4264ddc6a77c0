"""Block-separable / HBS formats: the Woodbury variation, skeletonization,
and the level-by-level inversion pipeline."""

import logging

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings, strategies

from fds.bie2d import assemble_bie, laplace_fundamental, make_curve
from fds.bvp1d import green_1d
from fds.hbs import Telescope, _qr_r, compress_to_hbs, hbs_invert, hbs_matvec, hbs_storage
from fds.linalg import SingularMatrixError
from fds.solve import factor
from fds.special import hankel0_first_kind
from fds.tree import build_uniform_tree, sibling_pairs

from oracles import block_separable_inverse_apply, compress_to_block_separable, woodbury_variant

RNG_SEED = 90210


def green_kernel_matrix(N):
    """Trapezoid discretization of the 1D zero-boundary Green's function."""
    h = 1.0 / (N + 1)
    x = h * np.arange(1, N + 1)
    return h * green_1d(x[:, None], x[None, :], 0.0, 1.0)


def ellipse_bie_matrix(N):
    curve = make_curve("ellipse", N, 2.0, 1.0)
    return assemble_bie(curve, np.zeros(N)).matrix


def starfish_bie_matrix(N):
    """The starfish double-layer matrix; an odd N keeps the leading block
    of the next even size."""
    M = N + N % 2
    return assemble_bie(make_curve("starfish", M, 0.3, 5), np.zeros(M)).matrix[:N, :N]


def helmholtz_starfish_matrix(N):
    """0.25i H0(10 |x_i - x_j|) / N on N starfish nodes, diagonal 1 + 0.5i."""
    x = make_curve("starfish", N + N % 2, 0.3, 5).x[:N]
    d = np.linalg.norm(x[:, None, :] - x[None, :, :], axis=-1)
    np.fill_diagonal(d, 1.0)
    A = 0.25j * hankel0_first_kind(10.0 * d) / N
    np.fill_diagonal(A, 1.0 + 0.5j)
    return A


class TestWoodburyVariant:
    def test_empty_low_rank_part(self):
        rng = np.random.default_rng(RNG_SEED)
        D = 5.0 * np.eye(6) + rng.standard_normal((6, 6))
        Dhat, E, F, G = woodbury_variant(D, np.zeros((6, 0)), np.zeros((6, 0)))
        assert Dhat.shape == (0, 0) and E.shape == (6, 0)
        assert np.allclose(G, np.linalg.inv(D), atol=1e-12)

    def test_inverse_identity_random(self):
        rng = np.random.default_rng(RNG_SEED)
        N, K = 8, 2
        D = 4.0 * np.eye(N) + rng.standard_normal((N, N))
        U = rng.standard_normal((N, K))
        V = rng.standard_normal((N, K))
        At = rng.standard_normal((K, K))
        A = U @ At @ V.conj().T + D
        Dhat, E, F, G = woodbury_variant(D, U, V, At)
        Ainv = E @ np.linalg.solve(At + Dhat, F.conj().T) + G
        assert np.max(np.abs(Ainv @ A - np.eye(N))) < 1e-12

    def test_projector_rank(self):
        # D = I, U = V orthonormal, Atilde = 0: G = I - U U*, rank N - K
        rng = np.random.default_rng(RNG_SEED)
        N, K = 10, 3
        U, _ = np.linalg.qr(rng.standard_normal((N, K)))
        Dhat, E, F, G = woodbury_variant(np.eye(N), U, U)
        assert np.allclose(Dhat, np.eye(K), atol=1e-13)
        assert np.allclose(G, np.eye(N) - U @ U.T, atol=1e-13)
        eigs = np.linalg.eigvalsh(G)
        assert int(np.sum(eigs > 0.5)) == N - K and int(np.sum(eigs < 0.5)) == K

    @pytest.mark.filterwarnings("ignore::scipy.linalg.LinAlgWarning")

    def test_singular_d_identified(self):
        with pytest.raises(SingularMatrixError, match="D is singular"):
            woodbury_variant(np.zeros((4, 4)), np.zeros((4, 1)), np.zeros((4, 1)))

    @pytest.mark.filterwarnings("ignore::scipy.linalg.LinAlgWarning")
    def test_singular_core_identified(self):
        # V* D^-1 U = 0 when U, V have disjoint supports
        D = np.eye(4)
        U = np.array([[1.0], [0.0], [0.0], [0.0]])
        V = np.array([[0.0], [0.0], [0.0], [1.0]])
        with pytest.raises(SingularMatrixError, match="V"):
            woodbury_variant(D, U, V)

    def test_subnormal_core_identified(self):
        # LAPACK's inverse turns the 1e-310 core into Dhat = [[inf]]
        U = np.array([[1.0], [0.0]])
        V = np.array([[1e-310], [0.0]])
        with pytest.raises(SingularMatrixError, match=r"V\* D\^-1 U is singular"):
            woodbury_variant(np.eye(2), U, V)

    def test_micro_instances(self):
        # the Lemma identity holds across 200 random small instances
        rng = np.random.default_rng(RNG_SEED)
        for _ in range(200):
            N = int(rng.integers(2, 13))
            K = int(rng.integers(1, min(5, N + 1)))
            D = (N + 2) * np.eye(N) + rng.standard_normal((N, N))
            U = rng.standard_normal((N, K))
            V = rng.standard_normal((N, K))
            At = rng.standard_normal((K, K))
            A = U @ At @ V.conj().T + D
            Dhat, E, F, G = woodbury_variant(D, U, V, At)
            Ainv = E @ np.linalg.solve(At + Dhat, F.conj().T) + G
            assert np.max(np.abs(A @ Ainv - np.eye(N))) < 1e-12


class TestCompress:
    def test_identity(self):
        tree = build_uniform_tree(64, 8)
        H = compress_to_hbs(np.eye(64), tree, 1e-10)
        assert all(len(s) == 0 for s in H.skeleton.values())
        for tau in tree.leaves():
            assert np.allclose(H.stacks.get(tau)[2], np.eye(tree.size(tau)))

    def test_green_kernel_tiny_ranks(self):
        A = green_kernel_matrix(512)
        tree = build_uniform_tree(512, 32)
        H = compress_to_hbs(A, tree, 1e-12)
        assert max(H.per_level_ranks().values()) <= 2
        assert np.linalg.norm(H.todense() - A) <= 1e-11 * np.linalg.norm(A)

    def test_bie_matrix_reconstruction(self):
        A = ellipse_bie_matrix(1024)
        tree = build_uniform_tree(1024, 64)
        H = compress_to_hbs(A, tree, 1e-10)
        assert np.linalg.norm(H.todense() - A) <= 1e-9 * np.linalg.norm(A)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_nonfinite_far_field_entry_raises(self, bad):
        # the far field reaches the IDs only through its QR factors
        A = ellipse_bie_matrix(256)
        A[5, 200] = bad
        with pytest.raises(ValueError, match="non-finite"):
            compress_to_hbs(A, build_uniform_tree(256, 32), 1e-10)

    def test_matrix_not_matching_tree_raises(self):
        with pytest.raises(ValueError, match=r"shape \(10, 10\) does not match tree over 12"):
            compress_to_hbs(np.eye(10), build_uniform_tree(12, 4), 1e-10)

    def test_nonfinite_leaf_block_entry_raises_at_compression(self):
        # no far field reads A[5, 7]; it used to fail later, inside the
        # inverse, with scipy's unnamed message
        A = ellipse_bie_matrix(256)
        A[5, 7] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            compress_to_hbs(A, build_uniform_tree(256, 32), 1e-10)

    def test_submatrix_property(self):
        # sibling interactions are literal submatrices, bit for bit: a
        # parent's own block is [0, Atilde_ab; Atilde_ba, 0]
        A = ellipse_bie_matrix(256)
        tree = build_uniform_tree(256, 32)
        H = compress_to_hbs(A, tree, 1e-10)
        for a, b in sibling_pairs(tree):
            B, ka = H.stacks.get(a // 2)[2], H.rank(a)
            assert np.array_equal(B[:ka, ka:], A[np.ix_(H.skeleton[a], H.skeleton[b])])
            assert np.array_equal(B[ka:, :ka], A[np.ix_(H.skeleton[b], H.skeleton[a])])
            assert not B[:ka, :ka].any() and not B[ka:, ka:].any()

    def test_nested_basis_spans_block_row(self):
        A = green_kernel_matrix(256)
        tree = build_uniform_tree(256, 32)
        tol = 1e-10
        H = compress_to_hbs(A, tree, tol)
        # densified long bases reproduce each block row at tol
        long_u = {}
        for ell in range(tree.depth, 0, -1):
            for tau in tree.nodes_at_level(ell):
                U = H.stacks.get(tau)[1]
                if tree.is_leaf(tau):
                    long_u[tau] = U
                else:
                    a, b = tree.children(tau)
                    long_u[tau] = scipy.linalg.block_diag(long_u[a], long_u[b]) @ U
        allidx = np.arange(256)
        for tau in list(tree.nodes_at_level(1)) + list(tree.nodes_at_level(2)):
            own = tree.index_range(tau)
            comp = np.setdiff1d(allidx, own)
            block = A[np.ix_(own, comp)]
            proj = long_u[tau] @ A[np.ix_(H.skeleton[tau], comp)]
            assert np.linalg.norm(block - proj) <= 100 * tol * np.linalg.norm(A)

    @pytest.mark.parametrize("shape", [(300, 40), (40, 40), (20, 50)])
    @pytest.mark.parametrize("is_complex", [False, True])
    def test_geqrt_r_matches_numpy_qr(self, shape, is_complex):
        # tall, square and wide (M < n); equal up to a unimodular scaling
        # of each row of R (empty blocks never reach it: _union_skeleton
        # returns early)
        rng = np.random.default_rng(RNG_SEED)
        B = rng.standard_normal(shape)
        if is_complex:
            B = B + 1j * rng.standard_normal(shape)
        R_ref = np.linalg.qr(B, mode="r")
        R = _qr_r(np.asfortranarray(B))
        assert R.shape == R_ref.shape and R.dtype == B.dtype
        d = np.diag(R_ref) / np.diag(R)
        assert np.allclose(np.abs(d), 1.0, rtol=0, atol=1e-13)
        assert np.linalg.norm(d[:, None] * R - R_ref) <= 1e-13 * np.linalg.norm(R_ref)

    @pytest.mark.parametrize("case", ["starfish1024", "ellipse128", "helmholtz777"])
    def test_every_node_id_error_within_tol(self, case):
        # each node's row and column ID against its whole far field, with
        # the rows it skeletonizes: its own at a leaf, its children's
        # skeletons at a parent
        A = {"starfish1024": lambda: starfish_bie_matrix(1024),
             "ellipse128": lambda: ellipse_bie_matrix(128),
             "helmholtz777": lambda: helmholtz_starfish_matrix(777)}[case]()
        tol = 1e-10
        t = build_uniform_tree(len(A), 64)
        H = compress_to_hbs(A, t, tol)
        for tau in range(2, t.nnodes + 1):
            s0, s1 = t.ranges[tau]
            comp = np.r_[0:s0, s1:t.N]
            rows = (np.arange(s0, s1) if t.is_leaf(tau)
                    else np.concatenate([H.skeleton[c] for c in t.children(tau)]))
            Brow, Bcol = A[np.ix_(rows, comp)], A[np.ix_(comp, rows)]
            sk, (V, U, _) = H.skeleton[tau], H.stacks.get(tau)
            row_err = np.linalg.norm(Brow - U @ A[np.ix_(sk, comp)], 2)
            col_err = np.linalg.norm(Bcol - A[np.ix_(comp, sk)] @ V.conj().T, 2)
            assert row_err <= 10 * tol * np.linalg.norm(Brow, 2), tau
            assert col_err <= 10 * tol * np.linalg.norm(Bcol, 2), tau

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_input_left_unchanged(self, order):
        A = np.asarray(starfish_bie_matrix(512), order=order)
        before = A.tobytes(order="A")
        compress_to_hbs(A, build_uniform_tree(512, 64), 1e-10)
        assert A.tobytes(order="A") == before and A.flags[f"{order}_CONTIGUOUS"]

    def test_integer_matrix_same_as_its_float_copy(self):
        # min(i, j) + N I: rank-1 sibling blocks, exact in int64 and float64
        N = 128
        i = np.arange(N)
        A = np.minimum.outer(i, i) + N * np.eye(N, dtype=np.int64)
        tree, b = build_uniform_tree(N, 16), np.arange(N) % 7 - 3.0
        fac_int, fac_float = factor(A, "hbs", tree), factor(A.astype(float), "hbs", tree)
        assert fac_int.stored_scalars == fac_float.stored_scalars
        x = fac_int.apply(b)
        assert x.tobytes() == fac_float.apply(b).tobytes()
        assert np.linalg.norm(A @ x - b) <= 1e-12 * np.linalg.norm(b)


class TestMatvec:
    def test_identity(self):
        tree = build_uniform_tree(64, 8)
        H = compress_to_hbs(np.eye(64), tree, 1e-10)
        x = np.arange(64.0)
        assert np.allclose(hbs_matvec(H, x), x)

    def test_vs_dense(self):
        rng = np.random.default_rng(RNG_SEED)
        A = green_kernel_matrix(512) + np.eye(512)
        tree = build_uniform_tree(512, 32)
        H = compress_to_hbs(A, tree, 1e-12)
        x = rng.standard_normal(512)
        assert np.linalg.norm(hbs_matvec(H, x) - A @ x) <= 1e-9 * np.linalg.norm(A @ x)

    def test_linearity(self):
        rng = np.random.default_rng(RNG_SEED)
        A = green_kernel_matrix(128) + np.eye(128)
        tree = build_uniform_tree(128, 16)
        H = compress_to_hbs(A, tree, 1e-12)
        x, y = rng.standard_normal((2, 128))
        lhs = hbs_matvec(H, x + y)
        rhs = hbs_matvec(H, x) + hbs_matvec(H, y)
        assert np.max(np.abs(lhs - rhs)) <= 1e-13 * np.max(np.abs(lhs))


class TestInvert:
    def test_scaled_identity(self):
        tree = build_uniform_tree(48, 8)
        H = compress_to_hbs(3.0 * np.eye(48), tree, 1e-12)
        inv = hbs_invert(H)
        x = np.arange(48.0)
        assert np.allclose(inv.apply(x), x / 3.0)

    def test_depth_one_reduces_to_flat_pipeline(self):
        rng = np.random.default_rng(RNG_SEED)
        A = green_kernel_matrix(64) + np.eye(64)
        tree = build_uniform_tree(64, 32)  # depth 1: two leaves
        H = compress_to_hbs(A, tree, 1e-12)
        inv = hbs_invert(H)
        flat = compress_to_block_separable(
            A, [np.arange(0, 32), np.arange(32, 64)], 1e-12
        )
        u = rng.standard_normal(64)
        q_h = inv.apply(u)
        q_f = block_separable_inverse_apply(flat, u)
        assert np.linalg.norm(q_h - q_f) <= 1e-12 * np.linalg.norm(q_f)

    def test_flat_vs_two_level_agreement(self):
        # same matrix, 4-leaf tree vs flat 4-block partition
        rng = np.random.default_rng(RNG_SEED)
        A = green_kernel_matrix(128) + np.eye(128)
        tree = build_uniform_tree(128, 32)  # depth 2
        H = compress_to_hbs(A, tree, 1e-13)
        inv = hbs_invert(H)
        parts = [np.arange(i, i + 32) for i in range(0, 128, 32)]
        flat = compress_to_block_separable(A, parts, 1e-13)
        u = rng.standard_normal(128)
        assert np.linalg.norm(inv.apply(u) - block_separable_inverse_apply(flat, u)) <= (
            1e-11 * np.linalg.norm(u)
        )

    def test_bie_system_vs_dense_solve(self):
        N = 1024
        curve = make_curve("ellipse", N, 2.0, 1.0)
        charge = np.array([3.0, 1.5])
        f = laplace_fundamental(np.linalg.norm(curve.x - charge, axis=1))
        system = assemble_bie(curve, f)
        tree = build_uniform_tree(N, 64)
        H = compress_to_hbs(system.matrix, tree, 1e-10)
        inv = hbs_invert(H)
        sigma = inv.apply(system.rhs)
        sigma_ref = scipy.linalg.solve(system.matrix, system.rhs)
        assert np.linalg.norm(sigma - sigma_ref) <= 1e-8 * np.linalg.norm(sigma_ref)

    def test_condition_estimates_recorded(self):
        A = green_kernel_matrix(128) + np.eye(128)
        tree = build_uniform_tree(128, 32)
        inv = hbs_invert(compress_to_hbs(A, tree, 1e-12))
        nodes = [tau for tau in range(1, tree.nnodes + 1)]
        assert sorted(inv.cond_estimates) == nodes
        assert all(np.isfinite(c) and c >= 1.0 for c in inv.cond_estimates.values())

    def test_condition_estimates_match_dense_cond(self):
        # each Dtilde block rebuilt bottom-up, its condition number taken
        # by numpy's explicit inverse
        N = 512
        A = assemble_bie(make_curve("starfish", N, 0.3, 5), np.zeros(N)).matrix
        tree = build_uniform_tree(N, 64)
        H = compress_to_hbs(A, tree, 1e-10)
        inv = hbs_invert(H)
        Dhat, ref = {}, {}
        for ell in range(tree.depth, -1, -1):
            for tau in tree.nodes_at_level(ell):
                Dt = dtilde(H, tau, Dhat)
                ref[tau] = np.linalg.cond(Dt, 1)
                if tau > 1:
                    V, U, _ = H.stacks.get(tau)
                    Dhat[tau] = woodbury_variant(Dt, U, V)[0]
        assert sorted(inv.cond_estimates) == sorted(ref)
        for tau, c in ref.items():
            assert c / 3 <= inv.cond_estimates[tau] <= 3 * c

    def test_ill_conditioned_block_logged(self, caplog):
        A = green_kernel_matrix(128) + np.eye(128)
        tree = build_uniform_tree(128, 32)
        H = compress_to_hbs(A, tree, 1e-12)
        leaf = next(iter(tree.leaves()))
        V, U, _ = H.stacks.get(leaf)
        H.stacks.put(leaf, V, U, np.diag(np.logspace(0, -15, tree.size(leaf))))
        with caplog.at_level(logging.WARNING, logger="fds.hbs"):
            inv = hbs_invert(H)
        assert inv.cond_estimates[leaf] > 1e13
        assert [r.getMessage() for r in caplog.records if r.name == "fds.hbs"] == [
            f"Dtilde at node {leaf} (level {tree.depth}) has condition estimate "
            f"{inv.cond_estimates[leaf]:.2e}"
        ]

    def test_ill_conditioned_root_logged(self, caplog):
        # the root block is checked like every other node's Dtilde
        tree = build_uniform_tree(40, 32)  # depth 0: the root is the one leaf
        H = compress_to_hbs(np.diag(np.logspace(0, -15, 40)), tree, 1e-10)
        with caplog.at_level(logging.WARNING, logger="fds.hbs"):
            hbs_invert(H)
        assert [r.getMessage() for r in caplog.records if r.name == "fds.hbs"] == [
            "Dtilde at node 1 (level 0) has condition estimate 1.00e+15"
        ]

    @pytest.mark.filterwarnings("ignore::scipy.linalg.LinAlgWarning")
    def test_singular_intermediate_names_node_and_level(self):
        A = green_kernel_matrix(64) + np.eye(64)
        tree = build_uniform_tree(64, 8)
        H = compress_to_hbs(A, tree, 1e-12)
        leaf = next(iter(tree.leaves()))
        V, U, D = H.stacks.get(leaf)
        H.stacks.put(leaf, V, U, np.zeros_like(D))
        with pytest.raises(SingularMatrixError, match=f"node {leaf}"):
            hbs_invert(H)

    @pytest.mark.filterwarnings("ignore::scipy.linalg.LinAlgWarning")
    def test_singular_root_block_names_level(self):
        # [[I, I], [I, I]] has regular leaves but a singular root block
        I2 = np.eye(2)
        H = compress_to_hbs(np.block([[I2, I2], [I2, I2]]), build_uniform_tree(4, 2), 1e-12)
        with pytest.raises(SingularMatrixError, match="level 0"):
            hbs_invert(H)


class TestLeastSquaresCutoff:
    def test_starfish_residual_n4096(self):
        # The interpolation bases are fitted on the QR factors with the
        # cutoff eps * max(M, k) of the tall far-field problem; numpy's
        # default for the small factors, eps * max(n, k), measured a
        # residual 3.9e-12 here against 4.2e-13.
        N = 4096
        A = assemble_bie(make_curve("starfish", N, 0.3, 5), np.zeros(N)).matrix
        H = compress_to_hbs(A, build_uniform_tree(N, 64), 1e-10)
        b = np.random.default_rng(1).standard_normal(N)
        x = hbs_invert(H).apply(b)
        assert np.linalg.norm(A @ x - b) <= 1.5e-12 * np.linalg.norm(b)


class TestComplexOddSize:
    def test_helmholtz_kernel_n777(self):
        # complex, N not a power of two, unequal leaves (97 and 98)
        N = 777
        A = helmholtz_starfish_matrix(N)
        H = compress_to_hbs(A, build_uniform_tree(N, 64), 1e-10)
        assert H.per_level_ranks() == {1: 46, 2: 42, 3: 32}
        assert np.linalg.norm(H.todense() - A) <= 1e-10 * np.linalg.norm(A)
        rng = np.random.default_rng(RNG_SEED)
        b = rng.standard_normal(N) + 1j * rng.standard_normal(N)
        x = hbs_invert(H).apply(b)
        assert np.linalg.norm(A @ x - b) <= 1e-11 * np.linalg.norm(b)


class TestDepthZero:
    """N below twice the leaf size: the tree is the root alone."""

    def test_round_trip(self):
        rng = np.random.default_rng(RNG_SEED)
        N = 50
        A = rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N)) + 10 * np.eye(N)
        tree = build_uniform_tree(N, 32)
        assert tree.depth == 0
        H = compress_to_hbs(A, tree, 1e-10)
        assert np.array_equal(H.todense(), A)
        assert hbs_storage(H) == {"stored_scalars": N * N, "per_level_ranks": {}}
        X = rng.standard_normal((N, 3))
        assert np.array_equal(hbs_matvec(H, X), A @ X)
        inv = hbs_invert(H)
        assert list(inv.cond_estimates) == [1]
        assert np.linalg.norm(A @ inv.apply(X) - X) <= 1e-13 * np.linalg.norm(X)

    @pytest.mark.filterwarnings("ignore::scipy.linalg.LinAlgWarning")
    def test_singular_root_raises(self):
        H = compress_to_hbs(np.ones((20, 20)), build_uniform_tree(20, 16), 1e-10)
        with pytest.raises(SingularMatrixError, match="level 0"):
            hbs_invert(H)


def sweep_case(name):
    """(H, X) where the shared sweep is thinnest: a complex depth-1 tree
    (N = 100, leaf 32) or the rank-0 identity tree (N = 64, leaf 8), with
    three right-hand sides in X."""
    rng = np.random.default_rng(RNG_SEED)
    if name == "depth1-complex":
        A, leaf = helmholtz_starfish_matrix(100), 32
        X = rng.standard_normal((100, 3)) + 1j * rng.standard_normal((100, 3))
    else:
        A, leaf = np.eye(64), 8
        X = rng.standard_normal((64, 3))
    return compress_to_hbs(A, build_uniform_tree(len(A), leaf), 1e-12), X


class TestApplyInverse:
    @pytest.mark.parametrize("case", ["depth1-complex", "rank0-identity"])
    def test_block_matches_columns(self, case):
        H, X = sweep_case(case)
        inv = hbs_invert(H)
        for apply in (lambda x: hbs_matvec(H, x), inv.apply):
            Y = apply(X)
            # a block goes through gemm and a column through gemv, whose
            # sums may round differently (bitwise on the rank-0 tree)
            assert np.linalg.norm(Y - np.column_stack([apply(x) for x in X.T])) <= (
                1e-12 * np.linalg.norm(Y))

    @pytest.mark.parametrize("case", ["depth1-complex", "rank0-identity"])
    def test_inverse_recovers_block(self, case):
        H, X = sweep_case(case)
        Y = hbs_invert(H).apply(hbs_matvec(H, X))
        assert Y.shape == X.shape
        assert np.linalg.norm(Y - X) <= 1e-12 * np.linalg.norm(X)

    @pytest.mark.parametrize("shape", [(512,), (512, 3)])
    def test_complex_on_real_stacks_is_re_plus_i_im(self, shape):
        # a real matrix is linear over the complex numbers
        H = compress_to_hbs(starfish_bie_matrix(512), build_uniform_tree(512, 64), 1e-10)
        rng = np.random.default_rng(RNG_SEED)
        x = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        for apply in (lambda x: hbs_matvec(H, x), hbs_invert(H).apply):
            y, ref = apply(x), apply(x.real) + 1j * apply(x.imag)
            assert y.shape == shape and y.dtype == np.complex128
            assert np.linalg.norm(y - ref) <= 1e-14 * np.linalg.norm(ref)

    def test_identity_inverse(self):
        tree = build_uniform_tree(64, 8)
        H = compress_to_hbs(np.eye(64), tree, 1e-12)
        inv = hbs_invert(H)
        u = np.arange(64.0)
        assert np.allclose(inv.apply(u), u)

    def test_composition_identity(self):
        rng = np.random.default_rng(RNG_SEED)
        N = 1024
        A = green_kernel_matrix(N) + np.eye(N)
        tree = build_uniform_tree(N, 64)
        H = compress_to_hbs(A, tree, 1e-12)
        inv = hbs_invert(H)
        for _ in range(20):
            u = rng.standard_normal(N)
            q = inv.apply(hbs_matvec(H, u))
            assert np.linalg.norm(q - u) <= 1e-8 * np.linalg.norm(u)

    def test_zero_maps_to_zero(self):
        tree = build_uniform_tree(64, 8)
        H = compress_to_hbs(green_kernel_matrix(64) + np.eye(64), tree, 1e-12)
        inv = hbs_invert(H)
        assert np.allclose(inv.apply(np.zeros(64)), 0.0)

    def test_dimension_mismatch(self):
        tree = build_uniform_tree(64, 8)
        H = compress_to_hbs(np.eye(64), tree, 1e-12)
        inv = hbs_invert(H)
        with pytest.raises(ValueError):
            inv.apply(np.ones(63))


def dtilde(H, tau, Dhat):
    """Node tau's Dtilde: D_tau at a leaf; at a parent its own block
    [0, Atilde_ab; Atilde_ba, 0] with the children's Dhat on the diagonal,
    assembled by ``np.block``."""
    B = H.stacks.get(tau)[2]
    if H.tree.is_leaf(tau):
        return B
    a, b = H.tree.children(tau)
    ka = H.rank(a)
    return np.block([[Dhat[a], B[:ka, ka:]], [B[ka:, :ka], Dhat[b]]])


def dense_from_blocks(H):
    """A rebuilt node by node from H's unpadded blocks: the leaf blocks
    D_tau, and U_a Atilde_ab V_b* for every sibling pair through long
    bases."""
    t, A = H.tree, np.zeros((H.N, H.N), dtype=H.dtype)
    long_u, long_v = {}, {}
    for ell in range(t.depth, 0, -1):
        for tau in t.nodes_at_level(ell):
            V, U, B = H.stacks.get(tau)
            if t.is_leaf(tau):
                long_u[tau], long_v[tau] = U, V
                A[slice(*t.ranges[tau]), slice(*t.ranges[tau])] = B
            else:
                a, b = t.children(tau)
                long_u[tau] = scipy.linalg.block_diag(long_u[a], long_u[b]) @ U
                long_v[tau] = scipy.linalg.block_diag(long_v[a], long_v[b]) @ V
    for a, b in sibling_pairs(t):
        B, ka = H.stacks.get(a // 2)[2], H.rank(a)
        for (r, c), At in (((a, b), B[:ka, ka:]), ((b, a), B[ka:, :ka])):
            A[slice(*t.ranges[r]), slice(*t.ranges[c])] = long_u[r] @ At @ long_v[c].conj().T
    return A


class TestLevelStacks:
    """The inverse as one zero-padded stack per level."""

    @pytest.fixture(scope="class")
    def helmholtz777(self):
        # complex, leaves of 97 and 98, unequal ranks within each level
        A = helmholtz_starfish_matrix(777)
        H = compress_to_hbs(A, build_uniform_tree(777, 64), 1e-10)
        return H, hbs_invert(H)

    def test_mixed_ranks_one_padded_stack_per_level(self, helmholtz777):
        H, inv = helmholtz777
        t, st = H.tree, inv.stacks
        assert len(st.B) == t.depth + 1 and st.tree.leaf is not None
        assert any(len({H.rank(tau) for tau in t.nodes_at_level(ell)}) > 1
                   for ell in range(1, t.depth + 1))
        # the Woodbury blocks rebuilt node by node, bottom-up
        Dhat = {}
        for ell in range(t.depth, -1, -1):
            K = st.Wh[ell + 1].shape[1] if ell < t.depth else None
            for j, tau in enumerate(t.nodes_at_level(ell)):
                Dt = dtilde(H, tau, Dhat)
                if t.is_leaf(tau):
                    p = np.arange(t.size(tau))
                else:
                    p = np.r_[0:H.rank(2 * tau), K:K + H.rank(2 * tau + 1)]
                r = H.rank(tau) if tau > 1 else 0
                V, U, _ = H.stacks.get(tau)
                Dhat[tau], E, F, G = woodbury_variant(Dt, U, V)
                Wh, Z, B = st.Wh[ell][j], st.Z[ell][j], st.B[ell][j]
                assert np.array_equal(Wh[:r, p], F.conj().T)
                assert np.array_equal(Z[p, :r], E)
                assert np.array_equal(B[np.ix_(p, p)], G)
                pad = np.ones(B.shape[0], bool)
                pad[p] = False
                assert not Wh[r:].any() and not Wh[:, pad].any()
                assert not Z[:, r:].any() and not Z[pad].any()
                assert not B[pad].any() and not B[:, pad].any()

    def test_complex_keeps_imaginary_part(self, helmholtz777):
        H, inv = helmholtz777
        b = np.random.default_rng(RNG_SEED).standard_normal(H.N)
        y = inv.apply(b)
        y_ref = np.linalg.solve(H.todense(), b)
        assert y.dtype == np.complex128
        assert np.linalg.norm((y - y_ref).imag) <= 1e-12 * np.linalg.norm(y_ref.imag)

    def test_uneven_leaves_match_dense_solve(self):
        # real BIE matrix, N = 777: the leaf stack pads 97-row leaves to 98,
        # solved against the dense matrix the HBS blocks represent
        N = 777
        H = compress_to_hbs(starfish_bie_matrix(N), build_uniform_tree(N, 64), 1e-10)
        inv = hbs_invert(H)
        assert inv.stacks.tree.leaf.sum() == N and inv.stacks.tree.leaf.shape == (8, 98)
        rng = np.random.default_rng(RNG_SEED)
        B = rng.standard_normal((N, 2)) + 1j * rng.standard_normal((N, 2))
        Y, Y_ref = inv.apply(B), np.linalg.solve(H.todense(), B)
        assert np.linalg.norm(Y - Y_ref) <= 1e-12 * np.linalg.norm(Y_ref)
        # a real inverse applied to complex data keeps both parts (the
        # stacks are cast to complex, so the sums round differently)
        Y_imag = inv.apply(B.imag)
        assert np.linalg.norm(Y.imag - Y_imag) <= 1e-14 * np.linalg.norm(Y_imag)

    def test_depth_zero_is_one_dense_stack(self):
        A = green_kernel_matrix(50) + np.eye(50)
        inv = hbs_invert(compress_to_hbs(A, build_uniform_tree(50, 32), 1e-10))
        st = inv.stacks
        assert [M.shape for M in st.B] == [(1, 50, 50)] and st.tree.leaf is None
        assert st.Wh[0].shape == (1, 0, 50) and st.Z[0].shape == (1, 50, 0)
        x = np.arange(50.0)
        assert np.linalg.norm(A @ inv.apply(x) - x) <= 1e-13 * np.linalg.norm(x)

    @pytest.mark.parametrize("N", [512, 777])
    def test_matvec_of_identity_matches_blockwise_dense(self, N):
        H = compress_to_hbs(starfish_bie_matrix(N), build_uniform_tree(N, 64), 1e-10)
        ref = dense_from_blocks(H)
        assert np.linalg.norm(hbs_matvec(H, np.eye(N)) - ref) <= 1e-14 * np.linalg.norm(ref)


class TestTelescopeGet:
    """``Telescope.get`` returns exactly what ``put`` wrote."""

    @pytest.mark.parametrize("N, leaf, is_complex", [
        (777, 64, True),  # leaves of 97 and 98 rows, depth 3
        (256, 32, False),  # even leaves
        (100, 32, True),  # depth 1
        (50, 32, False),  # depth 0: the root is the one leaf
    ])
    def test_round_trip_is_bitwise(self, N, leaf, is_complex):
        t = build_uniform_tree(N, leaf)
        rng = np.random.default_rng(RNG_SEED)
        # ranks 0 .. 4 mixed within every level, none at the root
        rank = {tau: (3 * tau) % 5 for tau in range(2, t.nnodes + 1)}
        def draw(*shape):
            x = rng.standard_normal(shape)
            return x + 1j * rng.standard_normal(shape) if is_complex else x

        st = Telescope.zeros(t, rank.get, complex if is_complex else float)
        wrote = {}
        for tau in range(1, t.nnodes + 1):
            n = t.size(tau) if t.is_leaf(tau) else rank[2 * tau] + rank[2 * tau + 1]
            r = rank.get(tau, 0)
            wrote[tau] = (draw(n, r), draw(n, r), draw(n, n))
            st.put(tau, *wrote[tau])
        for tau, blocks in wrote.items():
            got = st.get(tau)
            for g, w in zip(got, blocks):
                assert g.shape == w.shape and g.dtype == w.dtype
                assert g.tobytes() == w.tobytes()
            for g in got:  # copies: writing into them leaves the stacks as they were
                g[...] = 7.0
            assert all(g.tobytes() == w.tobytes() for g, w in zip(st.get(tau), blocks))


class TestStorage:
    def test_linear_growth_at_fixed_rank(self):
        s = {}
        for N in (1024, 2048):
            A = green_kernel_matrix(N) + np.eye(N)
            tree = build_uniform_tree(N, 32)
            H = compress_to_hbs(A, tree, 1e-12)
            s[N] = hbs_storage(H)["stored_scalars"]
        assert s[2048] / s[1024] <= 2.2

    def test_identity_leaf_storage_only(self):
        tree = build_uniform_tree(64, 8)
        H = compress_to_hbs(np.eye(64), tree, 1e-10)
        assert hbs_storage(H)["stored_scalars"] == 8 * 64

    def test_per_level_ranks_toward_root(self):
        A = green_kernel_matrix(512)
        tree = build_uniform_tree(512, 32)
        H = compress_to_hbs(A, tree, 1e-12)
        ranks = hbs_storage(H)["per_level_ranks"]
        levels = sorted(ranks)
        assert all(ranks[a] <= ranks[b] for a, b in zip(levels, levels[1:]))


@settings(max_examples=25, derandomize=True, deadline=None, database=None)
@given(N=strategies.integers(3, 300), leaf=strategies.integers(2, 64),
       log_tol=strategies.integers(-12, -4), is_complex=strategies.booleans(),
       cut=strategies.booleans(), seed=strategies.integers(0, 2**32 - 1))
# a depth-0 tree (N < 2 leaf), a depth-1 tree, and an odd N whose root
# coupling is zeroed (rank 0)
@example(N=100, leaf=64, log_tol=-12, is_complex=True, cut=False, seed=1)
@example(N=150, leaf=64, log_tol=-8, is_complex=False, cut=False, seed=2)
@example(N=299, leaf=16, log_tol=-4, is_complex=True, cut=True, seed=3)
def test_factor_hbs_property(N, leaf, log_tol, is_complex, cut, seed):
    """factor(A, "hbs") on real and complex matrices, any N and leaf,
    tol 1e-12 .. 1e-4; ``cut`` zeroes both root coupling blocks."""
    tol = 10.0 ** log_tol
    rng = np.random.default_rng(seed)
    x = np.sort(rng.uniform(0.0, 1.0, N))
    A = 1.0 / (1.0 + 10.0 * np.abs(x[:, None] - x[None, :])) + 4.0 * np.eye(N)
    if is_complex:
        A = A * np.exp(3j * (x[:, None] - x[None, :]))
    tree = build_uniform_tree(N, leaf)
    if cut and tree.depth:
        s2, s3 = slice(*tree.ranges[2]), slice(*tree.ranges[3])
        A[s2, s3] = A[s3, s2] = 0.0
    B = rng.standard_normal((N, 3))

    H = compress_to_hbs(A, tree, tol)
    if cut and tree.depth:
        assert H.rank(2) == H.rank(3) == 0
    fac = factor(A, "hbs", tree, tol)
    assert fac.stored_scalars == hbs_storage(H)["stored_scalars"]
    Y = fac.apply(B)
    assert np.array_equal(Y, hbs_invert(H).apply(B)) and np.iscomplexobj(Y) == is_complex
    # one block of right-hand sides against its columns: gemm and gemv sums
    # may round differently
    cols = np.column_stack([fac.apply(b) for b in B.T])
    assert np.linalg.norm(Y - cols) <= 1e-12 * np.linalg.norm(Y)
    Y_ref = np.linalg.solve(A, B)
    bound = 2 * (tree.depth + 1) * tol * np.linalg.cond(A)
    assert np.linalg.norm(Y - Y_ref) <= bound * np.linalg.norm(Y_ref)
