"""The one solver pipeline: every backend against a dense solve."""

import re

import numpy as np
import pytest
import scipy.sparse

from fds import hbs, hodlr
from fds.linalg import SingularMatrixError
from fds.solve import factor
from fds.sparsend import assemble_stencil, nd_factor, nd_partition
from fds.tree import build_uniform_tree

RNG_SEED = 909


def semiseparable_matrix(N, dtype):
    """I + exp(c |x_i - x_j|) / N: every off-diagonal block has rank 1."""
    c = -1.0 + (5.0j if dtype == complex else 0.0)
    x = np.linspace(0.0, 1.0, N)
    return np.eye(N) + np.exp(c * np.abs(x[:, None] - x[None, :])) / N


def rhs(N, dtype, r=None):
    rng = np.random.default_rng(RNG_SEED)
    shape = (N,) if r is None else (N, r)
    b = rng.standard_normal(shape)
    return b + 1j * rng.standard_normal(shape) if dtype == complex else b


@pytest.mark.parametrize("dtype", [float, complex])
@pytest.mark.parametrize("backend", ["dense", "hodlr", "hbs"])
# deep tree with unequal leaves, equal leaves, depth 0
@pytest.mark.parametrize("N, leaf", [(300, 32), (256, 32), (40, 64)])
def test_matches_dense_solve(backend, dtype, N, leaf):
    A = semiseparable_matrix(N, dtype)
    tree = build_uniform_tree(N, leaf)
    fac = factor(A, backend, tree, tol=1e-12)
    for b in (rhs(N, dtype), rhs(N, dtype, 3), rhs(N, dtype, 0)):
        x = fac.apply(b)
        x_ref = np.linalg.solve(A, b)
        assert x.shape == b.shape
        assert np.linalg.norm(x - x_ref) <= 1e-10 * np.linalg.norm(x_ref)


@pytest.mark.parametrize("dtype", [float, complex])
@pytest.mark.parametrize("n, leaf_cells", [(13, 3), (5, 5)])  # deep tree, one front
def test_nd_matches_dense_solve(dtype, n, leaf_cells):
    st = assemble_stencil(2, n)
    A = st.A
    if dtype == complex:
        A = (A + 1j * A.diagonal().max() * scipy.sparse.identity(st.N)).tocsr()
    fac = factor(A, "nd", nd_partition(2, n, leaf_cells))
    b = rhs(st.N, dtype)
    x_ref = np.linalg.solve(A.toarray(), b)
    assert np.linalg.norm(fac.apply(b) - x_ref) <= 1e-12 * np.linalg.norm(x_ref)


@pytest.mark.parametrize("backend, tree, needs", [
    ("hodlr", None, "ClusterTree"),
    ("hbs", None, "ClusterTree"),
    ("hbs", nd_partition(2, 5, 3), "ClusterTree"),
    ("nd", None, "NdTree"),
    ("nd", build_uniform_tree(25, 8), "NdTree"),
], ids=["hodlr-none", "hbs-none", "hbs-ndtree", "nd-none", "nd-clustertree"])
def test_missing_or_wrong_tree(backend, tree, needs):
    with pytest.raises(ValueError, match=f"backend '{backend}' needs a tree of type {needs}"):
        factor(assemble_stencil(2, 5).A.toarray(), backend, tree)


@pytest.mark.filterwarnings("ignore::scipy.linalg.LinAlgWarning")
def test_swap_matrix_singular_blocks_hint():
    # [[0, I], [I, 0]] has condition number 1, but every leaf block is zero
    I, Z = np.eye(64), np.zeros((64, 64))
    A = np.block([[Z, I], [I, Z]])
    b = rhs(128, float)
    assert np.linalg.norm(factor(A, "dense").apply(b) - A @ b) <= 1e-14 * np.linalg.norm(b)
    tree = build_uniform_tree(128, 16)
    hint = "; the method needs invertible leaf and intermediate blocks, and A itself may still"
    for backend, prefix in (("hodlr", "leaf diagonal block 8 is singular"),
                            ("hbs", r"singular intermediate at node 8 \(level 3\)")):
        with pytest.raises(SingularMatrixError, match=prefix + ".*" + hint):
            factor(A, backend, tree)


def test_unknown_backend():
    with pytest.raises(ValueError, match="unknown backend"):
        factor(np.eye(4), "qr")


@pytest.mark.filterwarnings("ignore::scipy.linalg.LinAlgWarning")
def test_singular_dense_matrix():
    with pytest.raises(SingularMatrixError):
        factor(np.array([[1.0, 2.0], [2.0, 4.0]]), "dense")
    # an exact zero pivot and a tiny nonzero one below the underflow cut
    A = np.zeros((3, 3))
    A[0, 0] = 1.0
    for M in (A, np.diag([1.0, 1e-305])):
        with pytest.raises(SingularMatrixError, match="pivot 1"):
            factor(M, "dense")


@pytest.mark.parametrize("backend", ["dense", "hodlr", "hbs", "nd"])
def test_right_hand_side_of_wrong_length_refused(backend):
    # nd used to read a length-2N vector as an (N, 2) block and return the
    # solution for b[0::2]; hodlr and hbs used to flatten an (N, 2, 3) block
    # and return an (N, 2, 3) answer; dense refused that block with scipy's
    # message about the shapes of lu and b
    st = assemble_stencil(2, 8)
    tree = nd_partition(2, 8, 3) if backend == "nd" else build_uniform_tree(st.N, 16)
    fac = factor(st if backend == "nd" else st.A.toarray(), backend, tree)
    for b in (rhs(2 * st.N, float), rhs(st.N, float, 6).reshape(st.N, 2, 3)):
        with pytest.raises(ValueError, match=rf"right-hand side shape {re.escape(str(b.shape))} "
                                             r"is not \(64,\) or \(64, r\)"):
            fac.apply(b)


def test_non_square_dense_matrix_refused_at_factor():
    # it used to return a Factorization storing 48 scalars that failed only
    # at apply, with scipy's untyped error, which is no ValueError
    with pytest.raises(ValueError, match=r"matrix must be square, got shape \(8, 6\)"):
        factor(np.random.default_rng(0).standard_normal((8, 6)), "dense")


def test_stored_scalars():
    A = semiseparable_matrix(300, float)
    tree = build_uniform_tree(300, 32)
    assert factor(A, "dense").stored_scalars == 300 * 300
    H = hodlr.compress_to_hodlr(A, tree, 1e-10)
    assert factor(A, "hodlr", tree).stored_scalars == hodlr.storage_report(H)["stored_scalars"]
    H = hbs.compress_to_hbs(A, tree, 1e-10)
    assert factor(A, "hbs", tree).stored_scalars == hbs.hbs_storage(H)["stored_scalars"]
    st = assemble_stencil(2, 13)
    tree = nd_partition(2, 13, 3)
    fronts = nd_factor(st, tree).fronts
    front_sum = sum(fr.lu[0].size + fr.inv.size + fr.X.size + fr.F_BS.size for fr in fronts)
    assert factor(st, "nd", tree).stored_scalars == front_sum == 5138
