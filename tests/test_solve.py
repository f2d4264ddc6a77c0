"""The one solver pipeline: every backend against a dense solve."""

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
@pytest.mark.parametrize("N, leaf", [(300, 32), (40, 64)])  # deep tree, depth 0
def test_matches_dense_solve(backend, dtype, N, leaf):
    A = semiseparable_matrix(N, dtype)
    tree = build_uniform_tree(N, leaf)
    fac = factor(A, backend, tree, tol=1e-12)
    for b in (rhs(N, dtype), rhs(N, dtype, 3)):
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


def test_unknown_backend():
    with pytest.raises(ValueError, match="unknown backend"):
        factor(np.eye(4), "qr")


@pytest.mark.filterwarnings("ignore::scipy.linalg.LinAlgWarning")
def test_singular_dense_matrix():
    with pytest.raises(SingularMatrixError):
        factor(np.array([[1.0, 2.0], [2.0, 4.0]]), "dense")


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
