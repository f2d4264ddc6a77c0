"""Hierarchically block separable (HBS/HSS) matrices.

The format couples blocks through nested bases: a leaf stores an
interpolation basis onto a few of its own rows/columns (its *skeleton*),
a parent stores only the small transfer matrix expressing its skeleton
through its children's. Sibling interactions are literal submatrices
A(skel_alpha, skel_beta) of the source matrix, which is what makes the
compression a *recursive skeletonization*.

Inversion follows the one-level variation-of-Woodbury identity

    A^{-1} = E (Atilde + Dhat)^{-1} F* + G,
    Dhat = (V* D^{-1} U)^{-1},   E = D^{-1} U Dhat,
    F = (Dhat V* D^{-1})*,       G = D^{-1} - D^{-1} U Dhat V* D^{-1},

applied once per tree level, bottom-up; the root takes an empty basis,
so its G is the inverse of its coupled block. The inverse is then a
matrix in the same telescoping form as A, with F, E and G in place of
V, U and the nodes' own blocks. One sweep applies both: each level's
blocks sit zero-padded in one stack (``_stacks.Telescope``), so it costs
one batched product per level up and two down. A and its inverse each
hold their stacks, written once when they are built; a parent's own
block in A is [0, Atilde_ab; Atilde_ba, 0], where the inverse puts the
children's Dhat on the diagonal to form its Dtilde.
"""

import logging
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from ._stacks import Telescope
from .linalg import (_BLOCKS_HINT, SingularMatrixError, _check_input, _inexact,
                     _pivoted_qr, lu_factor_checked)
from .tree import ClusterTree

logger = logging.getLogger(__name__)

__all__ = ["HbsMatrix", "compress_to_hbs", "hbs_matvec", "HbsInverse", "hbs_invert",
           "hbs_storage"]


def _woodbury_variant(D, U, V):
    """((Dhat, E, F, G), cond) for A = U Atilde V* + D: Dhat =
    (V* D^{-1} U)^{-1}, E = D^{-1} U Dhat, F* = Dhat V* D^{-1} and
    G = D^{-1} - E V* D^{-1}, so A^{-1} = E (Atilde + Dhat)^{-1} F* + G
    for any Atilde; cond = ||D||_1 ||D^{-1}||_1 (1 if D is empty). With
    K = 0, G = D^{-1} and E, F are empty. A singular D or V* D^{-1} U
    raises SingularMatrixError naming which one."""
    D, U, V = np.asarray(D), np.asarray(U), np.asarray(V)
    n, K = U.shape
    lu = lu_factor_checked(D, "D")
    Dinv = scipy.linalg.lu_solve(lu, np.eye(n, dtype=D.dtype))
    cond = float(np.linalg.norm(D, 1) * np.linalg.norm(Dinv, 1)) if n else 1.0
    Z = scipy.linalg.lu_solve(lu, U)  # D^{-1} U
    M = V.conj().T @ Z  # V* D^{-1} U
    Dhat = scipy.linalg.lu_solve(lu_factor_checked(M, "V* D^-1 U"), np.eye(K))
    W = scipy.linalg.lu_solve(lu, V, trans=2)  # D^{-*} V, so W* = V* D^{-1}
    E = Z @ Dhat
    F = W @ Dhat.conj().T  # F* = Dhat V* D^{-1}
    G = Dinv - Z @ Dhat @ W.conj().T
    return (Dhat, E, F, G), cond


# -- shared skeleton construction ---------------------------------------------


def _qr_r(B):
    """R of the unpivoted QR B = Q R: the upper triangle of the first
    min(m, n) rows of LAPACK ``geqrt``'s result (blocks of 32 columns).
    A Fortran-ordered float64 or complex128 B is factored in place, so
    its entries are lost; any other B is copied first."""
    m, n = B.shape
    geqrt, = scipy.linalg.get_lapack_funcs(("geqrt",), (B,))
    QR, _, _ = geqrt(min(32, m, n), B, overwrite_a=1)
    return np.triu(QR[:min(m, n)])


def _far_field(A, rows, s0, s1):
    """A[rows] without the columns [s0, s1), as a new C-ordered array."""
    B = np.empty((len(rows), A.shape[1] - (s1 - s0)), A.dtype)
    B[:, :s0] = A[rows, :s0]
    B[:, s0:] = A[rows, s1:]
    return B


def _union_skeleton(Brow, Bcol, tol):
    """Shared row/column skeleton with interpolation bases.

    ``Brow`` holds the block's rows against the far field (n x M) and
    ``Bcol`` its columns (M x n). A column ID depends only on the
    geometry of the columns, which the triangular factor of an
    unpivoted QR keeps, so each tall block is first reduced by one
    BLAS-3 QR, Brow* = Q R_r and Bcol = Q' R_c, and the rest runs on the
    factors of at most n x n (Cheng, Gimbutas, Martinsson & Rokhlin,
    SISC 26 (2005)). R_r is the conjugate of the R of Brow^T, so a
    C-ordered Brow and a Fortran-ordered Bcol go to LAPACK without a
    copy, and are overwritten: callers pass blocks they no longer need.
    The row skeleton of Brow (the pivots of R_r's column-pivoted QR) and
    the column skeleton of Bcol (of R_c's) are unioned; both bases are
    then re-solved against the union by least squares on R_r and R_c,
    with the cutoff eps * max(M, k) of the tall problem, so each
    contains an identity on the skeleton. Returns (positions J, U, V) with
    Brow ~= U @ Brow[J] and Bcol ~= Bcol[:, J] @ V.conj().T for the
    blocks as they were passed in.
    """
    n, M = Brow.shape
    dtype = np.result_type(Brow.dtype, Bcol.dtype)
    if Brow.size == 0 or Bcol.size == 0:
        empty = np.zeros((n, 0), dtype=dtype)
        return np.empty(0, dtype=int), empty, empty.copy()
    Rrow = _qr_r(Brow.T).conj()
    Rcol = _qr_r(Bcol)
    (_, prow, krow), (_, pcol, kcol) = _pivoted_qr(Rrow, tol), _pivoted_qr(Rcol, tol)
    J = np.union1d(prow[:krow], pcol[:kcol]).astype(int)
    k = len(J)
    rest = np.setdiff1d(np.arange(n), J)
    U, V = np.zeros((n, k), dtype=dtype), np.zeros((n, k), dtype=dtype)
    U[J] = V[J] = np.eye(k)
    if k and len(rest):
        # rows: Brow[rest] ~= X @ Brow[J]; columns analogously
        rcond = np.finfo(dtype).eps * max(M, k)
        X, *_ = np.linalg.lstsq(Rrow[:, J], Rrow[:, rest], rcond=rcond)
        U[rest] = X.conj().T
        Y, *_ = np.linalg.lstsq(Rcol[:, J], Rcol[:, rest], rcond=rcond)
        V[rest] = Y.conj().T
    return J, U, V


# -- hierarchical format -------------------------------------------------------


@dataclass
class HbsMatrix:
    """A in telescoping form: ``stacks.get(tau)`` is (V_tau, U_tau, B_tau)
    with B_tau = D_tau at a leaf and [0, Atilde_ab; Atilde_ba, 0] at a
    parent of a and b; V and U are empty at the root."""

    tree: ClusterTree
    stacks: Telescope
    skeleton: dict  # non-root tau -> retained global indices
    tol: float

    @property
    def N(self) -> int:
        return self.tree.N

    @property
    def dtype(self):
        return self.stacks.B[0].dtype

    def rank(self, tau) -> int:
        return len(self.skeleton[tau])

    def per_level_ranks(self):
        return {ell: max(self.rank(t) for t in self.tree.nodes_at_level(ell))
                for ell in range(1, self.tree.depth + 1)}

    def todense(self) -> np.ndarray:
        """Dense A as the matvec of the identity (test-scale only)."""
        return hbs_matvec(self, np.eye(self.N, dtype=self.dtype))


def compress_to_hbs(A, tree: ClusterTree, tol) -> HbsMatrix:
    """Recursive skeletonization of a dense matrix (brute-force O(N^2)).

    Bottom-up: each leaf interpolates its block row/column against the
    rest of the index set onto a shared skeleton; parents repeat the
    process on the stacked child skeletons, producing small transfer
    matrices. Sibling interactions are read off the source matrix, and
    every block is written once into the level stacks.

    Cost: a node owns the contiguous range [s0, s1), so its far field is
    the columns left of s0 and right of s1. Its block row is gathered
    from A into one C-ordered n x (N - |tau|) buffer, and its block
    column from a C-ordered copy of A^T, made at entry and held only
    during compression (N^2 scalars, the size of A; none at depth 0).
    Gathering each block column straight out of A into a Fortran-ordered
    buffer needs no copy but reads A across its rows: bie-starfish setup
    at N = 2048 took about 10 % longer that way (2-CPU machine, one BLAS
    thread). Each buffer's transpose is Fortran-ordered, so LAPACK
    ``geqrt`` factors it in place, with no further copy; the skeleton
    choice and least-squares fits then run on the n x n triangles. That is
    O(N^2 k) over the tree, so the method stays O(N^2); an O(N) build
    needs proxy surfaces in place of the full far field. Integer input
    is promoted to float64, and A is never written.

    A tree of depth 0 (N below twice the leaf size) stores A as its one
    leaf block, and the inverse is a checked dense LU of it. A non-finite
    entry anywhere in A raises ValueError before any node is compressed.
    """
    A = _inexact(_check_input(A, tol))
    t = tree
    if A.shape != (t.N, t.N):
        raise ValueError(f"matrix shape {A.shape} does not match tree over {t.N}")
    if t.depth:  # block columns become row gathers of a C-ordered A^T
        At = np.empty(A.shape, A.dtype)
        for i in range(0, t.N, 64):  # by strips: a whole-matrix transpose misses cache
            At[:, i:i + 64] = A[i:i + 64].T
    U, V, skel = {}, {}, {}
    for ell in range(t.depth, 0, -1):
        for tau in t.nodes_at_level(ell):
            s0, s1 = t.ranges[tau]
            rows = t.index_range(tau) if t.is_leaf(tau) else np.concatenate(
                [skel[c] for c in t.children(tau)])
            J, U[tau], V[tau] = _union_skeleton(_far_field(A, rows, s0, s1),
                                                _far_field(At, rows, s0, s1).T, tol)
            skel[tau] = rows[J]
    st = Telescope.zeros(t, lambda tau: len(skel[tau]), A.dtype)
    for tau in range(1, t.nnodes + 1):
        s0, s1 = t.ranges[tau]
        if t.is_leaf(tau):
            B = A[s0:s1, s0:s1]
        else:  # A(J, J) over the children's skeletons, their own blocks zeroed
            ka = len(skel[2 * tau])
            J = np.concatenate([skel[2 * tau], skel[2 * tau + 1]])
            B = A[np.ix_(J, J)]
            B[:ka, :ka] = B[ka:, ka:] = 0.0
        st.put(tau, V.get(tau, B[:, :0]), U.get(tau, B[:, :0]), B)
    return HbsMatrix(tree=t, stacks=st, skeleton=skel, tol=tol)


def hbs_matvec(H: HbsMatrix, x):
    """y = A x by the telescoping sweep through V* and U."""
    return H.stacks.apply(x)


@dataclass
class HbsInverse:
    """A^{-1} in the telescoping form of A: F, E and G take the places of
    V, U and the nodes' own blocks, held as one zero-padded ``Telescope``
    stack per tree level, and ``apply`` runs the sweep that ``hbs_matvec``
    runs. The root's G is the inverse of its Dtilde."""

    tree: ClusterTree
    stacks: Telescope
    # 1-norm condition estimates of every Dtilde block (the stability
    # bookkeeping used instead of a ULV-style factorization)
    cond_estimates: dict = field(default_factory=dict)

    def apply(self, u):
        return self.stacks.apply(u)


def hbs_invert(H: HbsMatrix) -> HbsInverse:
    """The inverse in telescoping form: blocks (E, F, G) of every node.

    Leaves take Dtilde = D_tau; a parent's Dtilde is its own block in A
    with its children's Dhat written on the diagonal, [Dhat_a, Atilde_ab;
    Atilde_ba, Dhat_b]. Each Dtilde goes through the Woodbury variation
    with the node's bases, the root's with an empty one, so its G is
    Dtilde^{-1} (A itself at depth 0).
    Every intermediate inverse is a dense partially pivoted LU; a
    singular one raises with the node id and level, and a 1-norm
    condition estimate of every block is recorded (ill conditioning is
    logged, not repaired).
    """
    t, st = H.tree, Telescope.zeros(H.tree, H.rank, H.dtype)
    Dhat, conds = {}, {}
    for ell in range(t.depth, -1, -1):
        for tau in t.nodes_at_level(ell):
            V, U, Dt = H.stacks.get(tau)
            if not t.is_leaf(tau):
                ka = H.rank(2 * tau)
                Dt[:ka, :ka], Dt[ka:, ka:] = Dhat.pop(2 * tau), Dhat.pop(2 * tau + 1)
            try:
                (Dhat[tau], E, F, G), conds[tau] = _woodbury_variant(Dt, U, V)
            except SingularMatrixError as exc:
                raise SingularMatrixError(f"singular intermediate at node {tau} (level {ell}): "
                                          f"{exc}{_BLOCKS_HINT}") from exc
            st.put(tau, F, E, G)
            if conds[tau] > 1e13:
                logger.warning("Dtilde at node %d (level %d) has condition estimate %.2e",
                               tau, ell, conds[tau])
    return HbsInverse(tree=t, stacks=st, cond_estimates=conds)


def hbs_storage(H: HbsMatrix):
    """Exact stored-scalar count of the unpadded blocks, and the largest
    rank per level. Node tau's U and V are n x k_tau, where n is its leaf
    size or its children's k_a + k_b; its own block is D_tau at a leaf,
    and at a parent the two sibling interactions, 2 k_a k_b scalars."""
    t, k = H.tree, H.stacks.rank
    scalars = 0
    for tau in range(1, t.nnodes + 1):
        if t.is_leaf(tau):
            n = t.size(tau)
            scalars += n * n
        else:
            n = k[2 * tau] + k[2 * tau + 1]
            scalars += 2 * k[2 * tau] * k[2 * tau + 1]
        scalars += 2 * n * k[tau]
    return {"stored_scalars": scalars, "per_level_ranks": H.per_level_ranks()}
