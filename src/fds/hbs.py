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
one batched product per level up and two down. The inverse keeps its
stacks; ``hbs_matvec`` packs A's for each call.
"""

import logging
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from ._stacks import Telescope
from .linalg import (_BLOCKS_HINT, SingularMatrixError, _check_input, interpolative_decomposition,
                     lu_factor_checked)
from .tree import ClusterTree, sibling_pairs

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


def _union_skeleton(Brow, Bcol, tol):
    """Shared row/column skeleton with interpolation bases.

    ``Brow`` holds the block's rows against the far field (n x M) and
    ``Bcol`` its columns (M x n). A column ID depends only on the
    geometry of the columns, which the triangular factor of an
    unpivoted QR keeps, so each tall block is first reduced by one
    BLAS-3 QR, Brow* = Q R_r and Bcol = Q' R_c, and the rest runs on the
    factors of at most n x n (Cheng, Gimbutas, Martinsson & Rokhlin,
    SISC 26 (2005)). The row-ID of Brow (the column ID of R_r) and the
    column ID of Bcol (of R_c) are unioned; both bases are then
    re-solved against the union by least squares on R_r and R_c, with
    the cutoff eps * max(M, k) of the tall problem, so each contains an
    identity on the skeleton. Returns (positions J, U, V) with
    Brow ~= U @ Brow[J] and Bcol ~= Bcol[:, J] @ V.conj().T.
    """
    n = Brow.shape[0]
    dtype = np.result_type(Brow.dtype, Bcol.dtype)
    if Brow.size == 0 or Bcol.size == 0:
        empty = np.zeros((n, 0), dtype=dtype)
        return np.empty(0, dtype=int), empty, empty.copy()
    Rrow = np.linalg.qr(Brow.conj().T, mode="r")
    Rcol = np.linalg.qr(Bcol, mode="r")
    row_id = interpolative_decomposition(Rrow, tol)
    col_id = interpolative_decomposition(Rcol, tol)
    J = np.union1d(row_id.skeleton, col_id.skeleton).astype(int)
    k = len(J)
    rest = np.setdiff1d(np.arange(n), J)
    U, V = np.zeros((n, k), dtype=dtype), np.zeros((n, k), dtype=dtype)
    U[J] = V[J] = np.eye(k)
    if k and len(rest):
        # rows: Brow[rest] ~= X @ Brow[J]; columns analogously
        eps = np.finfo(dtype).eps
        X, *_ = np.linalg.lstsq(Rrow[:, J], Rrow[:, rest],
                                rcond=eps * max(Brow.shape[1], k))
        U[rest] = X.conj().T
        Y, *_ = np.linalg.lstsq(Rcol[:, J], Rcol[:, rest],
                                rcond=eps * max(Bcol.shape[0], k))
        V[rest] = Y.conj().T
    return J, U, V


# -- hierarchical format -------------------------------------------------------


@dataclass
class HbsMatrix:
    tree: ClusterTree
    U: dict  # non-root tau -> basis / transfer matrix
    V: dict
    Atilde: dict  # ordered sibling pair -> dense interaction
    D: dict  # leaf tau -> dense diagonal block
    skeleton: dict  # tau -> retained global indices
    tol: float

    @property
    def N(self) -> int:
        return self.tree.N

    @property
    def dtype(self):
        return next(iter(self.D.values())).dtype

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
    matrices. Sibling interactions are read off the source matrix.

    Cost: each node reads its whole far field once, through one
    unpivoted QR of its n x (N - |tau|) block row and one of its block
    column; the IDs and least-squares fits then run on n x n triangles.
    That is O(N^2 k) over the tree, so the method stays O(N^2); an O(N)
    build needs proxy surfaces in place of the full far field.

    A tree of depth 0 (N below twice the leaf size) stores A as its one
    leaf block, and the inverse is a checked dense LU of it. A non-finite
    entry anywhere in A raises ValueError before any node is compressed.
    """
    A = _check_input(A, tol)
    t = tree
    if A.shape != (t.N, t.N):
        raise ValueError(f"matrix shape {A.shape} does not match tree over {t.N}")
    allidx = np.arange(t.N)
    U, V, skel = {}, {}, {}
    for ell in range(t.depth, 0, -1):
        for tau in t.nodes_at_level(ell):
            own = t.index_range(tau)
            rows = own if t.is_leaf(tau) else np.concatenate([skel[c] for c in t.children(tau)])
            comp = np.setdiff1d(allidx, own)
            J, Ut, Vt = _union_skeleton(A[np.ix_(rows, comp)], A[np.ix_(comp, rows)], tol)
            U[tau], V[tau] = Ut, Vt
            skel[tau] = rows[J]
    Atilde = {(a, b): A[np.ix_(skel[a], skel[b])].copy()
              for pair in sibling_pairs(t) for a, b in (pair, pair[::-1])}
    D = {tau: A[np.ix_(t.index_range(tau), t.index_range(tau))].copy() for tau in t.leaves()}
    return HbsMatrix(tree=t, U=U, V=V, Atilde=Atilde, D=D, skeleton=skel, tol=tol)


def hbs_matvec(H: HbsMatrix, x):
    """y = A x by the telescoping sweep through V* and U, with the
    blocks packed into level stacks for the call. A leaf's own block is
    D_tau; a parent's couples its children through the sibling
    interactions, [0, Atilde_ab; Atilde_ba, 0]."""
    t, st = H.tree, Telescope.zeros(H.tree, H.rank, H.dtype)
    for tau in range(1, t.nnodes + 1):
        if t.is_leaf(tau):
            B = H.D[tau]
        else:
            a, b = t.children(tau)
            B = np.block([[np.zeros((H.rank(a),) * 2), H.Atilde[(a, b)]],
                          [H.Atilde[(b, a)], np.zeros((H.rank(b),) * 2)]])
        st.put(tau, H.V.get(tau, B[:, :0]), H.U.get(tau, B[:, :0]), B)
    return st.apply(x)


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

    Leaves take Dtilde = D_tau; a parent's Dtilde couples its children's
    Dhat blocks through their sibling interaction. Each Dtilde goes
    through the Woodbury variation with the node's bases, the root's
    with an empty one, so its G is Dtilde^{-1} (A itself at depth 0).
    Every intermediate inverse is a dense partially pivoted LU; a
    singular one raises with the node id and level, and a 1-norm
    condition estimate of every block is recorded (ill conditioning is
    logged, not repaired).
    """
    t, st = H.tree, Telescope.zeros(H.tree, H.rank, H.dtype)
    Dhat, conds = {}, {}
    for ell in range(t.depth, -1, -1):
        for tau in t.nodes_at_level(ell):
            if t.is_leaf(tau):
                Dt = H.D[tau]
            else:
                a, b = t.children(tau)
                Dt = np.block([[Dhat[a], H.Atilde[(a, b)]],
                               [H.Atilde[(b, a)], Dhat[b]]])
            try:
                (Dhat[tau], E, F, G), conds[tau] = _woodbury_variant(
                    Dt, H.U.get(tau, Dt[:, :0]), H.V.get(tau, Dt[:, :0]))
            except SingularMatrixError as exc:
                raise SingularMatrixError(f"singular intermediate at node {tau} (level {ell}): "
                                          f"{exc}{_BLOCKS_HINT}") from exc
            st.put(tau, F, E, G)
            if conds[tau] > 1e13:
                logger.warning("Dtilde at node %d (level %d) has condition estimate %.2e",
                               tau, ell, conds[tau])
    return HbsInverse(tree=t, stacks=st, cond_estimates=conds)


def hbs_storage(H: HbsMatrix):
    """Exact stored-scalar count and the largest rank per level."""
    scalars = sum(M.size for blocks in (H.D, H.U, H.V, H.Atilde) for M in blocks.values())
    return {"stored_scalars": scalars, "per_level_ranks": H.per_level_ranks()}
