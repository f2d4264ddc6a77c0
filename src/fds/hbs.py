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
V, U and the nodes' own blocks, and one sweep applies both.
"""

import logging
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .linalg import (_BLOCKS_HINT, SingularMatrixError, interpolative_decomposition,
                     lu_factor_checked)
from .tree import ClusterTree, sibling_pairs

logger = logging.getLogger(__name__)

__all__ = [
    "woodbury_variant",
    "BlockSeparableMatrix",
    "compress_to_block_separable",
    "block_separable_inverse_apply",
    "HbsMatrix",
    "compress_to_hbs",
    "hbs_matvec",
    "HbsInverse",
    "hbs_invert",
    "hbs_apply_inverse",
    "hbs_storage",
]


def woodbury_variant(D, U, V, Atilde=None):
    """One-level inversion blocks (Dhat, E, F, G) for A = U Atilde V* + D.

    All inputs are dense; D is typically block diagonal. The
    interaction matrix ``Atilde`` never enters the returned blocks (it
    couples only through the core solve (Atilde + Dhat)^{-1} in the
    reconstruction A^{-1} = E (Atilde + Dhat)^{-1} F* + G), so it is
    accepted for signature symmetry but may be omitted. Raises
    SingularMatrixError identifying which of the two inverses failed.
    With an empty low-rank part (K = 0), G = D^{-1} and E, F are empty.
    """
    return _woodbury_variant(D, U, V)[0]


def _woodbury_variant(D, U, V):
    """``woodbury_variant``'s blocks and the 1-norm condition number of D,
    ||D||_1 ||D^{-1}||_1 (1 if empty), read off the D^{-1} the blocks are built from."""
    D = np.asarray(D)
    U = np.asarray(U)
    V = np.asarray(V)
    n = D.shape[0]
    K = U.shape[1]
    lu = lu_factor_checked(D, "D")
    Dinv = scipy.linalg.lu_solve(lu, np.eye(n, dtype=D.dtype))
    cond = float(np.linalg.norm(D, 1) * np.linalg.norm(Dinv, 1)) if n else 1.0
    if K == 0:
        empty = np.zeros((n, 0), dtype=D.dtype)
        return (np.zeros((0, 0), dtype=D.dtype), empty, empty, Dinv), cond
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
    U = np.zeros((n, k), dtype=dtype)
    V = np.zeros((n, k), dtype=dtype)
    U[J] = np.eye(k)
    V[J] = np.eye(k)
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


# -- flat (single level) block separable format --------------------------------


@dataclass
class BlockSeparableMatrix:
    """Single-level format: A(I_a, I_b) = U_a Atilde[a,b] V_b* for a != b."""

    partition: list  # list of global index arrays
    U: list
    V: list
    Atilde: dict  # (a, b) -> dense k_a x k_b interaction
    D: list  # dense diagonal blocks
    skeleton: list  # global skeleton indices per block

    def todense(self):
        N = sum(len(i) for i in self.partition)
        dtype = self.D[0].dtype
        A = np.zeros((N, N), dtype=dtype)
        for a, ia in enumerate(self.partition):
            A[np.ix_(ia, ia)] = self.D[a]
            for b, ib in enumerate(self.partition):
                if a != b:
                    A[np.ix_(ia, ib)] = self.U[a] @ self.Atilde[(a, b)] @ self.V[b].conj().T
        return A


def compress_to_block_separable(A, partition, tol) -> BlockSeparableMatrix:
    """Skeletonize a dense matrix over a flat partition of its indices."""
    A = np.asarray(A)
    N = A.shape[0]
    allidx = np.arange(N)
    U, V, D, skel = [], [], [], []
    for ia in partition:
        comp = np.setdiff1d(allidx, ia)
        J, Ua, Va = _union_skeleton(A[np.ix_(ia, comp)], A[np.ix_(comp, ia)], tol)
        U.append(Ua)
        V.append(Va)
        D.append(A[np.ix_(ia, ia)].copy())
        skel.append(np.asarray(ia)[J])
    Atilde = {
        (a, b): A[np.ix_(skel[a], skel[b])].copy()
        for a in range(len(partition))
        for b in range(len(partition))
        if a != b
    }
    return BlockSeparableMatrix(
        partition=[np.asarray(i) for i in partition],
        U=U, V=V, Atilde=Atilde, D=D, skeleton=skel,
    )


def block_separable_inverse_apply(B: BlockSeparableMatrix, u):
    """Apply A^{-1} u through the one-level Woodbury variation.

    The block-diagonal pieces are assembled densely; this routine exists
    as the reference pipeline against which the hierarchical inversion
    is checked.
    """
    sizes = [len(i) for i in B.partition]
    ks = [Ua.shape[1] for Ua in B.U]
    Dfull = scipy.linalg.block_diag(*B.D)
    Ufull = scipy.linalg.block_diag(*B.U)
    Vfull = scipy.linalg.block_diag(*B.V)
    K = sum(ks)
    dtype = Dfull.dtype
    At = np.zeros((K, K), dtype=dtype)
    offs = np.concatenate([[0], np.cumsum(ks)])
    for (a, b), M in B.Atilde.items():
        At[offs[a]:offs[a + 1], offs[b]:offs[b + 1]] = M
    Dhat, E, F, G = woodbury_variant(Dfull, Ufull, Vfull, At)
    perm = np.concatenate(B.partition)
    up = np.asarray(u)[perm]
    core = np.linalg.solve(At + Dhat, F.conj().T @ up)
    qp = E @ core + G @ up
    q = np.empty_like(qp)
    q[perm] = qp
    return q


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
        return {
            ell: max(self.rank(t) for t in self.tree.nodes_at_level(ell))
            for ell in range(1, self.tree.depth + 1)
        }

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
    leaf block, and the inverse is a checked dense LU of it.
    """
    A = np.asarray(A)
    t = tree
    if A.shape != (t.N, t.N):
        raise ValueError(f"matrix shape {A.shape} does not match tree over {t.N}")
    allidx = np.arange(t.N)
    U, V, skel = {}, {}, {}
    for ell in range(t.depth, 0, -1):
        for tau in t.nodes_at_level(ell):
            own = t.index_range(tau)
            rows = own if t.is_leaf(tau) else np.concatenate(
                [skel[c] for c in t.children(tau)]
            )
            comp = np.setdiff1d(allidx, own)
            J, Ut, Vt = _union_skeleton(A[np.ix_(rows, comp)], A[np.ix_(comp, rows)], tol)
            U[tau], V[tau] = Ut, Vt
            skel[tau] = rows[J]
    Atilde = {}
    for a, b in sibling_pairs(t):
        Atilde[(a, b)] = A[np.ix_(skel[a], skel[b])].copy()
        Atilde[(b, a)] = A[np.ix_(skel[b], skel[a])].copy()
    D = {tau: A[np.ix_(t.index_range(tau), t.index_range(tau))].copy() for tau in t.leaves()}
    return HbsMatrix(tree=t, U=U, V=V, Atilde=Atilde, D=D, skeleton=skel, tol=tol)


def _telescope(tree: ClusterTree, W, Z, B, x):
    """M x for M in telescoping form: an HBS matrix or its inverse.

    Upward, each node stacks its rows of x (leaf) or its children's
    coefficients (parent) into v_tau and passes W_tau* v_tau up.
    Downward, each node forms B(tau, v_tau) + Z_tau q_tau (no Z term at
    the root) and splits it over its children, or writes it out at a leaf.
    """
    x = np.ascontiguousarray(x)  # leaf blocks of rows are then contiguous
    if x.shape[0] != tree.N:
        raise ValueError(f"vector length {x.shape[0]} != {tree.N}")
    v, up = {}, {}
    for ell in range(tree.depth, -1, -1):
        for tau in tree.nodes_at_level(ell):
            v[tau] = (x[slice(*tree.ranges[tau])] if tree.is_leaf(tau)
                      else np.concatenate([up[c] for c in tree.children(tau)]))
            if ell:
                up[tau] = W[tau].conj().T @ v[tau]
    q, y = {}, []
    for ell in range(tree.depth + 1):
        for tau in tree.nodes_at_level(ell):
            out = B(tau, v[tau]) + Z[tau] @ q[tau] if ell else B(tau, v[tau])
            if tree.is_leaf(tau):
                y.append(out)
            else:
                a, b = tree.children(tau)
                q[a], q[b] = out[:len(up[a])], out[len(up[a]):]
    return np.concatenate(y)


def hbs_matvec(H: HbsMatrix, x):
    """y = A x by the telescoping sweep through V* and U. A leaf's own
    block is D_tau; a parent's couples its children through the sibling
    interactions, [Atilde_ab v_b; Atilde_ba v_a]."""
    t = H.tree

    def coupling(tau, v):
        if t.is_leaf(tau):
            return H.D[tau] @ v
        a, b = t.children(tau)
        ka = len(H.skeleton[a])
        return np.concatenate([H.Atilde[(a, b)] @ v[ka:], H.Atilde[(b, a)] @ v[:ka]])

    return _telescope(t, H.V, H.U, coupling, x)


@dataclass
class HbsInverse:
    """A^{-1} in the telescoping form of A: F, E and G take the places of
    V, U and the nodes' own blocks, and ``apply`` runs the sweep that
    ``hbs_matvec`` runs. The root's G is the inverse of its Dtilde."""

    tree: ClusterTree
    E: dict
    F: dict
    G: dict
    # 1-norm condition estimates of every Dtilde block (the stability
    # bookkeeping used instead of a ULV-style factorization)
    cond_estimates: dict = field(default_factory=dict)

    def apply(self, u):
        return _telescope(self.tree, self.F, self.E, lambda tau, v: self.G[tau] @ v, u)


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
    t = H.tree
    E, F, G, Dhat, conds = {}, {}, {}, {}, {}
    for ell in range(t.depth, -1, -1):
        for tau in t.nodes_at_level(ell):
            if t.is_leaf(tau):
                Dt = H.D[tau]
            else:
                a, b = t.children(tau)
                Dt = np.block([[Dhat[a], H.Atilde[(a, b)]],
                               [H.Atilde[(b, a)], Dhat[b]]])
            try:
                (Dhat[tau], E[tau], F[tau], G[tau]), conds[tau] = _woodbury_variant(
                    Dt, H.U.get(tau, Dt[:, :0]), H.V.get(tau, Dt[:, :0])
                )
            except SingularMatrixError as exc:
                raise SingularMatrixError(
                    f"singular intermediate at node {tau} (level {ell}): {exc}"
                    f"{_BLOCKS_HINT}"
                ) from exc
            if conds[tau] > 1e13:
                logger.warning(
                    "Dtilde at node %d (level %d) has condition estimate %.2e",
                    tau, ell, conds[tau],
                )
    return HbsInverse(tree=t, E=E, F=F, G=G, cond_estimates=conds)


def hbs_apply_inverse(inv: HbsInverse, u):
    """q = A^{-1} u, by ``inv.apply``."""
    return inv.apply(u)


def hbs_storage(H: HbsMatrix):
    """Exact stored-scalar count and the largest rank per level."""
    scalars = sum(M.size for M in H.D.values())
    scalars += sum(M.size for M in H.U.values())
    scalars += sum(M.size for M in H.V.values())
    scalars += sum(M.size for M in H.Atilde.values())
    return {"stored_scalars": scalars, "per_level_ranks": H.per_level_ranks()}
