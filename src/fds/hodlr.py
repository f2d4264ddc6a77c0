"""HODLR format: hierarchically off-diagonal low rank matrices.

A matrix is stored once, in zero-padded level stacks on its tree's rows
(``ClusterTree.pad``): its dense leaf blocks, and per level the left and
right factors of its sibling blocks, in the order its inverse's Woodbury
corrections read them. The matvec is one batched product per level.

Its inverse, ``invert_multiplicative``, is the recursive Woodbury
formula unrolled into the exact product A^{-1} = B_0 B_1 ... B_L: B_L
holds the dense leaf inverses, and each coarser B_ell is block diagonal
with one identity-plus-low-rank block per node of level ell, the
node's Woodbury correction, whose right factor is the matrix's own.
Off-diagonal ranks never grow while it is built, and its apply is
depth + 1 batched products, O(N (leaf + rank)) flops in all.
"""

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .linalg import (_BLOCKS_HINT, LowRankFactor, SingularMatrixError, _check_input,
                     low_rank_approx, lu_factor_checked)
from .tree import ClusterTree

__all__ = [
    "HodlrMatrix", "HodlrInverseMultiplicative", "compress_to_hodlr", "hodlr_matvec",
    "invert_multiplicative", "storage_report",
]


@dataclass
class HodlrMatrix:
    """A HODLR matrix in zero-padded level stacks on ``tree``'s padded rows.

    ``rank[a]`` is the rank of A(I_a, I_sibling) (0 at the root), and
    ``D`` (2^depth, m, m) holds the leaf blocks. At level ell, node tau
    with children alpha, beta owns its rows of the (2^ell,
    2^(depth - ell) m, k_ell) stacks: blockdiag(U_ab, U_ba) in ``U[ell]``
    and [0, V_ba; V_ab, 0] in ``V[ell]``, A(I_alpha, I_beta) = U_ab V_ab*,
    the left child's columns first and zeros elsewhere.
    """

    tree: ClusterTree
    rank: list
    D: np.ndarray
    U: list  # U[ell], ell = 0 .. depth - 1
    V: list

    @property
    def N(self) -> int:
        return self.tree.N

    @property
    def dtype(self):
        return self.D.dtype

    def max_rank(self) -> int:
        return max(self.rank)

    def todense(self) -> np.ndarray:
        return hodlr_matvec(self, np.eye(self.N, dtype=self.dtype))


def compress_to_hodlr(A, tree: ClusterTree, tol) -> HodlrMatrix:
    """Compress a dense square matrix against the given cluster tree.

    Every sibling block A(I_alpha, I_beta) goes through
    ``low_rank_approx``: cross approximation, certified by a Gaussian
    sketch, or the range finder's sample when the sketch refuses it,
    recompressed to the truncated-SVD cut at the block-relative
    tolerance. Leaf diagonal blocks are copied verbatim. Each level's
    factors are written once, into its stacks.

    Every entry is checked for finiteness once, and a non-finite one
    raises ValueError before any inverse is formed: leaf diagonal blocks
    as they are copied, sibling blocks by ``low_rank_approx``, whose
    certifying sketch reads every entry.
    """
    A = np.asarray(A)
    if A.shape != (tree.N, tree.N):
        raise ValueError(f"matrix shape {A.shape} does not match tree over {tree.N}")
    t, r = tree, tree.ranges
    dtype = np.result_type(A, float)
    D = np.zeros((2**t.depth, t.m, t.m), dtype)
    for tau, Dj in zip(t.leaves(), D):
        Dj[:t.size(tau), :t.size(tau)] = _check_input(A[slice(*r[tau]), slice(*r[tau])], tol)
    rank, U, V = [0] * (t.nnodes + 1), [], []
    for ell in range(t.depth):
        kids = t.nodes_at_level(ell + 1)
        F = {a: low_rank_approx(A[slice(*r[a]), slice(*r[a ^ 1])], tol) for a in kids}
        rank[kids.start:kids.stop] = [F[a].rank for a in kids]
        Ul = np.zeros((t.N, max(rank[a] + rank[a ^ 1] for a in kids)), dtype)
        Vl = np.zeros_like(Ul)
        for a in kids:  # the left child's columns first
            c = rank[a - 1] if a % 2 else 0
            Ul[slice(*r[a]), c:c + rank[a]] = F[a].U
            Vl[slice(*r[a ^ 1]), c:c + rank[a]] = F[a].V
        shape = (2**ell, len(D) * t.m >> ell, Ul.shape[1])
        U.append(t.pad(Ul).reshape(shape))
        V.append(t.pad(Vl).reshape(shape))
    return HodlrMatrix(tree=t, rank=rank, D=D, U=U, V=V)


def hodlr_matvec(H: HodlrMatrix, x):
    """y = A x for (N,) or (N, r) x: the leaf blocks, then one batched
    U (V* x) per level."""
    x = np.asarray(x)
    v = H.tree.pad(x)
    y = H.D @ v
    for U, V in zip(H.U, H.V):
        shape = U.shape[:2] + v.shape[-1:]
        yb = y.reshape(shape)
        yb += U @ (np.swapaxes(V.conj(), 1, 2) @ v.reshape(shape))
    return H.tree.unpad(y).reshape(x.shape)


# -- multiplicative inverse ---------------------------------------------------


@dataclass
class HodlrInverseMultiplicative:
    """A^{-1} = B_0 B_1 ... B_L on zero-padded level stacks (``ClusterTree.pad``).

    B_L is ``L``, the (2^depth, m, m) stack of leaf inverses. B_ell is
    I + U V* blockwise, with (2^ell, 2^(depth - ell) m, k_ell) stacks
    ``U[ell]`` and ``V[ell]``: node tau's factors fill its real rows and
    first ``rank[tau]`` columns, zeros the rest; ``V`` is the HODLR
    matrix's own, shared. ``apply`` runs one
    batched ``matmul`` per factor, leaves first; ``leaf_inverses`` and
    ``level_blocks`` give the unpadded per-node blocks.
    """

    tree: ClusterTree
    rank: list  # rank[tau]: columns of node tau's factors (0 at the leaves)
    L: np.ndarray
    U: list  # U[ell], ell = 0 .. depth - 1
    V: list

    @property
    def nfactors(self) -> int:
        return self.tree.depth + 1

    @property
    def leaf_inverses(self):
        """Leaf tau -> dense inverse of its diagonal block (a view)."""
        t = self.tree
        return {tau: Lj[:t.size(tau), :t.size(tau)] for tau, Lj in zip(t.leaves(), self.L)}

    @property
    def level_blocks(self):
        """ell -> {tau: LowRankFactor}; B_ell's block at tau is I + U V*."""
        t, r, k = self.tree, self.tree.ranges, self.rank
        return {ell: {tau: LowRankFactor(U[slice(*r[tau]), :k[tau]], V[slice(*r[tau]), :k[tau]])
                      for tau in t.nodes_at_level(ell)}
                for ell, U, V in zip(range(t.depth), map(t.unpad, self.U), map(t.unpad, self.V))}

    def apply(self, x):
        x = np.asarray(x)
        return self.tree.unpad(self._product(self.tree.pad(x), 0)).reshape(x.shape)

    def _product(self, v, top):
        """B_top ... B_L v for a padded (2^depth, m, r) leaf stack v."""
        U, V = self.U[top:], self.V[top:]
        y = np.matmul(self.L, v, out=np.empty(v.shape, np.result_type(v, self.L, *U)))
        for Ul, Vl in zip(U[::-1], V[::-1]):
            yb = y.reshape(Ul.shape[:2] + y.shape[-1:])
            yb += Ul @ (np.swapaxes(Vl.conj(), 1, 2) @ yb)
        return y


def invert_multiplicative(H: HodlrMatrix) -> HodlrInverseMultiplicative:
    """Exact multiplicative inverse B_0 ... B_L of a HODLR matrix.

    At a node tau of level ell with children alpha, beta, write the
    diagonal block A_tau = D + W Vc* with D = blockdiag(A_alpha, A_beta),
    W = blockdiag(U_ab, U_ba) and Vc = [0, V_ba; V_ab, 0], node tau's
    blocks of ``H.U[ell]`` and ``H.V[ell]``. The Woodbury formula gives

        A_tau^{-1} = (I - Y S^{-1} Vc*) D^{-1},  Y = D^{-1} W,  S = I + Vc* Y,

    and recursing into D^{-1} turns A^{-1} into the product of these
    corrections, one block diagonal factor B_ell per level, with the
    dense leaf inverses as B_L. B_ell's block at tau is I + U Vc* with
    U = -Y S^{-1}, and Y is B_{ell+1} ... B_L applied to W.

    So at level ell the build applies the factors built so far to the
    stack ``H.U[ell]`` with the apply's own batched products, forms every
    core S in one more, and LU-factors each node's unpadded S. Only left
    factors are new: the inverse's V is ``H.V``, shared, H is left as it
    was, and the ranks never grow. A singular leaf block or core S raises
    SingularMatrixError naming the node.
    """
    t = H.tree
    # Fortran-ordered slots, the order lu_solve returns: the batched
    # products then round as the per-leaf products do
    L = np.zeros(H.D.shape, np.result_type(float, H.D)).transpose(0, 2, 1)
    for tau, Dj, Lj in zip(t.leaves(), H.D, L):
        try:
            lu = lu_factor_checked(Dj[:t.size(tau), :t.size(tau)], f"leaf diagonal block {tau}")
        except SingularMatrixError as exc:
            raise SingularMatrixError(f"{exc}{_BLOCKS_HINT}") from exc
        Lj[:len(lu[1]), :len(lu[1])] = scipy.linalg.lu_solve(lu, np.eye(len(lu[1])))

    rank = [0] * (t.nnodes + 1)
    rank[1:2**t.depth] = [sum(H.rank[2 * tau:2 * tau + 2]) for tau in range(1, 2**t.depth)]
    inv = HodlrInverseMultiplicative(t, rank, L, [None] * t.depth, list(H.V))
    for ell in range(t.depth - 1, -1, -1):
        W = H.U[ell]
        Y = inv._product(W.reshape(L.shape[:2] + W.shape[2:]), ell + 1).reshape(W.shape)
        S = np.swapaxes(H.V[ell].conj(), 1, 2) @ Y
        S += np.eye(S.shape[1])
        inv.U[ell] = Ul = np.zeros(Y.shape, Y.dtype)
        for tau, Sj, Yj, Uj in zip(t.nodes_at_level(ell), S, Y, Ul):
            k = rank[tau]
            S_lu = lu_factor_checked(Sj[:k, :k], f"identity-plus-low-rank core at node {tau}")
            Uj[:, :k] = -scipy.linalg.lu_solve(S_lu, Yj[:, :k].T, trans=1).T
    return inv


def storage_report(obj):
    """Exact stored-scalar count and maximum factor rank of a built object,
    counted from its ranks: the unpadded blocks, not the stacks."""
    if not isinstance(obj, (HodlrMatrix, HodlrInverseMultiplicative)):
        raise TypeError(f"no storage report for {type(obj).__name__}")
    t, k = obj.tree, obj.rank
    scalars = sum(t.size(tau) ** 2 for tau in t.leaves())
    if isinstance(obj, HodlrMatrix):
        scalars += sum(k[a] * (t.size(a) + t.size(a ^ 1)) for a in range(2, t.nnodes + 1))
    else:
        scalars += sum(2 * t.size(tau) * k[tau] for tau in range(1, 2**t.depth))
    return {"stored_scalars": scalars, "max_rank": max(k)}
