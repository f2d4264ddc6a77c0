"""HODLR format: hierarchically off-diagonal low rank matrices.

A matrix is stored as one low-rank factor per off-diagonal sibling
block of a binary cluster tree (both orders kept independently) plus
dense leaf diagonal blocks.

Its inverse, ``invert_multiplicative``, is the recursive Woodbury
formula unrolled into the exact product A^{-1} = B_0 B_1 ... B_L: B_L
holds the dense leaf inverses, and each coarser B_ell is block diagonal
with one identity-plus-low-rank block per node of level ell, the
node's Woodbury correction. Off-diagonal ranks never grow while it is
built. The blocks of each factor are kept as stacks of equal shape, so
the apply is one batched product per stack: depth + 1 of them on a
tree whose levels have one block size and rank, O(N (leaf + rank))
flops in all.
"""

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from ._stacks import _left_multiply, _stack
from .linalg import (_BLOCKS_HINT, LowRankFactor, SingularMatrixError, low_rank_approx,
                     lu_factor_checked)
from .tree import ClusterTree, sibling_pairs

__all__ = [
    "HodlrMatrix", "HodlrInverseMultiplicative", "compress_to_hodlr", "hodlr_matvec",
    "invert_multiplicative", "storage_report",
]


@dataclass
class HodlrMatrix:
    tree: ClusterTree
    offdiag: dict  # (alpha, beta) -> LowRankFactor, both orders per sibling pair
    leaf_diag: dict  # leaf tau -> dense block
    tol: float

    @property
    def N(self) -> int:
        return self.tree.N

    @property
    def dtype(self):
        return np.result_type(*{M.dtype for M in self.leaf_diag.values()},
                              *{M.dtype for f in self.offdiag.values() for M in (f.U, f.V)})

    def max_rank(self) -> int:
        return max((f.rank for f in self.offdiag.values()), default=0)

    def todense(self) -> np.ndarray:
        return hodlr_matvec(self, np.eye(self.N, dtype=self.dtype))


def compress_to_hodlr(A, tree: ClusterTree, tol) -> HodlrMatrix:
    """Compress a dense square matrix against the given cluster tree.

    Every sibling block A(I_alpha, I_beta) is replaced by its truncated
    SVD at the block-relative tolerance; leaf diagonal blocks are copied
    verbatim.
    """
    A = np.asarray(A)
    if A.shape != (tree.N, tree.N):
        raise ValueError(f"matrix shape {A.shape} does not match tree over {tree.N}")
    r = tree.ranges
    offdiag = {}
    for alpha, beta in sibling_pairs(tree):
        sa, sb = slice(*r[alpha]), slice(*r[beta])
        offdiag[(alpha, beta)] = low_rank_approx(A[sa, sb], tol)
        offdiag[(beta, alpha)] = low_rank_approx(A[sb, sa], tol)
    leaf_diag = {tau: A[slice(*r[tau]), slice(*r[tau])].copy() for tau in tree.leaves()}
    return HodlrMatrix(tree=tree, offdiag=offdiag, leaf_diag=leaf_diag, tol=tol)


def hodlr_matvec(H: HodlrMatrix, x):
    """y = A x touching only the stored factors."""
    x = np.asarray(x)
    if x.shape[0] != H.N:
        raise ValueError(f"vector length {x.shape[0]} != {H.N}")
    y = np.zeros(x.shape, dtype=np.result_type(H.dtype, x.dtype))
    r = H.tree.ranges
    for tau in H.tree.leaves():
        y[slice(*r[tau])] = H.leaf_diag[tau] @ x[slice(*r[tau])]
    for (a, b), f in H.offdiag.items():
        y[slice(*r[a])] += f.matvec(x[slice(*r[b])])
    return y


# -- multiplicative inverse ---------------------------------------------------


@dataclass
class HodlrInverseMultiplicative:
    """A^{-1} = B_0 B_1 ... B_L, each factor block diagonal.

    B_L is ``leaf_stacks``: the dense leaf inverses, stacked by block
    size. Each coarser B_ell is ``level_stacks[ell]``: its
    identity-plus-low-rank blocks I + U V*, stacked by (block size,
    rank). ``apply`` takes (N,) or (N, r) right-hand sides and runs one
    batched ``matmul`` per stack, leaves first. ``leaf_inverses`` and
    ``level_blocks`` give the per-node blocks as views into the stacks.
    """

    tree: ClusterTree
    leaf_stacks: list  # _Stack of (g, n, n) leaf inverses
    level_stacks: dict  # ell -> [_Stack of (U, V) factors]

    @property
    def nfactors(self) -> int:
        return self.tree.depth + 1

    @property
    def leaf_inverses(self):
        """Leaf tau -> dense inverse of its diagonal block."""
        return {tau: s.U[j] for s in self.leaf_stacks for j, tau in enumerate(s.nodes)}

    @property
    def level_blocks(self):
        """ell -> {tau: LowRankFactor}; B_ell's block at tau is I + U V*."""
        return {ell: {tau: LowRankFactor(s.U[j], s.V[j])
                      for s in stacks for j, tau in enumerate(s.nodes)}
                for ell, stacks in self.level_stacks.items()}

    def apply(self, x):
        x = np.asarray(x)
        if x.shape[0] != self.tree.N:
            raise ValueError(f"vector length {x.shape[0]} != {self.tree.N}")
        stacks = self.leaf_stacks + [s for ss in self.level_stacks.values() for s in ss]
        y = np.empty(x.shape, dtype=np.result_type(x.dtype, *(s.U.dtype for s in stacks)))
        y2 = _left_multiply(self.leaf_stacks, y.reshape(len(y), -1), x.reshape(len(x), -1))
        for ell in range(self.tree.depth - 1, -1, -1):
            _left_multiply(self.level_stacks[ell], y2)
        return y


def invert_multiplicative(H: HodlrMatrix) -> HodlrInverseMultiplicative:
    """Exact multiplicative inverse B_0 ... B_L of a HODLR matrix.

    At a node tau of level ell with children alpha, beta, write the
    diagonal block A_tau = D + W Vc* with D = blockdiag(A_alpha, A_beta),
    W = blockdiag(U_ab, U_ba) and Vc holding V_ab in rows I_beta and
    V_ba in rows I_alpha. The Woodbury formula gives

        A_tau^{-1} = (I - Y S^{-1} Vc*) D^{-1},  Y = D^{-1} W,  S = I + Vc* Y,

    and recursing into D^{-1} turns A^{-1} into the product of these
    corrections, one block diagonal factor B_ell per level, with the
    dense leaf inverses as B_L. B_ell's block at tau is I + U Vc* with
    U = -Y S^{-1}, and Y is B_{ell+1} ... B_L applied to W.

    So the build keeps, per level m, the left factors U_ab of its
    sibling blocks as one N x k_max row panel (zero-padded columns stay
    zero). Once B_L and then each coarser factor is stacked, every panel
    still waiting for its level is left-multiplied by it with the
    apply's own batched product. Only left factors change: the ranks
    never grow. A singular leaf block or core S raises
    SingularMatrixError naming the node.
    """
    t, r, dtype = H.tree, H.tree.ranges, H.dtype
    leaf_inverses = {}
    for tau in t.leaves():
        try:
            lu = lu_factor_checked(H.leaf_diag[tau], f"leaf diagonal block {tau}")
        except SingularMatrixError as exc:
            raise SingularMatrixError(f"{exc}{_BLOCKS_HINT}") from exc
        leaf_inverses[tau] = scipy.linalg.lu_solve(lu, np.eye(len(lu[1])))
    leaf_stacks = _stack(t, t.leaves(), lambda tau: (leaf_inverses[tau],))

    panels = {}  # level m -> B_L times the (N, k_max) left factors of its sibling blocks
    for m in range(1, t.depth + 1):
        Us = {a: H.offdiag[(a, a ^ 1)].U for a in t.nodes_at_level(m)}
        P = np.zeros((t.N, max(U.shape[1] for U in Us.values())), dtype=dtype)
        for a, U in Us.items():
            P[slice(*r[a]), :U.shape[1]] = U
        panels[m] = _left_multiply(leaf_stacks, np.empty_like(P), P)

    level_stacks = {}
    for ell in range(t.depth - 1, -1, -1):
        Y = panels.pop(ell + 1)
        pairs = {}
        for tau in t.nodes_at_level(ell):
            alpha, beta = t.children(tau)
            Vab, Vba = H.offdiag[(alpha, beta)].V, H.offdiag[(beta, alpha)].V
            na, n = t.size(alpha), t.size(tau)
            k1, k2 = Vab.shape[1], Vba.shape[1]
            Uc = np.zeros((n, k1 + k2), dtype=dtype)
            Uc[:na, :k1] = Y[slice(*r[alpha]), :k1]
            Uc[na:, k1:] = Y[slice(*r[beta]), :k2]
            Vc = np.zeros((n, k1 + k2), dtype=dtype)
            Vc[na:, :k1] = Vab
            Vc[:na, k1:] = Vba
            S = np.eye(k1 + k2, dtype=dtype) + Vc.conj().T @ Uc
            S_lu = lu_factor_checked(S, f"identity-plus-low-rank core at node {tau}")
            pairs[tau] = (-scipy.linalg.lu_solve(S_lu, Uc.T, trans=1).T, Vc)  # -Y S^{-1}
        level_stacks[ell] = _stack(t, t.nodes_at_level(ell), pairs.__getitem__)
        for P in panels.values():
            _left_multiply(level_stacks[ell], P)

    return HodlrInverseMultiplicative(t, leaf_stacks, level_stacks)


def storage_report(obj):
    """Exact stored-scalar count and maximum factor rank of a built object."""
    if isinstance(obj, HodlrMatrix):
        scalars = sum(D.size for D in obj.leaf_diag.values())
        scalars += sum(f.storage() for f in obj.offdiag.values())
        return {"stored_scalars": scalars, "max_rank": obj.max_rank()}
    if isinstance(obj, HodlrInverseMultiplicative):
        levels = [s for stacks in obj.level_stacks.values() for s in stacks]
        scalars = sum(s.U.size for s in obj.leaf_stacks)
        scalars += sum(s.U.size + s.V.size for s in levels)
        return {"stored_scalars": scalars,
                "max_rank": max((s.U.shape[2] for s in levels), default=0)}
    raise TypeError(f"no storage report for {type(obj).__name__}")
