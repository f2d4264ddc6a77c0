"""HODLR format: hierarchically off-diagonal low rank matrices.

A matrix is stored as one low-rank factor per off-diagonal sibling
block of a binary cluster tree (both orders kept independently) plus
dense leaf diagonal blocks. Two inverse representations are provided:

* ``invert_woodbury`` -- the recursive additive form
  A^{-1} = D^{-1} - D^{-1} W S^{-1} V* D^{-1} with S = I + V* D^{-1} W
  applied per node, kept as an apply-operator (never re-compressed, so
  exact up to the factorizations);
* ``invert_multiplicative`` -- the exact non-recursive product
  A^{-1} = B_0 B_1 ... B_L where each B_ell is block diagonal with
  identity-plus-low-rank blocks; off-diagonal ranks provably never grow
  during its construction.
"""

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .linalg import LowRankFactor, low_rank_approx, lu_factor_checked
from .tree import ClusterTree, sibling_pairs

__all__ = [
    "HodlrMatrix",
    "HodlrInverseWoodbury",
    "HodlrInverseMultiplicative",
    "compress_to_hodlr",
    "hodlr_matvec",
    "invert_woodbury",
    "recompress_inverse",
    "invert_multiplicative",
    "storage_report",
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
        return next(iter(self.leaf_diag.values())).dtype

    def max_rank(self) -> int:
        return max((f.rank for f in self.offdiag.values()), default=0)

    def todense(self) -> np.ndarray:
        A = np.zeros((self.N, self.N), dtype=self.dtype)
        for tau in self.tree.leaves():
            i = self.tree.index_range(tau)
            A[np.ix_(i, i)] = self.leaf_diag[tau]
        for (a, b), f in self.offdiag.items():
            A[np.ix_(self.tree.index_range(a), self.tree.index_range(b))] = f.todense()
        return A


def compress_to_hodlr(A, tree: ClusterTree, tol) -> HodlrMatrix:
    """Compress a dense square matrix against the given cluster tree.

    Every sibling block A(I_alpha, I_beta) is replaced by its truncated
    SVD at the block-relative tolerance; leaf diagonal blocks are copied
    verbatim.
    """
    A = np.asarray(A)
    if A.shape != (tree.N, tree.N):
        raise ValueError(f"matrix shape {A.shape} does not match tree over {tree.N}")
    offdiag = {}
    for alpha, beta in sibling_pairs(tree):
        ia, ib = tree.index_range(alpha), tree.index_range(beta)
        offdiag[(alpha, beta)] = low_rank_approx(A[np.ix_(ia, ib)], tol)
        offdiag[(beta, alpha)] = low_rank_approx(A[np.ix_(ib, ia)], tol)
    leaf_diag = {
        tau: A[np.ix_(tree.index_range(tau), tree.index_range(tau))].copy()
        for tau in tree.leaves()
    }
    return HodlrMatrix(tree=tree, offdiag=offdiag, leaf_diag=leaf_diag, tol=tol)


def hodlr_matvec(H: HodlrMatrix, x):
    """y = A x touching only the stored factors."""
    x = np.asarray(x)
    if x.shape[0] != H.N:
        raise ValueError(f"vector length {x.shape[0]} != {H.N}")
    y = np.zeros(x.shape, dtype=np.result_type(H.dtype, x.dtype))
    t = H.tree
    for tau in t.leaves():
        i = t.index_range(tau)
        y[i] = H.leaf_diag[tau] @ x[i]
    for (a, b), f in H.offdiag.items():
        y[t.index_range(a)] += f.matvec(x[t.index_range(b)])
    return y


# -- recursive (additive Woodbury) inverse ------------------------------------


@dataclass
class _WoodburyNode:
    # Y = blockdiag(A_aa, A_bb)^{-1} applied to the stacked off-diagonal
    # left factors; S_lu is the LU of I + V* D^{-1} W
    Ya: np.ndarray
    Yb: np.ndarray
    Va: np.ndarray
    Vb: np.ndarray
    S_lu: tuple


@dataclass
class HodlrInverseWoodbury:
    tree: ClusterTree
    leaf_lu: dict
    nodes: dict  # non-leaf tau -> _WoodburyNode

    def apply(self, x):
        x = np.asarray(x)
        if x.shape[0] != self.tree.N:
            raise ValueError(f"vector length {x.shape[0]} != {self.tree.N}")
        return self._apply(1, x)

    def _apply(self, tau, x):
        t = self.tree
        if t.is_leaf(tau):
            return scipy.linalg.lu_solve(self.leaf_lu[tau], x)
        alpha, beta = t.children(tau)
        na = t.size(alpha)
        nd = self.nodes[tau]
        da = self._apply(alpha, x[:na])
        db = self._apply(beta, x[na:])
        # S [s_a; s_b] = [V_a* d_a; V_b* d_b]; correction = [Y_a s_b; Y_b s_a]
        rhs = np.concatenate([nd.Va.conj().T @ da, nd.Vb.conj().T @ db])
        s = scipy.linalg.lu_solve(nd.S_lu, rhs)
        ka = nd.Va.shape[1]
        out = np.concatenate([da - nd.Ya @ s[ka:], db - nd.Yb @ s[:ka]])
        return out


def invert_woodbury(H: HodlrMatrix) -> HodlrInverseWoodbury:
    """Recursive Woodbury inverse, stored as an apply-operator.

    Per node, S = I + V* D^{-1} W is assembled from child inverse
    applies and LU-factored; the recursion bottoms out at dense leaf
    LUs. Raises naming the node when an S (or leaf block) is singular.
    """
    t = H.tree
    inv = HodlrInverseWoodbury(tree=t, leaf_lu={}, nodes={})
    for tau in t.leaves():
        inv.leaf_lu[tau] = lu_factor_checked(H.leaf_diag[tau], f"leaf diagonal block {tau}")
    # bottom-up so child applies are available
    for ell in range(t.depth - 1, -1, -1):
        for tau in t.nodes_at_level(ell):
            alpha, beta = t.children(tau)
            fab = H.offdiag[(alpha, beta)]
            fba = H.offdiag[(beta, alpha)]
            Ya = inv._apply(alpha, fab.U)  # A_aa^{-1} W_ab
            Yb = inv._apply(beta, fba.U)  # A_bb^{-1} W_ba
            ka, kb = fba.rank, fab.rank
            S = np.eye(ka + kb, dtype=np.result_type(Ya.dtype, Yb.dtype))
            S = S.astype(np.result_type(S.dtype, fab.V.dtype))
            S[:ka, ka:] = fba.V.conj().T @ Ya
            S[ka:, :ka] = fab.V.conj().T @ Yb
            inv.nodes[tau] = _WoodburyNode(
                Ya=Ya, Yb=Yb, Va=fba.V, Vb=fab.V,
                S_lu=lu_factor_checked(S, f"Woodbury core S at node {tau}"),
            )
    return inv


def recompress_inverse(inv: HodlrInverseWoodbury, tol) -> HodlrMatrix:
    """Optional post-hoc compression of the additive inverse into HODLR form.

    The exact inverse of a rank-k HODLR matrix is not rank-k HODLR (its
    off-diagonal ranks grow with the level count), so this step is a
    controlled approximation: the inverse is applied to identity block
    columns and the result compressed at ``tol``. Off by default
    everywhere else in the package; the apply-operator form stays exact.
    """
    N = inv.tree.N
    # identity block columns; the result takes the inverse's dtype
    dense = np.hstack([inv.apply(np.eye(N, min(64, N - start), -start))
                       for start in range(0, N, 64)])
    return compress_to_hodlr(dense, inv.tree, tol)


# -- multiplicative (non-recursive) inverse -----------------------------------


@dataclass
class HodlrInverseMultiplicative:
    """A^{-1} = B_0 B_1 ... B_L, each factor block diagonal.

    ``leaf_inverses`` holds the dense blocks of B_L; ``level_blocks[ell]``
    maps node tau at level ell to the identity-plus-low-rank correction
    of its block of B_ell.
    """

    tree: ClusterTree
    leaf_inverses: dict  # tau -> dense inverse of the leaf block
    level_blocks: dict  # ell -> {tau: LowRankFactor}, block = I + U V*

    @property
    def nfactors(self) -> int:
        return self.tree.depth + 1

    def apply(self, x):
        x = np.asarray(x)
        if x.shape[0] != self.tree.N:
            raise ValueError(f"vector length {x.shape[0]} != {self.tree.N}")
        t = self.tree
        y = np.zeros(x.shape, dtype=np.result_type(x.dtype, *(m.dtype for m in self.leaf_inverses.values())))
        for tau in t.leaves():
            i = t.index_range(tau)
            y[i] = self.leaf_inverses[tau] @ x[i]
        for ell in range(t.depth - 1, -1, -1):
            for tau, corr in self.level_blocks[ell].items():
                i = t.index_range(tau)
                y[i] += corr.matvec(y[i])
        return y


def invert_multiplicative(H: HodlrMatrix) -> HodlrInverseMultiplicative:
    """Exact multiplicative inverse B_0 ... B_L of a HODLR matrix.

    B_L collects the dense leaf inverses. Each coarser sweep inverts
    the identity-plus-low-rank diagonal blocks [[I, A'_ab], [A'_ba, I]]
    through the small-core identity (I + U V*)^{-1} = I - U (I + V* U)^{-1} V*
    and left-multiplies the running matrix, which only updates the left
    factors of the remaining off-diagonal blocks: their ranks never
    change. The off-diagonal factor updates are done in place on a
    working copy.
    """
    t = H.tree
    work = {key: (f.U.copy(), f.V) for key, f in H.offdiag.items()}

    def update_left_factors(ell_active, apply_block):
        """Left-multiply every remaining off-diagonal block by B_ell."""
        for (a, b), (U, _) in work.items():
            if t.level(a) > ell_active:
                continue  # already consumed into a diagonal block
            ia = t.index_range(a)
            start = ia[0]
            # B_ell blocks whose range intersects I_a (they tile it)
            for tau in t.nodes_at_level(ell_active):
                lo, hi = t.ranges[tau]
                if lo >= ia[-1] + 1 or hi <= start:
                    continue
                sl = slice(lo - start, hi - start)
                U[sl] = apply_block(tau, U[sl])

    leaf_inverses = {}
    for tau in t.leaves():
        lu, piv = lu_factor_checked(H.leaf_diag[tau], f"leaf diagonal block {tau}")
        leaf_inverses[tau] = scipy.linalg.lu_solve((lu, piv), np.eye(len(piv)))
    update_left_factors(t.depth, lambda tau, M: leaf_inverses[tau] @ M)

    level_blocks = {}
    for ell in range(t.depth - 1, -1, -1):
        blocks = {}
        for tau in t.nodes_at_level(ell):
            alpha, beta = t.children(tau)
            Uab, Vab = work.pop((alpha, beta))
            Uba, Vba = work.pop((beta, alpha))
            na = t.size(alpha)
            n = t.size(tau)
            k1, k2 = Uab.shape[1], Uba.shape[1]
            dtype = np.result_type(Uab.dtype, Uba.dtype)
            # diagonal block is I + Uc Vc* with the children's factors stacked
            Uc = np.zeros((n, k1 + k2), dtype=dtype)
            Uc[:na, :k1] = Uab
            Uc[na:, k1:] = Uba
            Vc = np.zeros((n, k1 + k2), dtype=dtype)
            Vc[na:, :k1] = Vab
            Vc[:na, k1:] = Vba
            core = np.eye(k1 + k2, dtype=dtype) + Vc.conj().T @ Uc
            core_lu = lu_factor_checked(core, f"identity-plus-low-rank core at node {tau}")
            corr_U = -scipy.linalg.lu_solve(core_lu, Uc.T, trans=1).T  # -Uc core^{-1}
            blocks[tau] = LowRankFactor(corr_U, Vc)
        level_blocks[ell] = blocks

        def apply_block(tau, M, blocks=blocks):
            return M + blocks[tau].matvec(M)

        update_left_factors(ell, apply_block)

    return HodlrInverseMultiplicative(
        tree=t, leaf_inverses=leaf_inverses, level_blocks=level_blocks
    )


def storage_report(obj):
    """Exact stored-scalar count and maximum factor rank of a built object."""
    if isinstance(obj, HodlrMatrix):
        scalars = sum(D.size for D in obj.leaf_diag.values())
        scalars += sum(f.storage() for f in obj.offdiag.values())
        return {"stored_scalars": scalars, "max_rank": obj.max_rank()}
    if isinstance(obj, HodlrInverseWoodbury):
        scalars = sum(lu.size for lu, _ in obj.leaf_lu.values())
        ranks = [0]
        for nd in obj.nodes.values():
            scalars += nd.Ya.size + nd.Yb.size + nd.Va.size + nd.Vb.size
            scalars += nd.S_lu[0].size
            ranks.append(max(nd.Va.shape[1], nd.Vb.shape[1]))
        return {"stored_scalars": scalars, "max_rank": max(ranks)}
    if isinstance(obj, HodlrInverseMultiplicative):
        scalars = sum(M.size for M in obj.leaf_inverses.values())
        ranks = [0]
        for blocks in obj.level_blocks.values():
            for f in blocks.values():
                scalars += f.storage()
                ranks.append(f.rank)
        return {"stored_scalars": scalars, "max_rank": max(ranks)}
    raise TypeError(f"no storage report for {type(obj).__name__}")
