"""HODLR format: hierarchically off-diagonal low rank matrices.

A matrix is stored as one low-rank factor per off-diagonal sibling
block of a binary cluster tree (both orders kept independently) plus
dense leaf diagonal blocks.

Its inverse, ``invert_multiplicative``, is the recursive Woodbury
formula unrolled into the exact product A^{-1} = B_0 B_1 ... B_L: B_L
holds the dense leaf inverses, and each coarser B_ell is block diagonal
with one identity-plus-low-rank block per node of level ell, the
node's Woodbury correction. Off-diagonal ranks never grow while it is
built. Each factor is one stack in the zero-padded level layout of
``_stacks.Layout`` (leaves padded to the largest leaf size, ranks to
the level's largest), so the apply is depth + 1 batched products,
O(N (leaf + rank)) flops in all.
"""

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from ._stacks import Layout
from .linalg import (_BLOCKS_HINT, LowRankFactor, SingularMatrixError, _check_input,
                     low_rank_approx, lu_factor_checked)
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

    Every sibling block A(I_alpha, I_beta) goes through
    ``low_rank_approx``: cross approximation, certified by a Gaussian
    sketch and recompressed to the truncated-SVD cut at the
    block-relative tolerance, or the SVD / range finder when the sketch
    refuses it. Leaf diagonal blocks are copied verbatim.

    Every entry is checked for finiteness once, and a non-finite one
    raises ValueError before any inverse is formed: leaf diagonal blocks
    as they are copied, sibling blocks by ``low_rank_approx``, whose
    certifying sketch reads every entry.
    """
    A = np.asarray(A)
    if A.shape != (tree.N, tree.N):
        raise ValueError(f"matrix shape {A.shape} does not match tree over {tree.N}")
    r = tree.ranges
    leaf_diag = {tau: _check_input(A[slice(*r[tau]), slice(*r[tau])], tol).copy()
                 for tau in tree.leaves()}
    offdiag = {}
    for alpha, beta in sibling_pairs(tree):
        sa, sb = slice(*r[alpha]), slice(*r[beta])
        offdiag[(alpha, beta)] = low_rank_approx(A[sa, sb], tol)
        offdiag[(beta, alpha)] = low_rank_approx(A[sb, sa], tol)
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
    """A^{-1} = B_0 B_1 ... B_L on zero-padded level stacks (``_stacks.Layout``).

    B_L is ``L``, the (2^depth, m, m) stack of leaf inverses. B_ell is
    I + U V* blockwise, with (2^ell, 2^(depth - ell) m, k_ell) stacks
    ``U[ell]`` and ``V[ell]``: node tau's factors fill its real rows and
    first ``rank[tau]`` columns, zeros the rest. ``apply`` runs one
    batched ``matmul`` per factor, leaves first; ``leaf_inverses`` and
    ``level_blocks`` give the unpadded per-node blocks.
    """

    tree: ClusterTree
    layout: Layout
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
                for ell, U, V in zip(range(t.depth), map(self.layout.unpad, self.U),
                                     map(self.layout.unpad, self.V))}

    def apply(self, x):
        return self._product(np.asarray(x), 0)

    def _product(self, x, top):
        """B_top ... B_L x, for (N,) or (N, r) x."""
        v = self.layout.pad(x)
        U, V = self.U[top:], self.V[top:]
        y = np.matmul(self.L, v, out=np.empty(v.shape, np.result_type(v, self.L, *U)))
        for Ul, Vl in zip(U[::-1], V[::-1]):
            yb = y.reshape(Ul.shape[:2] + y.shape[-1:])
            yb += Ul @ (np.swapaxes(Vl.conj(), 1, 2) @ yb)
        return self.layout.unpad(y).reshape(x.shape)


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

    So at level ell the build puts the left factors U_ab of level
    ell + 1's sibling blocks into one N x k_max panel (zero-padded
    columns stay zero) and multiplies it by B_{ell+1} ... B_L, the
    factors built so far, with the apply's own batched products. Only
    left factors change: the ranks never grow. A singular leaf block or
    core S raises SingularMatrixError naming the node.
    """
    t, r, dtype, layout = H.tree, H.tree.ranges, H.dtype, Layout.of(H.tree)
    # Fortran-ordered slots, the order lu_solve returns: the batched
    # products then round as the per-leaf products do
    L = np.zeros((2**t.depth, layout.m, layout.m),
                 np.result_type(float, *H.leaf_diag.values())).transpose(0, 2, 1)
    for tau, Lj in zip(t.leaves(), L):
        try:
            lu = lu_factor_checked(H.leaf_diag[tau], f"leaf diagonal block {tau}")
        except SingularMatrixError as exc:
            raise SingularMatrixError(f"{exc}{_BLOCKS_HINT}") from exc
        Lj[:len(lu[1]), :len(lu[1])] = scipy.linalg.lu_solve(lu, np.eye(len(lu[1])))

    rank = [0] * (t.nnodes + 1)
    for a, b in sibling_pairs(t):
        rank[a // 2] = H.offdiag[(a, b)].rank + H.offdiag[(b, a)].rank
    inv = HodlrInverseMultiplicative(t, layout, rank, L, [None] * t.depth, [None] * t.depth)
    for ell in range(t.depth - 1, -1, -1):
        Us = {a: H.offdiag[(a, a ^ 1)].U for a in t.nodes_at_level(ell + 1)}
        P = np.zeros((t.N, max(U.shape[1] for U in Us.values())), dtype=dtype)
        for a, U in Us.items():
            P[slice(*r[a]), :U.shape[1]] = U
        Y = inv._product(P, ell + 1)
        Ul = np.zeros((t.N, max(rank[2**ell:2 ** (ell + 1)])), dtype)
        Vl = np.zeros_like(Ul)
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
            Ul[slice(*r[tau]), :k1 + k2] = -scipy.linalg.lu_solve(S_lu, Uc.T, trans=1).T
            Vl[slice(*r[tau]), :k1 + k2] = Vc
        shape = (2**ell, len(L) * layout.m >> ell, Ul.shape[1])
        inv.U[ell], inv.V[ell] = layout.pad(Ul).reshape(shape), layout.pad(Vl).reshape(shape)
    return inv


def storage_report(obj):
    """Exact stored-scalar count and maximum factor rank of a built object."""
    if isinstance(obj, HodlrMatrix):
        scalars = sum(D.size for D in obj.leaf_diag.values())
        scalars += sum(f.storage() for f in obj.offdiag.values())
        return {"stored_scalars": scalars, "max_rank": obj.max_rank()}
    if isinstance(obj, HodlrInverseMultiplicative):
        t = obj.tree
        scalars = sum(t.size(tau) ** 2 for tau in t.leaves())
        scalars += sum(2 * t.size(tau) * obj.rank[tau] for tau in range(1, 2**t.depth))
        return {"stored_scalars": scalars, "max_rank": max(obj.rank)}
    raise TypeError(f"no storage report for {type(obj).__name__}")
