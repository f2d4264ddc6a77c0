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
  during its construction. The blocks of each factor are kept as
  stacks of equal shape, so its apply is one batched product per
  stack: depth + 1 of them on a tree whose levels have one block size
  and rank, O(N (leaf + rank)) flops in all.

Blocks are addressed through slices of ``tree.ranges``, never gathered.
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
        r = self.tree.ranges
        for tau in self.tree.leaves():
            A[slice(*r[tau]), slice(*r[tau])] = self.leaf_diag[tau]
        for (a, b), f in self.offdiag.items():
            A[slice(*r[a]), slice(*r[b])] = f.todense()
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
class _Stack:
    """Same-shaped diagonal blocks of one factor B_ell, stacked on axis 0.

    Block j acts on rows ``rows[j]`` of the vector. ``rows`` is None when
    the stack is the whole level and its blocks tile range(N) in order:
    the blocks are then a reshape view of the vector.
    """

    nodes: list  # node ids, one per block
    rows: np.ndarray  # (g, n) row indices, or None
    U: np.ndarray  # (g, n, n) leaf inverses, or (g, n, k) left factors
    V: np.ndarray = None  # (g, n, k) right factors; the block is I + U V*

    def blocks(self, y):
        """The (g, n, r) blocks of y: a view, or a gathered copy."""
        if self.rows is None:
            return y.reshape(self.U.shape[:2] + y.shape[1:])
        return y[self.rows]


def _stack(t, nodes, arrays):
    """One _Stack per distinct block shape among ``nodes``, in node order;
    ``arrays(tau)`` gives the node's (U,) or (U, V) pair."""
    shapes = {}
    for tau in nodes:
        shapes.setdefault(tuple(a.shape for a in arrays(tau)), []).append(tau)
    out = []
    for members in shapes.values():
        rows = None
        if len(shapes) > 1:
            rows = np.array([np.arange(*t.ranges[tau]) for tau in members])
        out.append(_Stack(members, rows, *(np.stack(s) for s in zip(*map(arrays, members)))))
    return out


@dataclass
class HodlrInverseMultiplicative:
    """A^{-1} = B_0 B_1 ... B_L, each factor block diagonal.

    B_L is ``leaf_stacks``: the dense leaf inverses, stacked by block
    size. Each coarser B_ell is ``level_stacks[ell]``: its
    identity-plus-low-rank blocks I + U V*, stacked by (block size,
    rank). ``apply`` takes (N,) or (N, r) right-hand sides and runs one
    batched ``matmul`` per stack, leaves first: O(N (leaf + rank) r)
    flops and depth + 1 batched products on a tree whose levels each
    have one block size and rank (a stack covering its whole level
    works on a reshape view of the vector; the others gather and
    scatter their rows). ``leaf_inverses`` and ``level_blocks`` give
    the per-node blocks as views into the stacks.
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
        x2, y2 = x.reshape(len(x), -1), y.reshape(len(y), -1)
        for s in self.leaf_stacks:
            if s.rows is None:
                np.matmul(s.U, s.blocks(x2), out=s.blocks(y2))
            else:
                y2[s.rows] = s.U @ s.blocks(x2)
        for ell in range(self.tree.depth - 1, -1, -1):
            for s in self.level_stacks[ell]:
                yb = s.blocks(y2)
                yb += s.U @ (np.swapaxes(s.V.conj(), 1, 2) @ yb)
                if s.rows is not None:
                    y2[s.rows] = yb
        return y


def invert_multiplicative(H: HodlrMatrix) -> HodlrInverseMultiplicative:
    """Exact multiplicative inverse B_0 ... B_L of a HODLR matrix.

    B_L collects the dense leaf inverses. Each coarser sweep inverts
    the identity-plus-low-rank diagonal blocks [[I, A'_ab], [A'_ba, I]]
    through the small-core identity (I + U V*)^{-1} = I - U (I + V* U)^{-1} V*
    and left-multiplies the running matrix, which only updates the left
    factors of the remaining off-diagonal blocks: their ranks never
    change. The off-diagonal factor updates are done in place on a
    working copy. The blocks of each factor are then stacked by shape.
    """
    t = H.tree
    work = {key: (f.U.copy(), f.V) for key, f in H.offdiag.items()}

    def update_left_factors(ell_active, apply_block):
        """Left-multiply every remaining off-diagonal block by B_ell."""
        for (a, b), (U, _) in work.items():
            d = ell_active - t.level(a)
            if d < 0:
                continue  # already consumed into a diagonal block
            start = t.ranges[a][0]
            # the B_ell blocks of a's descendants at level ell tile I_a
            for tau in range(a << d, (a + 1) << d):
                lo, hi = t.ranges[tau]
                sl = slice(lo - start, hi - start)
                U[sl] = apply_block(tau, U[sl])

    leaf_inverses = {}
    for tau in t.leaves():
        lu, piv = lu_factor_checked(H.leaf_diag[tau], f"leaf diagonal block {tau}")
        leaf_inverses[tau] = scipy.linalg.lu_solve((lu, piv), np.eye(len(piv)))
    update_left_factors(t.depth, lambda tau, M: leaf_inverses[tau] @ M)

    level_stacks = {}
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
        level_stacks[ell] = _stack(t, t.nodes_at_level(ell),
                                   lambda tau: (blocks[tau].U, blocks[tau].V))

        def apply_block(tau, M, blocks=blocks):
            return M + blocks[tau].matvec(M)

        update_left_factors(ell, apply_block)

    return HodlrInverseMultiplicative(
        tree=t, leaf_stacks=_stack(t, t.leaves(), lambda tau: (leaf_inverses[tau],)),
        level_stacks=level_stacks,
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
        levels = [s for stacks in obj.level_stacks.values() for s in stacks]
        scalars = sum(s.U.size for s in obj.leaf_stacks)
        scalars += sum(s.U.size + s.V.size for s in levels)
        return {"stored_scalars": scalars,
                "max_rank": max((s.U.shape[2] for s in levels), default=0)}
    raise TypeError(f"no storage report for {type(obj).__name__}")
