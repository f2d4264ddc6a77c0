"""Level stacks: the blocks of one tree level in one (g, n, k) array, so
a structured apply is a few batched ``matmul`` calls per level, not one
small product per node.

``Layout`` pads every leaf to the largest leaf size m. Node j of level
ell then owns padded rows [j n, (j + 1) n), n = 2^(depth - ell) m, so a
level's blocks, zero-padded to its largest rank, are one stack acting
on a reshape view of the padded vector. A HODLR matrix, its inverse
and ``Telescope`` (an HBS matrix or its inverse) all use it.
"""

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Layout:
    """range(N) padded leaf by leaf to m rows, each leaf's rows first.
    ``leaf`` (2^depth, m) marks the real rows; it is None when every leaf
    has m rows, and padding is then a reshape view."""

    N: int
    m: int
    leaf: np.ndarray

    @classmethod
    def of(cls, tree):
        sizes = np.array([tree.size(tau) for tau in tree.leaves()])
        m = int(sizes.max())
        return cls(tree.N, m, None if sizes.min() == m else np.arange(m) < sizes[:, None])

    def pad(self, x):
        """(N,) or (N, r) x as the (2^depth, m, r) padded leaf stack; any
        other shape raises ValueError."""
        if x.shape[:1] != (self.N,) or x.ndim > 2:
            raise ValueError(f"right-hand side shape {x.shape} is not ({self.N},) "
                             f"or ({self.N}, r)")
        X = x.reshape(self.N, x[0].size)
        if self.leaf is None:
            return X.reshape(self.N // self.m, self.m, X.shape[1])
        v = np.zeros(self.leaf.shape + X.shape[1:], X.dtype)
        v[self.leaf] = X
        return v

    def unpad(self, v):
        """The (N, r) real rows of a padded array whose last axis has r."""
        r = v.shape[-1]
        if self.leaf is None:
            return v.reshape(self.N, r)
        return v.reshape(self.leaf.shape + (r,))[self.leaf]


@dataclass
class Telescope:
    """M in telescoping form, one zero-padded stack per tree level.

    Node tau of level ell has an upward basis W_tau, a downward basis
    Z_tau (both none at the root) and its own block B_tau, acting on
    v_tau: its rows of x at a leaf, its children's coefficients
    [W_a* v_a; W_b* v_b] at a parent. Upward, W_tau* v_tau goes to the
    parent; downward, B_tau v_tau + Z_tau q_tau is split over the
    children as their q, or is the leaf's rows of M x.

    Level ell stores ``Wh[ell]`` (2^ell, k, m) = W*, ``Z[ell]`` (2^ell,
    m, k) and ``B[ell]`` (2^ell, m, m), with k the level's largest rank
    and m the largest leaf size (leaves) or twice the children's k: a
    child's coefficients fill the first of its k slots, and every
    padding entry is zero, so padding never reaches a result. The leaf
    level's rows follow ``layout``.
    """

    layout: Layout
    rank: list  # rank[tau]: columns of W_tau and Z_tau (0 at the root)
    Wh: list
    Z: list
    B: list

    @classmethod
    def zeros(cls, tree, rank, dtype):
        """All-zero stacks for ``tree``, with ``rank(tau)`` columns at
        every node below the root."""
        layout = Layout.of(tree)
        rank = [0, 0] + [rank(tau) for tau in range(2, tree.nnodes + 1)]
        k = [max(rank[2**ell:2 ** (ell + 1)]) for ell in range(tree.depth + 1)]
        m = [2 * kk for kk in k[1:]] + [layout.m]
        levels = [(2**ell, kk, mm) for ell, (kk, mm) in enumerate(zip(k, m))]
        Wh = [np.zeros((g, kk, mm), dtype) for g, kk, mm in levels]
        Z = [np.zeros((g, mm, kk), dtype) for g, kk, mm in levels]
        B = [np.zeros((g, mm, mm), dtype) for g, kk, mm in levels]
        return cls(layout, rank, Wh, Z, B)

    def _slots(self, tau):
        """Node tau's (W*, Z, B) padded blocks, its rank r and the rows p
        of those blocks that hold its unpadded ones: its children's
        coefficient slots at a parent, its real rows at a leaf."""
        ell = int(tau).bit_length() - 1
        j = tau - 2**ell
        if ell + 1 < len(self.B):
            k, ka = self.Wh[ell + 1].shape[1], self.rank[2 * tau]
            p = np.r_[0:ka, k:k + self.rank[2 * tau + 1]]
        else:
            p = np.arange(self.layout.m if self.layout.leaf is None else self.layout.leaf[j].sum())
        return self.Wh[ell][j], self.Z[ell][j], self.B[ell][j], self.rank[tau], p

    def put(self, tau, W, Z, B):
        """Write node tau's unpadded blocks into its level's stacks."""
        Wh, Zs, Bs, r, p = self._slots(tau)
        Wh[:r, p] = W.conj().T
        Zs[p, :r] = Z
        Bs[np.ix_(p, p)] = B

    def get(self, tau):
        """Node tau's unpadded (W, Z, B) as ``put`` wrote them, copied out."""
        Wh, Z, B, r, p = self._slots(tau)
        return Wh[:r, p].conj().T, Z[p, :r], B[np.ix_(p, p)]

    def apply(self, x):
        """M x for (N,) or (N, r) x: one batched product per level up,
        two per level down."""
        x = np.asarray(x)
        vs = [self.layout.pad(x)]
        r = vs[0].shape[2]
        for Wh in self.Wh[:0:-1]:
            vs.append((Wh @ vs[-1]).reshape(len(Wh) // 2, 2 * Wh.shape[1], r))
        out = np.zeros((1, 0, r))
        for Z, B, v in zip(self.Z, self.B, reversed(vs)):
            out = B @ v + Z @ out.reshape(len(Z), Z.shape[2], r)
        return self.layout.unpad(out).reshape(x.shape)
