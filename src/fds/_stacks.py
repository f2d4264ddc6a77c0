"""Level stacks: the blocks of one tree level in one (g, n, k) array, so
a structured apply is a few batched ``matmul`` calls per level, not one
small product per node. ``_Stack`` groups the same-shaped diagonal
blocks of a HODLR factor; ``Telescope`` holds a matrix in telescoping
form (an HBS matrix or its inverse), zero-padded to one stack per level.
"""

from dataclasses import dataclass

import numpy as np


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


def _left_multiply(stacks, y, x=None):
    """y <- B y in place, for the (N, r) array y and the block-diagonal
    factor B whose blocks ``stacks`` hold: blocks I + U V*, or dense
    leaf blocks U, which write B x into y when x is given."""
    for s in stacks:
        if s.V is None:
            xb = s.blocks(y if x is None else x)
            if s.rows is None:
                np.matmul(s.U, xb, out=s.blocks(y))
            else:
                y[s.rows] = s.U @ xb
            continue
        yb = s.blocks(y)
        yb += s.U @ (np.swapaxes(s.V.conj(), 1, 2) @ yb)
        if s.rows is not None:
            y[s.rows] = yb
    return y


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
    padding entry is zero, so padding never reaches a result. ``leaf``
    marks the real rows of the leaf stack when leaf sizes differ.
    """

    N: int
    rank: list  # rank[tau]: columns of W_tau and Z_tau (0 at the root)
    Wh: list
    Z: list
    B: list
    leaf: np.ndarray = None  # (2^depth, m) bool, or None for equal leaves

    @classmethod
    def zeros(cls, tree, rank, dtype):
        """All-zero stacks for ``tree``, with ``rank(tau)`` columns at
        every node below the root."""
        rank = [0, 0] + [rank(tau) for tau in range(2, tree.nnodes + 1)]
        k = [max(rank[2**ell:2 ** (ell + 1)]) for ell in range(tree.depth + 1)]
        sizes = np.array([tree.size(tau) for tau in tree.leaves()])
        m = [2 * kk for kk in k[1:]] + [int(sizes.max())]
        leaf = None if sizes.min() == sizes.max() else np.arange(m[-1]) < sizes[:, None]
        levels = [(2**ell, kk, mm) for ell, (kk, mm) in enumerate(zip(k, m))]
        Wh = [np.zeros((g, kk, mm), dtype) for g, kk, mm in levels]
        Z = [np.zeros((g, mm, kk), dtype) for g, kk, mm in levels]
        B = [np.zeros((g, mm, mm), dtype) for g, kk, mm in levels]
        return cls(tree.N, rank, Wh, Z, B, leaf)

    def put(self, tau, W, Z, B):
        """Write node tau's unpadded blocks into its level's stacks."""
        ell = int(tau).bit_length() - 1
        if ell + 1 < len(self.B):  # a parent: its children's coefficient slots
            k, ka = self.Wh[ell + 1].shape[1], self.rank[2 * tau]
            p = np.r_[0:ka, k:k + self.rank[2 * tau + 1]]
        else:
            p = np.arange(len(B))
        j, r = tau - 2**ell, self.rank[tau]
        self.Wh[ell][j][:r, p] = W.conj().T
        self.Z[ell][j][p, :r] = Z
        self.B[ell][j][np.ix_(p, p)] = B

    def apply(self, x):
        """M x for (N,) or (N, r) x: one batched product per level up,
        two per level down."""
        x, N = np.asarray(x), self.N
        if x.shape[0] != N:
            raise ValueError(f"vector length {x.shape[0]} != {N}")
        X = x.reshape(N, x[0].size)
        r = X.shape[1]
        if self.leaf is None:
            v = X.reshape(self.B[-1].shape[:2] + (r,))
        else:
            v = np.zeros(self.leaf.shape + (r,), X.dtype)
            v[self.leaf] = X
        vs = [v]
        for Wh in self.Wh[:0:-1]:
            vs.append((Wh @ vs[-1]).reshape(len(Wh) // 2, 2 * Wh.shape[1], r))
        out = np.zeros((1, 0, r))
        for Z, B, v in zip(self.Z, self.B, reversed(vs)):
            out = B @ v + Z @ out.reshape(len(Z), Z.shape[2], r)
        y = out.reshape(N, r) if self.leaf is None else out[self.leaf]
        return y.reshape(x.shape)
