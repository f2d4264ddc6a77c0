"""Binary cluster tree over the index vector 0..N-1.

Nodes carry the breadth-first ids of a complete binary tree: the root is
tau = 1 and the children of tau are 2*tau and 2*tau + 1, so siblings are
(2*tau, 2*tau + 1) and level ell holds the ids [2^ell, 2^{ell+1}).
Every node owns a contiguous half-open index range; splits are as even
as possible with the left child taking the extra element.

The tree also fixes the padded row layout of the level stacks in which
the HODLR and HBS formats hold each tree level's blocks, one (g, n, k)
array per level, so an apply is a few batched ``matmul`` calls per
level. Every leaf is padded to the largest leaf size m, its real rows
first; node j of level ell then owns padded rows [j n, (j + 1) n),
n = 2^(depth - ell) m.
"""

from dataclasses import dataclass, field

import numpy as np

from .linalg import _check_rhs

__all__ = ["ClusterTree", "build_uniform_tree", "sibling_pairs"]


@dataclass(frozen=True)
class ClusterTree:
    """Uniform binary partition of range(N) of depth ``depth``."""

    N: int
    depth: int
    # ranges[tau] = (start, stop) for node ids 1 .. 2^{depth+1}-1
    ranges: dict
    m: int  # the largest leaf size
    # (2^depth, m) mask of each leaf's real rows, None when every leaf has
    # m rows (padding is then a reshape view); == skips it, as ranges fix it
    leaf: np.ndarray = field(compare=False)

    @property
    def nnodes(self) -> int:
        return 2 ** (self.depth + 1) - 1

    def level(self, tau: int) -> int:
        return int(tau).bit_length() - 1

    def is_leaf(self, tau: int) -> bool:
        return self.level(tau) == self.depth

    def children(self, tau: int):
        return (2 * tau, 2 * tau + 1) if not self.is_leaf(tau) else None

    def parent(self, tau: int):
        return tau // 2 if tau > 1 else None

    def index_range(self, tau: int) -> np.ndarray:
        start, stop = self.ranges[tau]
        return np.arange(start, stop)

    def size(self, tau: int) -> int:
        start, stop = self.ranges[tau]
        return stop - start

    def nodes_at_level(self, ell: int):
        return range(2**ell, 2 ** (ell + 1))

    def leaves(self):
        return self.nodes_at_level(self.depth)

    def pad(self, x):
        """(N,) or (N, r) x as the (2^depth, m, r) padded leaf stack; any
        other shape raises ValueError."""
        x = _check_rhs(x, self.N)
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


def build_uniform_tree(N, leaf_size) -> ClusterTree:
    """Complete binary tree with depth max(0, floor(log2(N / leaf_size))).

    Leaf sizes land in [leaf_size, 2*leaf_size). A leaf_size larger than
    N yields the single-node tree.
    """
    if N < 1:
        raise ValueError(f"need N >= 1, got {N}")
    if leaf_size < 2:
        raise ValueError(f"need leaf_size >= 2, got {leaf_size}")
    depth = max(0, int(np.floor(np.log2(N / leaf_size)))) if N >= leaf_size else 0
    ranges = {1: (0, N)}
    for ell in range(depth):
        for tau in range(2**ell, 2 ** (ell + 1)):
            start, stop = ranges[tau]
            mid = start + (stop - start + 1) // 2  # left child gets the extra element
            ranges[2 * tau] = (start, mid)
            ranges[2 * tau + 1] = (mid, stop)
    sizes = np.diff([ranges[tau] for tau in range(2**depth, 2 ** (depth + 1))]).ravel()
    m = int(sizes.max())
    leaf = None if sizes.min() == m else np.arange(m) < sizes[:, None]
    return ClusterTree(N=N, depth=depth, ranges=ranges, m=m, leaf=leaf)


def sibling_pairs(tree: ClusterTree):
    """All (alpha, beta) = (2*tau, 2*tau+1) pairs, by level then node id."""
    return [(2 * tau, 2 * tau + 1) for tau in range(1, 2**tree.depth)]
