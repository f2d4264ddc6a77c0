"""HODLR compression and its inverse as the unrolled Woodbury recursion.

The 1D integral-equation matrix I + G M is diagonal-plus-semi-separable:
every off-diagonal block of the hierarchical tessellation has exact
rank 1. Compressing it into the HODLR format and inverting it gives the
exact multiplicative factorization A^{-1} = B_0 B_1 ... B_L, whose
factors are block-diagonal identity-plus-low-rank matrices (ranks never
grow during its construction). Each block of B_ell is one node's
Woodbury correction, so rebuilding the recursion
A_tau^{-1} = (I + U V*) blockdiag(A_alpha^{-1}, A_beta^{-1}) from the
stored blocks gives the inverse of every diagonal block of the matrix.
"""

import numpy as np
import scipy.linalg

from fds.bvp1d import Bvp1dProblem, assemble_nystrom
from fds.hodlr import (
    compress_to_hodlr,
    hodlr_matvec,
    invert_multiplicative,
    storage_report,
)
from fds.tree import build_uniform_tree

N = 2048
p = Bvp1dProblem.from_functions(
    0.0, 1.0, N,
    lambda x: 100.0 * (1.0 + x) * np.cos(x),
    lambda x: 1.0 + np.cos(1.0 + x),
)
A, rhs = assemble_nystrom(p)
tree = build_uniform_tree(N, leaf_size=64)
H = compress_to_hodlr(A, tree, tol=1e-12)

rep = storage_report(H)
print(f"N = {N}, tree depth = {tree.depth}")
print(f"max off-diagonal rank: {rep['max_rank']} (semi-separable structure)")
print(f"stored scalars: {rep['stored_scalars']:,} vs dense {N * N:,} "
      f"({rep['stored_scalars'] / N**2:.1%})")

x = np.random.default_rng(0).standard_normal(N)
print(f"matvec agreement: {np.linalg.norm(hodlr_matvec(H, x) - A @ x):.2e}")

inv = invert_multiplicative(H)
print(f"\nmultiplicative inverse factor count: {inv.nfactors} "
      f"(= depth + 1 = {tree.depth + 1}), "
      f"{storage_report(inv)['stored_scalars']:,} stored scalars")
y = inv.apply(hodlr_matvec(H, x))
print(f"|| inv(A) (A x) - x || / ||x|| = {np.linalg.norm(y - x) / np.linalg.norm(x):.2e}")

# the Woodbury recursion over the stored blocks, against dense inverses of
# the diagonal blocks of H, worst relative gap per level
dense = H.todense()
node_inv = dict(inv.leaf_inverses)
for ell in range(tree.depth - 1, -1, -1):
    for tau, f in inv.level_blocks[ell].items():
        D = scipy.linalg.block_diag(node_inv[2 * tau], node_inv[2 * tau + 1])
        node_inv[tau] = D + f.U @ (f.V.conj().T @ D)
print("\nlevel  nodes  block  ||B_ell...B_L|I_tau - inv(A_tau)|| / ||inv(A_tau)||")
for ell in range(tree.depth + 1):
    gaps = []
    for tau in tree.nodes_at_level(ell):
        block = slice(*tree.ranges[tau])
        ref = np.linalg.inv(dense[block, block])
        gaps.append(np.linalg.norm(node_inv[tau] - ref) / np.linalg.norm(ref))
    print(f"{ell:>5}  {2**ell:>5}  {tree.size(2**ell):>5}  {max(gaps):.2e}")
