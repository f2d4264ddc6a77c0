"""Nested bases: the step from O(N log N) to O(N) storage.

HODLR stores an independent basis for every off-diagonal block, so its
storage carries a log factor. The HBS format expresses each parent's
basis through its children's (small transfer matrices), and because the
compression is a recursive skeletonization, every sibling interaction
block is a literal submatrix of the original operator -- it is never
even computed. The inversion pipeline then runs level by level through
the variation-of-Woodbury identity.
"""

import numpy as np

from fds.bvp1d import Bvp1dProblem, assemble_nystrom
from fds.hbs import compress_to_hbs, hbs_invert, hbs_matvec, hbs_storage
from fds.hodlr import compress_to_hodlr, storage_report
from fds.tree import build_uniform_tree, sibling_pairs


def ie_matrix(N):
    p = Bvp1dProblem.from_functions(
        0.0, 1.0, N,
        lambda x: 100.0 * (1.0 + x) * np.cos(x),
        lambda x: 1.0 + np.cos(1.0 + x),
    )
    return assemble_nystrom(p)[0]


print(f"{'N':>6} {'HBS scalars':>12} {'HODLR scalars':>14}")
for N in (512, 1024, 2048, 4096):
    A = ie_matrix(N)
    tree = build_uniform_tree(N, leaf_size=64)
    s_hbs = hbs_storage(compress_to_hbs(A, tree, 1e-10))["stored_scalars"]
    s_hodlr = storage_report(compress_to_hodlr(A, tree, 1e-10))["stored_scalars"]
    print(f"{N:>6} {s_hbs:>12,} {s_hodlr:>14,}")
print("doubling N doubles HBS storage; HODLR picks up the extra log factor.\n")

N = 1024
A = ie_matrix(N)
tree = build_uniform_tree(N, leaf_size=64)
H = compress_to_hbs(A, tree, 1e-12)

alpha, beta = sibling_pairs(tree)[1]
sub = A[np.ix_(H.skeleton[alpha], H.skeleton[beta])]
own = H.stacks.get(alpha // 2)[2]  # the parent's [0, Atilde_ab; Atilde_ba, 0]
print("skeletonization keeps interactions as literal submatrices:",
      np.array_equal(own[:H.rank(alpha), H.rank(alpha):], sub))
print("per-level ranks (level -> max skeleton size):", H.per_level_ranks())

inv = hbs_invert(H)
x = np.random.default_rng(1).standard_normal(N)
err = np.linalg.norm(inv.apply(hbs_matvec(H, x)) - x) / np.linalg.norm(x)
print(f"inverse pipeline composed with the matvec: identity to {err:.2e}")
