"""Stage times of the 1D Nystrom pipeline through the HODLR inverse.

The integral-equation system (I + G M) u = G g of the paper's Fig. 2
problem is assembled, compressed to HODLR form (leaf 64, tol 1e-10),
inverted in multiplicative form and applied once; each stage is timed
separately, best of three. The log-log slopes against N of assembly, of
compression and of setup (assemble + compress + invert) and the relative
residual of the solve are printed with them, so the table shows which
stage sets the setup exponent. N = 8192 holds a 512 MB matrix. Pin BLAS
to one thread (e.g. OPENBLAS_NUM_THREADS=1) to compare machines.
"""

import time

import numpy as np

from fds.bvp1d import Bvp1dProblem, assemble_nystrom
from fds.hodlr import compress_to_hodlr, invert_multiplicative
from fds.tree import build_uniform_tree


def best_of_three(fn):
    times = []
    for _ in range(3):
        out = None  # one result alive at a time
        t = time.perf_counter()
        out = fn()
        times.append(time.perf_counter() - t)
    return min(times), out


sizes = (1024, 2048, 4096, 8192)
stages = []
print(f"{'N':>5} {'assemble s':>11} {'compress s':>11} {'invert s':>9} "
      f"{'apply ms':>9} {'residual':>9} {'rank':>5}")
for N in sizes:
    p = Bvp1dProblem.from_functions(0.0, 1.0, N, lambda x: 100.0 * (1.0 + x) * np.cos(x),
                                    lambda x: 1.0 + np.cos(1.0 + x))
    t_asm, (A, rhs) = best_of_three(lambda: assemble_nystrom(p))
    tree = build_uniform_tree(N, 64)
    t_cmp, H = best_of_three(lambda: compress_to_hodlr(A, tree, 1e-10))
    t_inv, inv = best_of_three(lambda: invert_multiplicative(H))
    t_app, u = best_of_three(lambda: inv.apply(rhs))
    res = np.linalg.norm(A @ u - rhs) / np.linalg.norm(rhs)
    stages.append((t_asm, t_cmp, t_asm + t_cmp + t_inv))
    print(f"{N:>5} {t_asm:>11.3f} {t_cmp:>11.3f} {t_inv:>9.3f} {1e3 * t_app:>9.3f} "
          f"{res:>9.1e} {H.max_rank():>5}")
    del A, H, inv
slopes = np.polyfit(np.log(sizes), np.log(stages), 1)[0]
print("log-log slopes: assemble {:.2f}, compress {:.2f}, setup {:.2f}".format(*slopes))
print("assembly writes every entry of the N x N matrix; compression reads each "
      "entry once, in the sketch that certifies its cross approximations.")
