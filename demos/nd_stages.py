"""Stage times of the 2D nested-dissection pipeline.

The 5-point Laplacian (leaf 4) is partitioned, factored and solved once
at n = 128 / 256 / 512; each stage is timed separately, best of three.
ns per counted flop divides the factor time by ``NdFactors.flops``: flat
over n means the factor is flop-bound. The relative residual of the
solve is printed with them. BLAS runs on one thread unless
OPENBLAS_NUM_THREADS (or OMP_NUM_THREADS / MKL_NUM_THREADS) is set.
"""

import os

for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(var, "1")

import time  # noqa: E402

import numpy as np  # noqa: E402

from fds.sparsend import assemble_stencil, nd_factor, nd_partition, nd_solve  # noqa: E402


def best_of_three(fn):
    times = []
    for _ in range(3):
        t = time.perf_counter()
        out = fn()
        times.append(time.perf_counter() - t)
    return min(times), out


b_rng = np.random.default_rng(0)
print(f"{'n':>5} {'fronts':>7} {'partition ms':>13} {'factor s':>9} {'solve ms':>9} "
      f"{'ns/flop':>8} {'residual':>9}")
for n in (128, 256, 512):
    st = assemble_stencil(2, n)
    b = b_rng.standard_normal(st.N)
    t_part, tree = best_of_three(lambda: nd_partition(2, n, leaf_cells=4))
    t_fac, fac = best_of_three(lambda: nd_factor(st, tree))
    t_sol, x = best_of_three(lambda: nd_solve(fac, b))
    res = np.linalg.norm(st.A @ x - b) / np.linalg.norm(b)
    print(f"{n:>5} {len(fac.fronts):>7} {1e3 * t_part:>13.1f} {t_fac:>9.3f} "
          f"{1e3 * t_sol:>9.2f} {1e9 * t_fac / fac.flops:>8.2f} {res:>9.1e}")
    del fac, tree  # one factorization in memory at a time
print("ns/flop is factor time per counted dense-kernel flop (LU, X and the Schur update).")
