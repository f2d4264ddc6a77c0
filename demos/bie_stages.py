"""Stage times of the HBS boundary integral pipeline on the starfish.

Each stage of the end-to-end solve is timed separately, best of three:
sampling the curve, assembling the Nystrom matrix, compressing it to
HBS form, inverting, one inverse apply and one evaluation of the double
layer at 32 interior targets. The relative residual of the solve and the
largest skeleton rank are printed with them. Pin BLAS to one thread
(e.g. OPENBLAS_NUM_THREADS=1) to compare machines.
"""

import time

import numpy as np

from fds.bie2d import assemble_bie, eval_double_layer, laplace_fundamental, make_curve
from fds.hbs import compress_to_hbs, hbs_invert
from fds.tree import build_uniform_tree


def best_of_three(fn):
    times = []
    for _ in range(3):
        t = time.perf_counter()
        out = fn()
        times.append(time.perf_counter() - t)
    return min(times), out


charge = np.array([3.0, 1.5])
print(f"{'N':>5} {'curve s':>8} {'assemble s':>11} {'compress s':>11} "
      f"{'invert s':>9} {'apply ms':>9} {'eval ms':>8} {'residual':>9} {'rank':>5}")
for N in (1024, 2048, 4096):
    t_curve, curve = best_of_three(lambda: make_curve("starfish", N, 0.3, 5))
    f = laplace_fundamental(np.linalg.norm(curve.x - charge, axis=1))
    t_asm, system = best_of_three(lambda: assemble_bie(curve, f))
    tree = build_uniform_tree(N, 64)
    t_cmp, H = best_of_three(lambda: compress_to_hbs(system.matrix, tree, 1e-10))
    t_inv, inv = best_of_three(lambda: hbs_invert(H))
    t_app, sigma = best_of_three(lambda: inv.apply(system.rhs))
    # targets ten node spacings inside the curve, along inward normals
    idx = (np.arange(32) * N) // 32
    targets = curve.x[idx] - 10.0 * curve.max_spacing() * curve.normal[idx]
    t_eval, _ = best_of_three(lambda: eval_double_layer(curve, sigma, targets))
    res = np.linalg.norm(system.matrix @ sigma - f) / np.linalg.norm(f)
    print(f"{N:>5} {t_curve:>8.4f} {t_asm:>11.3f} {t_cmp:>11.3f} {t_inv:>9.3f} "
          f"{1e3 * t_app:>9.2f} {1e3 * t_eval:>8.2f} {res:>9.1e} "
          f"{max(H.per_level_ranks().values()):>5}")
print("assembly and compression are O(N^2): they read every entry of the matrix.")
