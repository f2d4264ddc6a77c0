"""Stage times of the Helmholtz box-to-box spectrum study.

The directional operator at kappa = 80 (unit source box, target box
centered at (2, 0), grid_k x grid_k Gauss-Legendre nodes on each) is
built and sampled at grid_k = 33 / 40 / 48, the sizes past the
exact-SVD limit. Each stage is timed separately, best of three: the
kernel matrix and the seeded range finder at the 1e-14 cut that
``experiments.spectrum_potential`` uses. Beside the kernel time stands
the number of J0/Y0 pairs the kernel evaluated, one per distinct grid
distance, against the N^2 entries it fills. The range finder's number
of Gaussian draws, its basis width and rank@1e-10 of the normalized
spectrum follow. BLAS
runs on one thread unless OPENBLAS_NUM_THREADS (or OMP_NUM_THREADS /
MKL_NUM_THREADS) is set.
"""

import os

for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(var, "1")

import time  # noqa: E402

import numpy as np  # noqa: E402

from fds import experiments  # noqa: E402
from fds.linalg import eps_rank, range_finder  # noqa: E402
from fds.quadrature import gauss_legendre  # noqa: E402

evaluated = []  # argument sizes of the kernel's J0/Y0 calls
bessel = experiments.bessel_j0_y0
experiments.bessel_j0_y0 = lambda x: evaluated.append(x.size) or bessel(x)

normals = []  # per range_finder call, its standard_normal calls: two per complex draw
default_rng = np.random.default_rng


class CountingRng:
    def __init__(self, seed):
        self.rng = default_rng(seed)
        normals.append(0)

    def standard_normal(self, shape):
        normals[-1] += 1
        return self.rng.standard_normal(shape)


np.random.default_rng = CountingRng


def best_of_three(fn):
    times = []
    for _ in range(3):
        t = time.perf_counter()
        out = fn()
        times.append(time.perf_counter() - t)
    return min(times), out


kappa = 80.0
print(f"{'grid_k':>6} {'N':>5} {'kernel s':>9} {'J0/Y0 pairs':>12} {'of N^2':>7} "
      f"{'range finder s':>15} {'draws':>6} {'columns':>8} {'rank@1e-10':>11}")
for k in (33, 40, 48):
    rule = gauss_legendre(k, -0.5, 0.5)
    evaluated.clear()
    t_ker, V = best_of_three(
        lambda: experiments._kernel_matrix("helmholtz", kappa, rule, [(2.0, 0.0)]))
    pairs = evaluated[-1]
    t_rf, (_, _, s) = best_of_three(lambda: range_finder(V, 1e-14, 0))
    print(f"{k:>6} {k * k:>5} {t_ker:>9.3f} {pairs:>12} {pairs / V.size:>7.1%} "
          f"{t_rf:>15.3f} {normals[-1] // 2:>6} {len(s):>8} {eps_rank(s, 1e-10):>11}")
    del V  # one kernel matrix in memory at a time
print("columns is the width of the kept basis, which holds every power iterate of "
      "each draw of 32 or more Gaussian columns; the range finder stops once at least "
      "10 sampled singular values lie at or below 1e-14 sigma_1.")
