"""Cross-module singular-value experiments and scaling benchmarks.

``spectrum_potential`` estimates the spectrum of the continuum map from
a charge density on a source box to the potential on well-separated
target boxes: entries sqrt(w_i w'_j) phi(x_i - x'_j) on tensor-product
Gauss-Legendre grids, so that the discrete l2 norms converge to the
L2 norms of the continuum operator. On these grids |x_i - x'_j|^2 =
dx^2 + dy^2 takes few distinct values, so ``_kernel_matrix`` evaluates
the kernel once per distinct (dx^2, dy^2) pair of each target box and
gathers the entries, bitwise equal to evaluating every entry. Its
singular values come from LAPACK's dense SVD, except for Helmholtz
boxes of more than 1024 nodes, where the seeded block Krylov
``linalg.range_finder`` samples the range until at least 10 sampled
singular values lie at or below 1e-14 sigma_1 (directional, kappa 80,
grid_k 33 to 48: one draw of 32 Gaussian columns, whose block and two
power steps give 71 to 74 basis columns). Values above 1e-13 sigma_1
match the dense SVD to about 1e-15 sigma_1; nearer the cut they can sit
on the roundoff floor of the kernel entries, which the sample reads
only to about 1e-14 sigma_1.
``weak_vs_strong_spectrum``
contrasts the block rows a single-level format must compress under weak
(all other boxes) versus strong (non-touching boxes only)
admissibility. ``scaling_bench`` times builds and applies and counts
exact storage for the structured solvers.
"""

import numbers
import time
from dataclasses import dataclass

import numpy as np

from . import bie2d, bvp1d, sparsend
from .linalg import range_finder
from .quadrature import gauss_legendre
from .results import SpectrumResult
from .solve import factor
from .special import bessel_j0_y0
from .tree import build_uniform_tree

__all__ = [
    "spectrum_potential",
    "weak_vs_strong_spectrum",
    "scaling_bench",
    "BenchRow",
]

_EXACT_SVD_LIMIT = 1024  # Helmholtz boxes with more nodes take the range finder
_KERNEL_BLOCK = 1 << 14  # entries per block of kernel rows, so its temporaries stay in cache
_BOXES_PER_SIDE = 6  # of the weak/strong grid, whose probe box sits at (2, 2)


def _kernel_matrix(kernel, kappa, rule, centers):
    """Entries sqrt(w_i w'_j) phi(|x_i - x'_j|) from the unit source box at
    the origin to the unit target boxes at ``centers``.

    Every box carries the tensor-product grid of the 1D ``rule`` on
    [-0.5, 0.5]; node (a, c) is row or column a * k + c, and the target
    boxes stack in the order of ``centers``. The offset from source node
    (b, e) to target node (a, c) is (dx[a, b], dy[c, e]), rounded as the
    stacked points' x - x' rounds it, so r^2 = dx^2 + dy^2 takes only the
    distinct (dx^2, dy^2) pairs: the kernel is evaluated once per pair and
    box, and the table is gathered into V a block of rows at a time. Each
    entry is bitwise equal to the per-entry formula on the stacked points.
    """
    t, k = rule.nodes, len(rule.nodes)
    n = k * k
    V = np.empty((len(centers) * n, n), dtype=float if kernel == "laplace" else complex)
    sw = np.sqrt(np.outer(rule.weights, rule.weights).ravel())
    step = max(1, _KERNEL_BLOCK // n)
    for box, (cx, cy) in enumerate(centers):
        dx, dy = (t + cx)[:, None] - t, (t + cy)[:, None] - t
        ux, ix = np.unique(dx * dx, return_inverse=True)
        uy, iy = np.unique(dy * dy, return_inverse=True)
        d = np.sqrt(ux[:, None] + uy[None, :])
        if kernel == "laplace":
            tables = (bie2d.laplace_fundamental(d).ravel(),)
        else:
            tables = tuple(f.ravel() for f in bessel_j0_y0(np.multiply(kappa, d, out=d)))
        # entry ((a, c), (b, e)) reads the flat table at ix[a, b] * len(uy) + iy[c, e]
        ix, iy = ix.reshape(k, k) * len(uy), iy.reshape(k, k)
        for i in range(0, n, step):
            a, c = np.divmod(np.arange(i, min(i + step, n)), k)
            idx = (ix[a][:, :, None] + iy[c][:, None, :]).reshape(len(a), n)
            rows = V[box * n + i:box * n + i + len(a)]
            scale = sw[i:i + len(a), None] * sw
            if kernel == "laplace":
                np.multiply(scale, tables[0][idx], out=rows)
                continue
            # scale * 0.25j * (J0 + i Y0) = s (-Y0 + i J0) with s = 0.25 scale
            s = np.multiply(scale, 0.25, out=scale)
            np.multiply(s, tables[0][idx], out=rows.imag)
            np.multiply(np.negative(s, out=s), tables[1][idx], out=rows.real)
    return V


def spectrum_potential(kernel, grid_k, geometry, kappa=None, seed=0) -> SpectrumResult:
    """Scaled spectrum of the box-to-box potential evaluation operator.

    The source is the unit box at the origin. ``directional`` targets
    the unit box centered at (2, 0); ``global`` surrounds the source
    with the 16 well-separated boxes of the 5x5 unit tiling (one ring of
    touching boxes is excluded). Both boxes carry grid_k x grid_k
    tensor-product Gauss-Legendre nodes. ``kappa`` is the Helmholtz
    wavenumber; the Laplace kernel refuses one. ``seed`` feeds the range
    finder, which only Helmholtz grids with grid_k > 32 use; metadata
    ``svd`` says which one produced the values, "range_finder" or "dense".
    """
    if not (isinstance(grid_k, numbers.Integral) and 4 <= grid_k <= 80):
        raise ValueError(f"grid_k must be an integer in [4, 80], got {grid_k!r}")
    if kernel not in ("laplace", "helmholtz"):
        raise ValueError(f"unknown kernel {kernel!r}")
    if kernel == "helmholtz" and not (kappa is not None and 0 < kappa < np.inf):
        raise ValueError(f"helmholtz kernel needs a finite kappa > 0, got {kappa!r}")
    if kernel == "laplace" and kappa is not None:
        raise ValueError(f"laplace kernel takes no kappa, got kappa={kappa!r}")
    if geometry not in ("directional", "global"):
        raise ValueError(f"unknown geometry {geometry!r}")
    if geometry == "directional":
        centers = [(2.0, 0.0)]
    else:
        centers = [
            (float(i), float(j))
            for i in range(-2, 3)
            for j in range(-2, 3)
            if max(abs(i), abs(j)) == 2
        ]
    V = _kernel_matrix(kernel, kappa, gauss_legendre(grid_k, -0.5, 0.5), centers)
    sampled = kernel == "helmholtz" and grid_k * grid_k > _EXACT_SVD_LIMIT
    sig = range_finder(V, 1e-14, seed)[2] if sampled else np.linalg.svd(V, compute_uv=False)
    return SpectrumResult(
        label=f"{kernel} {geometry} k={grid_k}"
        + (f" kappa={kappa:g}" if kernel == "helmholtz" else ""),
        sigmas=sig,
        metadata={"kernel": kernel, "kappa": kappa, "grid_k": grid_k,
                  "geometry": geometry, "svd": "range_finder" if sampled else "dense"},
    )


def weak_vs_strong_spectrum(pts_per_box, seed=0):
    """Singular values of one box's block row under both admissibilities.

    Uniform random points fill a 6 x 6 grid of unit boxes;
    the probe box sits at grid position (2, 2). Weak admissibility
    compresses its interactions with all other boxes, strong only with
    the non-touching ones.
    """
    if not 16 <= pts_per_box <= 400:
        raise ValueError(f"pts_per_box must lie in [16, 400], got {pts_per_box}")
    rng = np.random.default_rng(seed)
    nb = _BOXES_PER_SIDE
    box_of = np.repeat(np.arange(nb * nb), pts_per_box)
    cell = np.column_stack(np.divmod(box_of, nb))  # grid position of each point's box
    pts = rng.uniform(0.0, 1.0, size=(len(box_of), 2)) + cell
    cheb = np.abs(cell - 2).max(axis=1)  # box distance to the probe box at (2, 2)
    own, far = cheb == 0, cheb >= 2

    def block_sigmas(cols):
        d = np.sqrt(bie2d._offsets(pts[own][:, None, :], pts[cols][None, :, :])[2])
        return np.linalg.svd(bie2d.laplace_fundamental(d), compute_uv=False)

    weak = block_sigmas(~own)
    strong = block_sigmas(far)
    meta = {"pts_per_box": pts_per_box, "boxes_per_side": nb, "seed": seed}
    return (
        SpectrumResult(label=f"weak m={pts_per_box}", sigmas=weak, metadata=meta),
        SpectrumResult(label=f"strong m={pts_per_box}", sigmas=strong, metadata=meta),
    )


# -- scaling benchmarks -----------------------------------------------------------


@dataclass
class BenchRow:
    N: int
    build_s: float
    apply_s: float
    stored_scalars: int
    residual: float


def _bench_problem(target, size, rng):
    """(A, b, backend, tree) of one ``scaling_bench`` row."""
    if target == "nd-factor":
        st = sparsend.assemble_stencil(2, size)
        tree = sparsend.nd_partition(2, size, leaf_cells=min(4, size))
        return st.A, rng.standard_normal(st.N), "nd", tree
    if target in ("hodlr-inv", "hbs-inv"):
        p = bvp1d.Bvp1dProblem.from_functions(0.0, 1.0, size, bvp1d._fig2_m, bvp1d._fig2_g)
        A, b = bvp1d.assemble_nystrom(p)
        backend = target.removesuffix("-inv")
    elif target == "bie-solve":
        curve = bie2d.make_curve("ellipse", size, 2.0, 1.0)
        f = bie2d.laplace_fundamental(np.linalg.norm(curve.x - [3.0, 1.5], axis=1))
        system = bie2d.assemble_bie(curve, f)
        A, b, backend = system.matrix, system.rhs, "hbs"
    else:
        raise ValueError(f"unknown bench target {target!r}")
    return A, b, backend, build_uniform_tree(size, leaf_size=64)


def scaling_bench(target, sizes, tol=1e-10, seed=0):
    """Build/apply timings, exact storage, and residuals across sizes.

    ``sizes`` are matrix dimensions N for hodlr-inv / hbs-inv /
    bie-solve, and grid points per side n for nd-factor. ``build_s``
    times ``solve.factor``, ``apply_s`` one solve.
    """
    rng = np.random.default_rng(seed)
    rows = []
    for size in sizes:
        A, b, backend, tree = _bench_problem(target, int(size), rng)
        t0 = time.perf_counter()
        fac = factor(A, backend, tree, tol)
        build_s = time.perf_counter() - t0
        t0 = time.perf_counter()
        x = fac.apply(b)
        apply_s = time.perf_counter() - t0
        residual = float(np.linalg.norm(A @ x - b) / np.linalg.norm(b))
        rows.append(BenchRow(N=len(b), build_s=build_s, apply_s=apply_s,
                             stored_scalars=fac.stored_scalars, residual=residual))
    return rows
