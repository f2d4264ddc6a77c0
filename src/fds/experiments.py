"""Cross-module singular-value experiments and scaling benchmarks.

``spectrum_potential`` estimates the spectrum of the continuum map from
a charge density on a source box to the potential on well-separated
target boxes: entries sqrt(w_i w'_j) phi(x_i - x'_j) on tensor-product
Gauss-Legendre grids, so that the discrete l2 norms converge to the
L2 norms of the continuum operator. Its singular values come from
LAPACK's dense SVD, except for Helmholtz boxes of more than 1024 nodes,
where the seeded ``linalg.range_finder`` captures the spectrum down to
1e-14 sigma_1. ``weak_vs_strong_spectrum``
contrasts the block rows a single-level format must compress under weak
(all other boxes) versus strong (non-touching boxes only)
admissibility. ``scaling_bench`` times builds and applies and counts
exact storage for the structured solvers.
"""

import time
from dataclasses import dataclass

import numpy as np

from . import bie2d, bvp1d, sparsend
from .linalg import complex_singular_values, range_finder
from .quadrature import gauss_legendre
from .results import SpectrumResult
from .solve import factor
from .special import hankel0_first_kind
from .tree import build_uniform_tree

__all__ = [
    "spectrum_potential",
    "weak_vs_strong_spectrum",
    "scaling_bench",
    "BenchRow",
]

_EXACT_SVD_LIMIT = 1024  # Helmholtz boxes with more nodes take the range finder


def _gl_box(k, center):
    rule = gauss_legendre(k, -0.5, 0.5)
    X, Y = np.meshgrid(rule.nodes + center[0], rule.nodes + center[1], indexing="ij")
    W = np.outer(rule.weights, rule.weights)
    return np.column_stack([X.ravel(), Y.ravel()]), W.ravel()


def _kernel_matrix(kernel, kappa, trg, wt, src, ws):
    d = np.sqrt(bie2d._offsets(trg[:, None, :], src[None, :, :])[2])
    scale = np.sqrt(wt)[:, None] * np.sqrt(ws)[None, :]
    if kernel == "laplace":
        return scale * bie2d.laplace_fundamental(d)
    return scale * 0.25j * hankel0_first_kind(kappa * d)


def spectrum_potential(kernel, grid_k, geometry, kappa=None, seed=0) -> SpectrumResult:
    """Scaled spectrum of the box-to-box potential evaluation operator.

    The source is the unit box at the origin. ``directional`` targets
    the unit box centered at (2, 0); ``global`` surrounds the source
    with the 16 well-separated boxes of the 5x5 unit tiling (one ring of
    touching boxes is excluded). Both boxes carry grid_k x grid_k
    tensor-product Gauss-Legendre nodes. ``seed`` feeds the range
    finder, which only Helmholtz grids with grid_k > 32 use.
    """
    if not 4 <= grid_k <= 80:
        raise ValueError(f"grid_k must lie in [4, 80], got {grid_k}")
    if kernel not in ("laplace", "helmholtz"):
        raise ValueError(f"unknown kernel {kernel!r}")
    if kernel == "helmholtz" and (kappa is None or kappa <= 0):
        raise ValueError("helmholtz kernel needs kappa > 0")
    if geometry not in ("directional", "global"):
        raise ValueError(f"unknown geometry {geometry!r}")
    src, ws = _gl_box(grid_k, (0.0, 0.0))
    if geometry == "directional":
        centers = [(2.0, 0.0)]
    else:
        centers = [
            (float(i), float(j))
            for i in range(-2, 3)
            for j in range(-2, 3)
            if max(abs(i), abs(j)) == 2
        ]
    blocks = []
    for c in centers:
        trg, wt = _gl_box(grid_k, c)
        blocks.append(_kernel_matrix(kernel, kappa, trg, wt, src, ws))
    V = np.vstack(blocks)
    if kernel == "helmholtz" and src.shape[0] > _EXACT_SVD_LIMIT:
        sig = range_finder(V, 1e-14, seed, block=256)[2]
    else:
        sig = complex_singular_values(V)
    return SpectrumResult(
        label=f"{kernel} {geometry} k={grid_k}"
        + (f" kappa={kappa:g}" if kernel == "helmholtz" else ""),
        sigmas=sig,
        metadata={"kernel": kernel, "kappa": kappa, "grid_k": grid_k,
                  "geometry": geometry},
    )


def weak_vs_strong_spectrum(pts_per_box, boxes_per_side=6, seed=0):
    """Singular values of one box's block row under both admissibilities.

    Uniform random points fill a boxes_per_side^2 grid of unit boxes;
    the probe box sits at grid position (2, 2). Weak admissibility
    compresses its interactions with all other boxes, strong only with
    the non-touching ones.
    """
    if not 16 <= pts_per_box <= 400:
        raise ValueError(f"pts_per_box must lie in [16, 400], got {pts_per_box}")
    rng = np.random.default_rng(seed)
    nb = boxes_per_side
    pts = []
    box_of = []
    for bi in range(nb):
        for bj in range(nb):
            p = rng.uniform(0.0, 1.0, size=(pts_per_box, 2)) + np.array([bi, bj])
            pts.append(p)
            box_of.append(np.full(pts_per_box, bi * nb + bj))
    pts = np.vstack(pts)
    box_of = np.concatenate(box_of)
    tau = 2 * nb + 2  # grid position (2, 2)
    ti, tj = divmod(tau, nb)
    own = box_of == tau
    cheb = np.maximum(
        np.abs(box_of // nb - ti), np.abs(box_of % nb - tj)
    )
    far = cheb >= 2

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
        tree = sparsend.nd_partition(2, size, leaf_cells=4)
        return st.A, rng.standard_normal(st.N), "nd", tree
    if target in ("hodlr-inv", "hbs-inv"):
        p = bvp1d.Bvp1dProblem.from_functions(
            0.0, 1.0, size,
            lambda x: 100.0 * (1.0 + x) * np.cos(x), lambda x: 1.0 + np.cos(1.0 + x))
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
