"""Spectrum experiments and scaling benchmarks."""

import functools

import numpy as np
import pytest

from fds import experiments
from fds.experiments import (
    _kernel_matrix,
    scaling_bench,
    spectrum_potential,
    weak_vs_strong_spectrum,
)
from fds.bie2d import laplace_fundamental
from fds.linalg import range_finder
from fds.quadrature import gauss_legendre
from fds.results import SpectrumResult
from fds.special import hankel0_first_kind

THREE = [(2.0, 0.0), (-2.0, 1.0), (0.0, -2.0)]
RING = [(float(i), float(j)) for i in range(-2, 3) for j in range(-2, 3)
        if max(abs(i), abs(j)) == 2]


def stacked_boxes(grid_k, centers):
    """Nodes (one row each) and weights of the Gauss-Legendre boxes at centers, stacked."""
    rule = gauss_legendre(grid_k, -0.5, 0.5)
    pts, wts = [], []
    for cx, cy in centers:
        X, Y = np.meshgrid(rule.nodes + cx, rule.nodes + cy, indexing="ij")
        pts.append(np.column_stack([X.ravel(), Y.ravel()]))
        wts.append(np.outer(rule.weights, rule.weights).ravel())
    return np.vstack(pts), np.concatenate(wts)


@functools.cache
def dense_helmholtz_spectrum(grid_k):
    """sigma_j / sigma_1 of the directional kappa = 80 matrix by the dense SVD."""
    rule = gauss_legendre(grid_k, -0.5, 0.5)
    s = np.linalg.svd(_kernel_matrix("helmholtz", 80.0, rule, [(2.0, 0.0)]), compute_uv=False)
    return s / s[0]


class TestSpectrumPotential:
    def test_laplace_directional_rank_17(self):
        res = spectrum_potential("laplace", 12, "directional")
        assert res.rank_at(1e-10) == 17

    def test_laplace_global_rank_33(self):
        res = spectrum_potential("laplace", 12, "global")
        assert res.rank_at(1e-10) == 33

    def test_helmholtz_small_grid_exact_path(self):
        res = spectrum_potential("helmholtz", 24, "directional", kappa=20.0)
        assert res.rank_at(1e-10) == 19 and res.metadata["svd"] == "dense"

    def test_randomized_matches_exact(self):
        rng = np.random.default_rng(3)
        A = rng.standard_normal((300, 200)) @ np.diag(2.0 ** -np.arange(200.0))
        A = A.astype(complex) + 1j * 0.5 * A
        s_exact = np.linalg.svd(A, compute_uv=False)
        s_rand = range_finder(A, 1e-14, seed=7)[2]
        m = min(len(s_rand), int(np.sum(s_exact / s_exact[0] > 1e-15)))
        assert np.max(np.abs(s_rand[:m] - s_exact[:m])) < 1e-13 * s_exact[0]

    def test_range_finder_branch_matches_exact(self):
        # grid_k 33 is the first size past the exact-SVD limit
        res = spectrum_potential("helmholtz", 33, "directional", kappa=80.0, seed=5)
        again = spectrum_potential("helmholtz", 33, "directional", kappa=80.0, seed=5)
        assert np.array_equal(res.sigmas, again.sigmas)
        rule = gauss_legendre(33, -0.5, 0.5)
        s = np.linalg.svd(_kernel_matrix("helmholtz", 80.0, rule, [(2.0, 0.0)]), compute_uv=False)
        s = s / s[0]
        m = int(np.sum(s > 1e-14))
        assert len(res.sigmas) >= m
        assert np.max(np.abs(res.sigmas[:m] - s[:m])) < 1e-13

    @pytest.mark.parametrize("grid_k, centers", [
        *(pytest.param(k, THREE, id=str(k)) for k in (5, 13, 33)),
        pytest.param(12, RING, id="12-ring"),
    ])
    def test_kernel_matrix_entries(self, grid_k, centers):
        # rows from several target boxes; 13^2 = 169 nodes do not divide the
        # row blocks. The whole-array formula is the reference, bitwise.
        src, ws = stacked_boxes(grid_k, [(0.0, 0.0)])
        trg, wt = stacked_boxes(grid_k, centers)
        d = np.sqrt((trg[:, None, 0] - src[None, :, 0]) ** 2
                    + (trg[:, None, 1] - src[None, :, 1]) ** 2)
        scale = np.sqrt(wt)[:, None] * np.sqrt(ws)[None, :]
        rule = gauss_legendre(grid_k, -0.5, 0.5)
        H = _kernel_matrix("helmholtz", 80.0, rule, centers)
        assert np.array_equal(H, scale * 0.25j * hankel0_first_kind(80.0 * d))
        L = _kernel_matrix("laplace", None, rule, centers)
        assert L.dtype == float
        assert np.array_equal(L, scale * laplace_fundamental(d))

    def test_hankel_evaluated_once_per_distinct_distance(self, monkeypatch):
        # directional grid_k 33: 178,269 distinct (dx^2, dy^2) pairs of 33^4
        sizes = []

        def counting(x):
            sizes.append(np.size(x))
            return bessel(x)

        bessel = experiments.bessel_j0_y0
        monkeypatch.setattr(experiments, "bessel_j0_y0", counting)
        spectrum_potential("helmholtz", 33, "directional", kappa=80.0)
        assert 0 < sum(sizes) <= 0.2 * 33**4

    def test_range_finder_branch_sample_count(self):
        # rank@1e-14 is 39; one draw of 32 columns keeps 32 + 32 + 8 basis columns
        res = spectrum_potential("helmholtz", 33, "directional", kappa=80.0)
        assert len(res.sigmas) == 72 and res.metadata["svd"] == "range_finder"

    def test_range_finder_branch_takes_one_draw(self, monkeypatch):
        # the two power steps of the first 32 Gaussian columns already
        # carry the sampled spectrum past the 1e-14 cut
        draws = []
        real = np.random.default_rng

        class Counting:
            def __init__(self, seed):
                self.rng = real(seed)

            def standard_normal(self, shape):
                draws.append(shape)
                return self.rng.standard_normal(shape)

        monkeypatch.setattr(np.random, "default_rng", Counting)
        spectrum_potential("helmholtz", 33, "directional", kappa=80.0)
        assert draws == [(33 * 33, 32)] * 2  # real and imaginary parts of one draw

    @pytest.mark.parametrize("grid_k, seed", [(33, 0), (33, 5), (33, 9), (40, 0)])
    def test_range_finder_branch_accuracy(self, grid_k, seed):
        # values above 1e-13 sigma_1 match the dense SVD to about 1e-15 sigma_1
        res = spectrum_potential("helmholtz", grid_k, "directional", kappa=80.0, seed=seed)
        s = dense_helmholtz_spectrum(grid_k)
        m = int(np.sum(s > 1e-13))
        assert len(res.sigmas) >= m
        assert np.max(np.abs(res.sigmas[:m] - s[:m])) <= 1.5e-15

    def test_normalization_and_monotonicity(self):
        res = spectrum_potential("laplace", 8, "directional")
        assert res.sigmas[0] == 1.0
        assert np.all(np.diff(res.sigmas) <= 1e-12)
        assert np.all(res.sigmas > 0)

    def test_flag_validation(self):
        with pytest.raises(ValueError):
            spectrum_potential("laplace", 2, "directional")
        with pytest.raises(ValueError):
            spectrum_potential("helmholtz", 12, "directional")  # kappa missing
        with pytest.raises(ValueError):
            spectrum_potential("stokes", 12, "directional")

    def test_laplace_refuses_kappa(self):
        with pytest.raises(ValueError, match="kappa"):
            spectrum_potential("laplace", 6, "directional", kappa=80.0)

    @pytest.mark.parametrize("kappa", [np.nan, np.inf, -np.inf, 0.0, -3.0])
    def test_bad_kappa_named(self, kappa):
        with pytest.raises(ValueError, match="kappa"):
            spectrum_potential("helmholtz", 48, "directional", kappa=kappa)

    @pytest.mark.parametrize("grid_k", [4.5, 12.0, "12", None])
    def test_non_integer_grid_k_named(self, grid_k):
        with pytest.raises(ValueError, match="grid_k"):
            spectrum_potential("laplace", grid_k, "directional")

    def test_numpy_integer_grid_k_accepted(self):
        res = spectrum_potential("laplace", np.int64(12), "directional")
        assert res.rank_at(1e-10) == 17


class TestWeakVsStrong:
    def test_strong_rank_below_weak(self):
        weak, strong = weak_vs_strong_spectrum(100, seed=0)
        assert strong.rank_at(1e-10) < weak.rank_at(1e-10)

    def test_strong_rank_stable_weak_grows(self):
        w100, s100 = weak_vs_strong_spectrum(100, seed=0)
        w400, s400 = weak_vs_strong_spectrum(400, seed=0)
        assert abs(s400.rank_at(1e-10) - s100.rank_at(1e-10)) <= 3
        growth = w400.rank_at(1e-10) / w100.rank_at(1e-10)
        assert 1.6 <= growth <= 2.6  # O(sqrt(m)) scaling

    def test_seed_determinism(self):
        a = weak_vs_strong_spectrum(50, seed=11)[0].sigmas
        b = weak_vs_strong_spectrum(50, seed=11)[0].sigmas
        assert np.array_equal(a, b)


class TestScalingBench:
    def test_hbs_rows_and_residuals(self):
        rows = scaling_bench("hbs-inv", [256, 512], tol=1e-10)
        assert [r.N for r in rows] == [256, 512]
        for r in rows:
            assert r.residual < 1e-8
            assert r.stored_scalars > 0 and r.build_s >= 0

    def test_storage_slopes(self):
        sizes = [512, 1024, 2048]
        hbs_rows = scaling_bench("hbs-inv", sizes, tol=1e-10)
        hodlr_rows = scaling_bench("hodlr-inv", sizes, tol=1e-10)

        def slope(rows):
            return np.polyfit(
                np.log([r.N for r in rows]),
                np.log([r.stored_scalars for r in rows]), 1
            )[0]

        assert 0.95 <= slope(hbs_rows) <= 1.1
        assert 1.0 <= slope(hodlr_rows) <= 1.25

    def test_nd_target(self):
        rows = scaling_bench("nd-factor", [16, 32])
        assert rows[0].N == 256 and rows[1].N == 1024
        assert all(r.residual < 1e-10 for r in rows)

    def test_bie_target(self):
        rows = scaling_bench("bie-solve", [128], tol=1e-8)
        assert rows[0].N == 128 and rows[0].residual < 1e-6

    @pytest.mark.parametrize("target, sizes, stored", [
        ("hodlr-inv", [256, 512], [17408, 35840]),
        ("hbs-inv", [256, 512], [17174, 34650]),
        ("nd-factor", [16, 32], [10452, 51976]),  # LU, inverse, X and F_BS per front
        # N = 128 is the depth-1 ellipse, whose point-symmetric halves make
        # the row and column blocks tie: the two IDs pick the same 27 of 64
        # pivots, so the union skeleton is 27 (test_hbs.py checks every
        # node's ID error against tol)
        ("bie-solve", [128, 256], [16562, 32736]),
    ])
    def test_pinned_storage(self, target, sizes, stored):
        rows = scaling_bench(target, sizes, tol=1e-10)
        assert [r.stored_scalars for r in rows] == stored
        assert all(r.residual < 1e-10 for r in rows)

    def test_unknown_target(self):
        with pytest.raises(ValueError):
            scaling_bench("qr-inv", [64])


@pytest.mark.parametrize("call, error, match", [
    (lambda: spectrum_potential("laplace", 6, "ring"), ValueError, "unknown geometry 'ring'"),
    (lambda: SpectrumResult("s", [0.0, 0.0]), ValueError,
     "spectrum must have a positive leading singular value"),
    (lambda: SpectrumResult("s", [1.0, 2.0]), ValueError,
     "singular values must be non-increasing"),
], ids=["spectrum-ring", "result-zero-leading", "result-increasing"])
def test_refused_inputs(call, error, match):
    with pytest.raises(error, match=match):
        call()
