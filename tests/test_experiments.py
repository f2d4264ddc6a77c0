"""Spectrum experiments and scaling benchmarks."""

import numpy as np
import pytest

from fds.experiments import (
    _gl_box,
    _kernel_matrix,
    scaling_bench,
    spectrum_potential,
    weak_vs_strong_spectrum,
)
from fds.linalg import complex_singular_values, range_finder


class TestSpectrumPotential:
    def test_laplace_directional_rank_17(self):
        res = spectrum_potential("laplace", 12, "directional")
        assert res.rank_at(1e-10) == 17

    def test_laplace_global_rank_33(self):
        res = spectrum_potential("laplace", 12, "global")
        assert res.rank_at(1e-10) == 33

    def test_helmholtz_small_grid_exact_path(self):
        res = spectrum_potential("helmholtz", 24, "directional", kappa=20.0)
        assert res.rank_at(1e-10) == 19

    def test_randomized_matches_exact(self):
        rng = np.random.default_rng(3)
        A = rng.standard_normal((300, 200)) @ np.diag(2.0 ** -np.arange(200.0))
        A = A.astype(complex) + 1j * 0.5 * A
        s_exact = complex_singular_values(A)
        s_rand = range_finder(A, 1e-14, seed=7, block=64)[2]
        m = min(len(s_rand), int(np.sum(s_exact / s_exact[0] > 1e-15)))
        assert np.max(np.abs(s_rand[:m] - s_exact[:m])) < 1e-13 * s_exact[0]

    def test_range_finder_branch_matches_exact(self):
        # grid_k 33 is the first size past the exact-SVD limit
        res = spectrum_potential("helmholtz", 33, "directional", kappa=80.0, seed=5)
        again = spectrum_potential("helmholtz", 33, "directional", kappa=80.0, seed=5)
        assert np.array_equal(res.sigmas, again.sigmas)
        src, ws = _gl_box(33, (0.0, 0.0))
        trg, wt = _gl_box(33, (2.0, 0.0))
        s = complex_singular_values(_kernel_matrix("helmholtz", 80.0, trg, wt, src, ws))
        s = s / s[0]
        m = int(np.sum(s > 1e-14))
        assert len(res.sigmas) >= m
        assert np.max(np.abs(res.sigmas[:m] - s[:m])) < 1e-13

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
        ("nd-factor", [16, 32], [7922, 41686]),
        ("bie-solve", [128, 256], [21632, 32736]),
    ])
    def test_pinned_storage(self, target, sizes, stored):
        rows = scaling_bench(target, sizes, tol=1e-10)
        assert [r.stored_scalars for r in rows] == stored
        assert all(r.residual < 1e-10 for r in rows)

    def test_unknown_target(self):
        with pytest.raises(ValueError):
            scaling_bench("qr-inv", [64])
