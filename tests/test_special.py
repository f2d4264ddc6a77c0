"""Bessel/Hankel accuracy against an arbitrary-precision series oracle."""

import numpy as np
import pytest

mp = pytest.importorskip("mpmath")

from fds.special import bessel_j0_y0, hankel0_first_kind

from oracles import bessel_j1_y1, hankel1_first_kind

# oracle values computed first (mpmath, 40 digits): J0(1), Y0(1)
J0_AT_1 = 0.765197686557966551449717526103
Y0_AT_1 = 0.088256964215676957982926766024


def oracle(n, xs, which):
    with mp.workdps(40):
        f = mp.besselj if which == "j" else mp.bessely
        return np.array([float(f(n, mp.mpf(float(x)))) for x in xs])


def test_known_values_at_one():
    j0, y0 = bessel_j0_y0(1.0)
    assert abs(j0 - J0_AT_1) < 1e-14
    assert abs(y0 - Y0_AT_1) < 1e-14
    h = hankel0_first_kind(1.0)
    assert abs(h - (J0_AT_1 + 1j * Y0_AT_1)) < 1e-13


def test_singularity_at_zero():
    # Y0 ~ (2/pi) log(x/2) as x -> 0+, and x <= 0 is rejected
    _, y0 = bessel_j0_y0(1e-12)
    assert y0 < -15.0
    for bad in (0.0, -1.0):
        with pytest.raises(ValueError):
            hankel0_first_kind(bad)


def test_large_argument_asymptotic_form():
    x = 100.0
    h = hankel0_first_kind(x)
    leading = np.sqrt(2.0 / (np.pi * x)) * np.exp(1j * (x - np.pi / 4))
    # the first omitted asymptotic correction is ~1/(8x) = 1.25e-3
    assert abs(h - leading) / abs(h) < 2e-3
    with mp.workdps(40):
        ref = complex(mp.besselj(0, 100) + 1j * mp.bessely(0, 100))
    assert abs(h - ref) < 1e-12


def test_absolute_accuracy_sweep():
    # target: 1e-12 absolute over (0, 1.5e3], including the series/asymptotic seam
    rng = np.random.default_rng(5)
    xs = np.concatenate(
        [
            np.linspace(1e-6, 11.0, 80),
            np.linspace(11.0, 14.5, 120),
            np.linspace(14.5, 1500.0, 120),
            rng.uniform(1e-3, 1500.0, 80),
        ]
    )
    j0, y0 = bessel_j0_y0(xs)
    assert np.max(np.abs(j0 - oracle(0, xs, "j"))) < 1e-12
    assert np.max(np.abs(y0 - oracle(0, xs, "y"))) < 1e-12
    j1, y1 = bessel_j1_y1(xs)
    assert np.max(np.abs(j1 - oracle(1, xs, "j"))) < 1e-12
    # Y1 blows up like -2/(pi x) at 0; compare relative to magnitude there
    ref = oracle(1, xs, "y")
    assert np.max(np.abs(y1 - ref) / np.maximum(1.0, np.abs(ref))) < 1e-12


def test_wronskian_identity():
    # J0(x) Y0'(x) - J0'(x) Y0(x) = 2/(pi x), with J0' = -J1, Y0' = -Y1
    rng = np.random.default_rng(11)
    xs = np.sort(rng.uniform(1e-3, 1500.0, 1000))
    j0, y0 = bessel_j0_y0(xs)
    j1, y1 = bessel_j1_y1(xs)
    wronskian = j1 * y0 - j0 * y1
    assert np.max(np.abs(wronskian * np.pi * xs / 2.0 - 1.0)) < 1e-10


def test_vectorized_matches_scalar():
    xs = np.array([0.5, 3.0, 12.59, 12.61, 200.0])
    j, y = bessel_j0_y0(xs)
    for i, x in enumerate(xs):
        js, ys = bessel_j0_y0(float(x))
        assert j[i] == js and y[i] == ys


def test_hankel1_consistency():
    x = 7.3
    h1 = hankel1_first_kind(x)
    j1, y1 = bessel_j1_y1(x)
    assert h1 == j1 + 1j * y1
