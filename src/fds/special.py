"""Bessel functions J0, Y0, J1, Y1 and the Hankel functions H0^(1), H1^(1).

Thin wrappers over the Cephes routines ``scipy.special.j0/y0/j1/y1``,
with H_n^(1) = J_n + i Y_n. The domain is x > 0 (Y_n has a singularity
at 0); scalars map to Python floats and arrays elementwise.
"""

import numpy as np
import scipy.special

__all__ = ["bessel_j0_y0", "bessel_j1_y1", "hankel0_first_kind", "hankel1_first_kind"]


def _pair(x, jn, yn):
    scalar = np.isscalar(x)
    x = np.asarray(x, dtype=float)
    if np.any(x <= 0.0) or not np.all(np.isfinite(x)):
        raise ValueError("argument must be positive and finite (log singularity at 0)")
    j, y = jn(x), yn(x)
    return (float(j), float(y)) if scalar else (j, y)


def bessel_j0_y0(x):
    """J0(x) and Y0(x) for x > 0, elementwise."""
    return _pair(x, scipy.special.j0, scipy.special.y0)


def bessel_j1_y1(x):
    """J1(x) and Y1(x) for x > 0, elementwise."""
    return _pair(x, scipy.special.j1, scipy.special.y1)


def hankel0_first_kind(x):
    """H0^(1)(x) = J0(x) + i Y0(x) for x > 0, elementwise."""
    j, y = bessel_j0_y0(x)
    return j + 1j * y


def hankel1_first_kind(x):
    """H1^(1)(x) = J1(x) + i Y1(x) for x > 0, elementwise."""
    j, y = bessel_j1_y1(x)
    return j + 1j * y
