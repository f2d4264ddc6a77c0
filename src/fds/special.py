"""Bessel functions J0, Y0 and the Hankel function H0^(1) = J0 + i Y0,
the zeroth-order pieces of the 2D Helmholtz kernel.

Thin wrappers over the Cephes routines ``scipy.special.j0/y0``. The
domain is x > 0 (Y0 has a log singularity at 0); scalars map to Python
floats and arrays elementwise.
"""

import numpy as np
import scipy.special

__all__ = ["bessel_j0_y0", "hankel0_first_kind"]


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


def _hankel(j, y):
    """J + i Y, with J written into the real and Y into the imaginary part."""
    h = np.empty(np.shape(j), dtype=complex)
    h.real, h.imag = j, y
    return complex(h) if np.isscalar(j) else h


def hankel0_first_kind(x):
    """H0^(1)(x) = J0(x) + i Y0(x) for x > 0, elementwise."""
    return _hankel(*bessel_j0_y0(x))
