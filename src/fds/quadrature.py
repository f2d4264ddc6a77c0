"""Gauss-Legendre quadrature rules on an interval [a, b].

Nodes and weights on [-1, 1] come from ``numpy.polynomial.legendre.leggauss``
and are mapped affinely onto [a, b].
"""

from dataclasses import dataclass

import numpy as np

__all__ = ["QuadratureRule", "gauss_legendre"]


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes and positive weights on an interval [a, b].

    An n-point rule integrates polynomials up to degree 2n-1 exactly.
    """

    nodes: np.ndarray
    weights: np.ndarray

    def integrate(self, f):
        return float(np.dot(self.weights, f(self.nodes)))


def gauss_legendre(n, a, b) -> QuadratureRule:
    """n-point Gauss-Legendre rule on [a, b], nodes ascending."""
    if n < 1:
        raise ValueError(f"need n >= 1 nodes, got {n}")
    if not a < b:
        raise ValueError(f"empty interval [{a}, {b}]")
    x, w = np.polynomial.legendre.leggauss(n)
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    return QuadratureRule(nodes=mid + half * x, weights=half * w)
