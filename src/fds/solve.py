"""One solver pipeline: factor A once, then apply A^{-1} to right-hand sides.

``factor`` is the one place that pairs each backend's compression or
factorization with its inverse and its storage count:

* ``dense``: a partially pivoted LU checked for zero pivots; stores the LU;
* ``hodlr``: ``compress_to_hodlr`` at ``tol``, then the multiplicative
  inverse ``invert_multiplicative``; stores the HODLR matrix;
* ``hbs``: ``compress_to_hbs`` at ``tol``, then ``hbs_invert``; stores
  the HBS matrix;
* ``nd``: ``nd_factor`` of a sparse or stencil A, applied by
  ``nd_solve``; stores the fronts (LU and inverse of F_SS, X and F_BS).
"""

from dataclasses import dataclass
from typing import Callable

import scipy.linalg

from . import hbs, hodlr, sparsend
from .linalg import _check_input, lu_factor_checked
from .tree import ClusterTree

__all__ = ["Factorization", "factor"]


@dataclass(frozen=True)
class Factorization:
    apply: Callable  # b -> A^{-1} b for (N,) or (N, r) right-hand sides
    stored_scalars: int


def factor(A, backend, tree=None, tol=1e-10) -> Factorization:
    """Factor A with ``backend`` (dense | hodlr | hbs | nd).

    ``tree`` is a ``ClusterTree`` for hodlr and hbs, an ``NdTree`` for
    nd, and unused for dense; a missing or wrong one raises ValueError.
    """
    needs = {"hodlr": ClusterTree, "hbs": ClusterTree, "nd": sparsend.NdTree}.get(backend)
    if needs and not isinstance(tree, needs):
        raise ValueError(f"backend {backend!r} needs a tree of type {needs.__name__}, "
                         f"got {type(tree).__name__}")
    if backend == "dense":
        lu = lu_factor_checked(_check_input(A), "matrix")
        return Factorization(lambda b: scipy.linalg.lu_solve(lu, b), lu[0].size)
    if backend == "hodlr":
        H = hodlr.compress_to_hodlr(A, tree, tol)
        return Factorization(hodlr.invert_multiplicative(H).apply,
                             hodlr.storage_report(H)["stored_scalars"])
    if backend == "hbs":
        H = hbs.compress_to_hbs(A, tree, tol)
        return Factorization(hbs.hbs_invert(H).apply, hbs.hbs_storage(H)["stored_scalars"])
    if backend == "nd":
        fac = sparsend.nd_factor(A, tree)
        return Factorization(lambda b: sparsend.nd_solve(fac, b),
                             sum(g.lu.size + g.inv.size + g.X.size + g.F_BS.size
                                 for g in fac.groups))
    raise ValueError(f"unknown backend {backend!r}")
