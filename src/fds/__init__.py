"""Rank-structured fast direct solvers.

Dense kernels (``linalg``, ``quadrature``, ``special``), the binary
index ``tree``, the HODLR and HBS structured formats with their
inversion algorithms (each matrix and its inverse held in zero-padded
stacks, one per tree level), the 1D two-point boundary value solvers
(``bvp1d``), the 2D Laplace boundary integral solver (``bie2d``),
nested-dissection multifrontal LU (``sparsend``), the one solver
pipeline ``solve.factor`` over the dense, HODLR, HBS and
nested-dissection backends, and the spectrum / scaling experiments
behind the ``fds`` command line tool (``experiments``, ``cli``).
"""

from . import (
    bie2d, bvp1d, experiments, hbs, hodlr, linalg, quadrature, solve, sparsend, special, tree,
)
from .linalg import (
    LowRankFactor,
    SingularMatrixError,
    eps_rank,
    interpolative_decomposition,
    truncated_svd,
)
from .quadrature import QuadratureRule, gauss_legendre
from .results import SpectrumResult
from .solve import Factorization, factor
from .special import hankel0_first_kind
from .tree import ClusterTree, build_uniform_tree, sibling_pairs

__version__ = "0.1.0"
