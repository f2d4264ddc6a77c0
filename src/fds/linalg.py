"""Dense rank-revealing kernels used by every structured format.

All matrices are plain ``numpy.ndarray`` objects (real or complex,
2-dimensional). Truncation is always block-relative: a factorization at
tolerance ``tol`` keeps singular values (or pivots) above ``tol`` times
the largest one of the block being compressed, which keeps compression
scale-invariant. ``range_finder`` is the one seeded randomized sampler:
``low_rank_approx`` uses it for large HODLR blocks and
``experiments.spectrum_potential`` for large Helmholtz spectra.
"""

from dataclasses import dataclass

import numpy as np
import scipy.linalg

__all__ = [
    "LowRankFactor",
    "InterpolativeFactor",
    "SingularMatrixError",
    "SeparationError",
    "cpqr",
    "truncated_svd",
    "range_finder",
    "low_rank_approx",
    "recompress",
    "interpolative_decomposition",
    "lu_factor_checked",
    "dense_lu_solve",
    "complex_singular_values",
    "eps_rank",
]


class SingularMatrixError(np.linalg.LinAlgError):
    """Raised when a pivot or intermediate inverse is numerically singular."""


class SeparationError(ValueError):
    """A geometric separation precondition was violated."""


# ends the errors of methods that invert blocks of A rather than A itself
_BLOCKS_HINT = ("; the method needs invertible leaf and intermediate blocks,"
                " and A itself may still be invertible")


@dataclass(frozen=True)
class LowRankFactor:
    """Tall factor pair (U, V) representing the product U @ V.conj().T.

    U is m-by-k and V is n-by-k with shared rank k <= min(m, n).
    """

    U: np.ndarray
    V: np.ndarray

    def __post_init__(self):
        if self.U.ndim != 2 or self.V.ndim != 2 or self.U.shape[1] != self.V.shape[1]:
            raise ValueError(
                f"factor shapes {self.U.shape} / {self.V.shape} are not a rank pair"
            )

    @property
    def rank(self) -> int:
        return self.U.shape[1]

    @property
    def shape(self):
        return (self.U.shape[0], self.V.shape[0])

    def todense(self) -> np.ndarray:
        return self.U @ self.V.conj().T

    def matvec(self, x):
        return self.U @ (self.V.conj().T @ x)

    def storage(self) -> int:
        return self.U.size + self.V.size


@dataclass(frozen=True)
class InterpolativeFactor:
    """Column interpolative decomposition A ~= A[:, skeleton] @ interp_full().

    ``skeleton`` indexes k columns of the source matrix; ``interp`` holds
    the k-by-(n-k) coefficients expressing the remaining columns;
    ``perm`` is the pivot order so that columns perm[:k] are the skeleton
    and perm[k:] the interpolated ones.
    """

    skeleton: np.ndarray
    interp: np.ndarray
    perm: np.ndarray

    @property
    def rank(self) -> int:
        return len(self.skeleton)

    def interp_full(self) -> np.ndarray:
        """The k-by-n matrix X with X[:, perm] = [I | interp]."""
        k = self.rank
        n = len(self.perm)
        X = np.zeros((k, n), dtype=self.interp.dtype if self.interp.size else float)
        X[:, self.perm[:k]] = np.eye(k)
        if n > k:
            X[:, self.perm[k:]] = self.interp
        return X


def _check_input(A, tol=None):
    A = np.asarray(A)
    if A.ndim != 2 or A.size == 0:
        raise ValueError(f"expected a nonempty matrix, got shape {A.shape}")
    if not np.all(np.isfinite(A)):
        raise ValueError("matrix contains non-finite entries")
    if tol is not None and not (0.0 < tol < 1.0):
        raise ValueError(f"relative tolerance must lie in (0,1), got {tol}")
    return A


def _inexact(x):
    """x as a float64 array, or complex128 when x is complex."""
    x = np.asarray(x)
    return x.astype(np.result_type(x, float), copy=False)


def cpqr(A, tol):
    """Column-pivoted QR truncated at a relative pivot threshold.

    Parameters
    ----------
    A : ndarray, shape (m, n)
    tol : float
        Relative stopping criterion in (0, 1).

    Returns
    -------
    Q : ndarray, shape (m, k)
        Orthonormal columns.
    R : ndarray, shape (k, n)
        Upper trapezoidal, so that A[:, perm] ~= Q @ R.
    perm : ndarray of int, shape (n,)
        Pivot order.
    rank : int
        Smallest k with |R[k, k]| <= tol * |R[0, 0]| (0 for a zero matrix).
    """
    A = _check_input(A, tol)
    Q, R, perm = scipy.linalg.qr(A, mode="economic", pivoting=True)
    diag = np.abs(np.diag(R))
    if diag.size == 0 or diag[0] == 0.0:
        rank = 0
    else:
        below = np.nonzero(diag <= tol * diag[0])[0]
        rank = int(below[0]) if below.size else diag.size
    return Q[:, :rank], R[:rank, :], perm, rank


def truncated_svd(A, tol=None, max_rank=None):
    """SVD truncated at sigma_j > tol * sigma_1 (and/or a hard rank cap).

    Returns (U, s, V) with A ~= U @ diag(s) @ V.conj().T and s
    non-increasing. A zero matrix yields rank 0 (empty factors).
    """
    A = _check_input(A, tol)
    if tol is None and max_rank is None:
        raise ValueError("need a tolerance or a rank cap")
    U, s, Vh = np.linalg.svd(A, full_matrices=False)
    k = s.size
    if s.size == 0 or s[0] == 0.0:
        k = 0
    elif tol is not None:
        k = int(np.sum(s > tol * s[0]))
    if max_rank is not None:
        k = min(k, max_rank)
    return U[:, :k], s[:k], Vh[:k].copy().conj().T  # a view would keep all of Vh alive


_DENSE_SVD_LIMIT = 512
_RANGE_FINDER_SEED = 0x5EED


def range_finder(A, tol, seed=_RANGE_FINDER_SEED, block=32):
    """Seeded Gaussian range finder with two power steps.

    Returns (Q, B, s): Q has orthonormal columns spanning the sampled
    range of A, B = Q* A, and s holds the singular values of B. The
    sample block (complex for complex A) starts at ``block`` columns and
    is doubled with fresh draws from the same generator until the
    captured spectrum provably reaches the cut, s[-1] <= tol * s[0], or
    spans min(m, n) columns. Halko, Martinsson & Tropp, SIAM Rev. 53
    (2011), Algorithm 4.4 (randomized subspace iteration).
    """
    A = _check_input(A, tol)
    m, n = A.shape
    rng = np.random.default_rng(seed)
    while True:
        k = min(block, m, n)
        Om = rng.standard_normal((n, k))
        if np.iscomplexobj(A):
            Om = Om + 1j * rng.standard_normal((n, k))
        Q, _ = np.linalg.qr(A @ Om)
        for _ in range(2):
            Q, _ = np.linalg.qr(A.conj().T @ Q)
            Q, _ = np.linalg.qr(A @ Q)
        B = Q.conj().T @ A
        s = np.linalg.svd(B, compute_uv=False)
        if k == min(m, n) or s[0] == 0.0 or s[-1] <= tol * s[0]:
            return Q, B, s
        block *= 2


def low_rank_approx(A, tol) -> LowRankFactor:
    """Compress a dense block to a LowRankFactor at the truncated-SVD cut.

    Small blocks go through the full SVD. Large ones go through
    ``range_finder``, whose certified basis makes the SVD of the
    projected block reproduce the leading singular triplets to machine
    accuracy, so the returned factors match the dense path at the same
    tolerance.
    """
    A = np.asarray(A)
    if min(A.shape) <= _DENSE_SVD_LIMIT:
        U, s, V = truncated_svd(A, tol)
        return LowRankFactor(U * s, V)
    Q, B, _ = range_finder(A, tol)
    Ub, s, Vh = np.linalg.svd(B, full_matrices=False)
    r = eps_rank(s, tol)
    return LowRankFactor((Q @ Ub[:, :r]) * s[:r], Vh[:r].copy().conj().T)  # not a view of Vh


def recompress(factor: LowRankFactor, tol) -> LowRankFactor:
    """Truncate a factor pair to the numerical rank of its product.

    Thin QR of both sides reduces the problem to an SVD of the k-by-k
    core, so the cost is O((m + n) k^2) and never touches the dense
    product.
    """
    if factor.rank == 0:
        return factor
    Qu, Ru = np.linalg.qr(factor.U)
    Qv, Rv = np.linalg.qr(factor.V)
    Uc, s, Vc = truncated_svd(Ru @ Rv.conj().T, tol)
    return LowRankFactor((Qu @ Uc) * s, Qv @ Vc)


def interpolative_decomposition(A, tol) -> InterpolativeFactor:
    """Column ID: a skeleton of A's own columns plus interpolation weights.

    Built from the column-pivoted QR: with A P = Q [R11 R12], the
    skeleton is the first k pivots and interp = R11^{-1} R12, so
    A ~= A[:, skeleton] @ [I | interp] P^T up to c * tol * ||A||.
    """
    A = _check_input(A, tol)
    _, R, perm, rank = cpqr(A, tol)
    if rank == 0:
        return InterpolativeFactor(
            skeleton=np.empty(0, dtype=int),
            interp=np.empty((0, A.shape[1]), dtype=A.dtype),
            perm=np.asarray(perm),
        )
    n = A.shape[1]
    if rank < n:
        interp = scipy.linalg.solve_triangular(R[:, :rank], R[:, rank:])
    else:
        interp = np.empty((rank, 0), dtype=R.dtype)
    return InterpolativeFactor(
        skeleton=np.asarray(perm[:rank]), interp=interp, perm=np.asarray(perm)
    )


def lu_factor_checked(A, where):
    """Partially pivoted LU of a square matrix as ``(lu, piv)`` for ``lu_solve``.

    Raises SingularMatrixError naming ``where`` (a node, level or box)
    when a pivot underflows to zero.
    """
    lu, piv = scipy.linalg.lu_factor(A)
    small = np.nonzero(np.abs(np.diag(lu)) < 1e-300)[0]
    if small.size:
        raise SingularMatrixError(f"{where} is singular (pivot {int(small[0])})")
    return lu, piv


def dense_lu_solve(A, B):
    """Solve A X = B by partially pivoted LU; a zero pivot raises."""
    return scipy.linalg.lu_solve(lu_factor_checked(_check_input(A), "matrix"), B)


def complex_singular_values(A):
    """Singular values of a real or complex matrix, non-increasing."""
    return np.linalg.svd(_check_input(A), compute_uv=False)


def eps_rank(sigmas, eps) -> int:
    """Numerical rank: number of singular values with sigma_j > eps * sigma_1."""
    s = np.asarray(sigmas)
    if s.size == 0 or s[0] <= 0.0:
        return 0
    return int(np.sum(s > eps * s[0]))
