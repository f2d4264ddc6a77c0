"""Dense rank-revealing kernels used by every structured format.

All matrices are plain ``numpy.ndarray`` objects (real or complex,
2-dimensional). Truncation is always block-relative: a factorization at
tolerance ``tol`` keeps singular values (or pivots) above ``tol`` times
the largest one of the block being compressed, which keeps compression
scale-invariant. The pivots come from LAPACK's column-pivoted QR,
which ``_pivoted_qr`` runs without forming Q; the HBS skeletons take its
pivots alone, and ``interpolative_decomposition`` adds the interpolation
matrix. ``low_rank_approx`` compresses a HODLR block by cross
approximation, certified by a seeded Gaussian sketch; a block the
sketch refuses is sampled by ``range_finder`` instead. Either factor
pair is cut by ``recompress``, the one truncated-SVD cut. The range
finder is the one seeded randomized sampler, which
``experiments.spectrum_potential`` also uses for large Helmholtz
spectra: a block Krylov range finder that keeps every power iterate in
its basis, takes the rows of B = Q* A from the products its A* steps
make anyway, and deflates power-step columns once the sampled range is
captured.
"""

from dataclasses import dataclass

import numpy as np
import scipy.linalg

__all__ = [
    "LowRankFactor",
    "SingularMatrixError",
    "SeparationError",
    "truncated_svd",
    "range_finder",
    "low_rank_approx",
    "recompress",
    "interpolative_decomposition",
    "lu_factor_checked",
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

    def todense(self) -> np.ndarray:
        return self.U @ self.V.conj().T


def _check_input(A, tol=None):
    A = np.asarray(A)
    if A.ndim != 2 or A.size == 0:
        raise ValueError(f"expected a nonempty matrix, got shape {A.shape}")
    if not np.all(np.isfinite(A)):
        raise ValueError("matrix contains non-finite entries")
    if tol is not None:
        _check_tol(tol)
    return A


def _check_rhs(b, N):
    """b as an array, or ValueError unless its shape is (N,) or (N, r)."""
    b = np.asarray(b)
    if b.shape[:1] != (N,) or b.ndim > 2:
        raise ValueError(f"right-hand side shape {b.shape} is not ({N},) or ({N}, r)")
    return b


def _check_tol(tol):
    if not (0.0 < tol < 1.0):
        raise ValueError(f"relative tolerance must lie in (0,1), got {tol}")


def _inexact(x):
    """x as a float64 array, or complex128 when x is complex."""
    x = np.asarray(x)
    return x.astype(np.result_type(x, float), copy=False)


def _pivoted_qr(A, tol):
    """(R, perm, k): the R of the column-pivoted QR A[:, perm] = Q R,
    without forming Q, and its cut k, the first j with |R_jj| <= tol |R_00|
    (0 for a zero matrix, min(m, n) when no pivot is that small)."""
    R, perm = scipy.linalg.qr(_check_input(A, tol), mode="r", pivoting=True,
                              check_finite=False)
    d = np.abs(np.diag(R))
    below = np.flatnonzero(d <= tol * d[0])
    return R, perm, int(below[0]) if below.size else d.size


def truncated_svd(A, tol):
    """SVD truncated at sigma_j > tol * sigma_1.

    Returns (U, s, V) with A ~= U @ diag(s) @ V.conj().T and s
    non-increasing. A zero matrix yields rank 0 (empty factors).
    """
    U, s, Vh = np.linalg.svd(_check_input(A, tol), full_matrices=False)
    k = eps_rank(s, tol)
    return U[:, :k], s[:k], Vh[:k].copy().conj().T  # a view would keep all of Vh alive


_RANGE_FINDER_SEED = 0x5EED
_RANGE_FINDER_START = 32  # Gaussian columns in the first draw
_RANGE_FINDER_TAIL = 10  # sampled singular values that must lie at or below the cut
_ACA_REL_TOL = 1e-2  # cross approximation stops two orders below the compression tol
_CERTIFY_SEED = 0xACA
_CERTIFY_SAMPLES = 8  # Gaussian vectors in the certifying sketch: failure odds 1e-8


def range_finder(A, tol, seed=_RANGE_FINDER_SEED):
    """Seeded Gaussian block Krylov range finder that keeps its samples.

    Returns (Q, B, s): Q has orthonormal columns spanning the sampled
    range of A, B = Q* A, and s holds the singular values of B. Each
    draw of b Gaussian columns Omega (complex for complex A) takes two
    power steps and keeps every iterate (Musco & Musco, NeurIPS 2015):
    Y0 = orth(A Omega), and for i = 0, 1 the rows Yi* A join B, their
    orthonormal basis W is the A* step, and Y(i+1) = orth(A W); the rows
    Y2* A close B. So B needs no product of its own, A is read in place
    and never copied, and a draw of six products with A or A* adds up
    to 3b columns where the last power iterate alone would add b
    (Halko, Martinsson & Tropp, SIAM Rev. 53 (2011), Algorithm 4.4).
    Every block is orthogonalized against the kept Q after its product
    with A (Martinsson & Voronin, SISC 38 (2016)). A power-step block
    collapses once the sampled range is captured; its directions off Q
    of size at or below tol / 10 times the largest singular value of
    B's blocks so far are deflated (dropped), not normalized. Fresh
    columns are always kept. The first draw has 32 columns; while fewer
    than 10 values of s lie at or below ``tol * s[0]``, a new draw
    doubles the number of drawn columns, up to min(m, n) columns of Q.
    The stop test reads the sampled spectrum; it does not prove that the
    cut is reached.
    """
    A = _check_input(A, tol)
    m, n = A.shape
    rng = np.random.default_rng(seed)
    Q = np.empty((m, 0), dtype=A.dtype)
    B = np.empty((0, n), dtype=A.dtype)
    drawn, scale = 0, 0.0
    while True:
        b = min(max(drawn, _RANGE_FINDER_START), min(m, n) - Q.shape[1])
        drawn += b
        Y = _orth_against(Q, A @ _gaussian(rng, (n, b), A))
        for step in range(3):  # the drawn block, then one per power step
            Q = np.hstack([Q, Y])
            Bi = Y.conj().T @ A
            B = np.vstack([B, Bi])
            if step == 2:
                break
            W, R = np.linalg.qr(Bi.conj().T)  # the A* step
            scale = max(scale, np.linalg.norm(R, 2))
            Y = _deflate(Q, A @ W, 0.1 * tol * scale, min(m, n) - Q.shape[1])
            if Y.shape[1] == 0:
                break
        s = np.linalg.svd(B, compute_uv=False)
        if (Q.shape[1] == min(m, n) or s[0] == 0.0
                or np.count_nonzero(s <= tol * s[0]) >= _RANGE_FINDER_TAIL):
            return Q, B, s


def _gaussian(rng, shape, A):
    """A standard Gaussian draw from ``rng``, complex when A is: real part
    first, then the imaginary part."""
    Om = rng.standard_normal(shape)
    if np.iscomplexobj(A):
        Om = Om + 1j * rng.standard_normal(shape)
    return Om


def _project_off(Q, Y):
    """Y projected twice off range(Q); Q may have no columns."""
    for _ in range(2):
        Y = Y - Q @ (Q.conj().T @ Y)
    return Y


def _orth_against(Q, Y):
    """Orthonormal basis of Y off range(Q), in two passes of two projections
    and a QR: where the projections removed most of Y, the first QR divides
    out that loss and magnifies what is left of range(Q) in its columns."""
    for _ in range(2):
        Y = np.linalg.qr(_project_off(Q, Y))[0]
    return Y


def _deflate(Q, Y, cut, room):
    """Orthonormal basis of at most ``room`` directions of Y off range(Q):
    those whose |R_jj| in the column-pivoted QR exceeds ``cut``."""
    Qy, R, _ = scipy.linalg.qr(_project_off(Q, Y), mode="economic", pivoting=True,
                               check_finite=False)
    r = min(room, np.count_nonzero(np.abs(np.diag(R)) > cut))
    return _orth_against(Q, Qy[:, :r])


def low_rank_approx(A, tol) -> LowRankFactor:
    """Compress a dense block to a LowRankFactor at the truncated-SVD cut.

    Partially pivoted cross approximation (``_aca``) reads k rows and
    columns of A and stops at a tolerance two orders below ``tol``. Its
    untruncated approximant S is then certified: with 8 seeded Gaussian
    vectors w_j (complex for complex A), 10 sqrt(2/pi) max_j ||w_j^T (A - S)||
    <= tol * sigma_1(S) proves ||A - S|| <= tol * sigma_1(S) except with
    probability 1e-8 (Halko, Martinsson & Tropp, SIAM Rev. 53 (2011),
    Lemma 4.1, applied to (A - S)^T); the sketch is the one read of every
    entry, and from the left it streams the rows of a C-ordered A. A
    certified S is cut by ``recompress``; for a refused one,
    ``_sampled_approx`` cuts the sample of ``range_finder`` instead. A
    non-finite entry raises ValueError, from ``recompress`` or, since it
    always fails the sketch, from the range finder.
    """
    _check_tol(tol)
    A = np.asarray(A)
    Om = _gaussian(np.random.default_rng(_CERTIFY_SEED), (_CERTIFY_SAMPLES, A.shape[0]), A)
    # a non-finite or overflowing value fails the test, and the range finder handles it
    with np.errstate(all="ignore"):
        S = _aca(A, _ACA_REL_TOL * tol)
        F = recompress(S, tol)
        # the columns of F.U are orthogonal with norms sigma_j(S); recompress keeps sigma_1
        sigma1 = np.linalg.norm(F.U[:, 0]) if F.rank else 0.0
        R = Om @ A - (Om @ S.U) @ S.V.conj().T
        certified = 10.0 * np.sqrt(2.0 / np.pi) * np.linalg.norm(R, axis=1).max() <= tol * sigma1
    return F if certified else _sampled_approx(A, tol)


def _sampled_approx(A, tol) -> LowRankFactor:
    """``range_finder``'s sample Q B of A, cut by ``recompress``.

    The range finder's sample grows until its spectrum has passed the
    cut, so the cut of Q B reproduces the leading singular triplets of
    A to machine accuracy, at the rank of the truncated SVD of A.
    """
    Q, B, _ = range_finder(A, tol)
    return recompress(LowRankFactor(Q, B.conj().T), tol)


def _aca(A, eps) -> LowRankFactor:
    """Partially pivoted adaptive cross approximation (Bebendorf, Numer.
    Math. 86 (2000)): A ~= S_k = sum_l u_l v_l*, built from k residual rows
    and columns of A read by plain indexing.

    Each step takes the residual of the pivot row, pivots on its largest
    entry, and takes the residual of that column; the next pivot row is
    the largest unused entry of the new column. It stops after the first
    term with ||u_k|| ||v_k|| <= eps ||S_k||_F (the norm is updated in
    O(k (m + n))), or at a zero or NaN pivot, or at min(m, n) terms.
    The factor rows start with room for 16 terms and double when full, so
    a low-rank block holds O(k (m + n)) scalars, not min(m, n) (m + n).
    """
    m, n = A.shape
    dtype = np.result_type(A, float)
    Ut = np.empty((min(16, m, n), m), dtype)  # row l holds u_l
    Vt = np.empty((len(Ut), n), dtype)  # row l holds conj(v_l)
    free = np.ones(m, bool)
    i, k, norm2 = 0, 0, 0.0
    while k < min(m, n):
        if k == len(Ut):
            grow = min(2 * k, m, n)
            Ut = np.concatenate([Ut, np.empty((grow - k, m), dtype)])
            Vt = np.concatenate([Vt, np.empty((grow - k, n), dtype)])
        free[i] = False
        row = A[i, :] - Ut[:k, i] @ Vt[:k]
        j = np.argmax(np.abs(row))
        if not np.abs(row[j]) > 0.0:  # a zero residual row, or a non-finite A
            break
        u = A[:, j] - Vt[:k, j] @ Ut[:k]
        Ut[k], Vt[k] = u, row / row[j]
        uu, vv = np.vdot(u, u).real, np.vdot(Vt[k], Vt[k]).real
        norm2 += uu * vv + 2.0 * np.real(np.dot(Ut[:k].conj() @ u, Vt[:k].conj() @ Vt[k]))
        k += 1
        if uu * vv <= eps * eps * norm2:
            break
        i = np.argmax(np.where(free, np.abs(u), -1.0))
    return LowRankFactor(Ut[:k].T.copy(), Vt[:k].conj().T.copy())


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


def interpolative_decomposition(A, tol):
    """Column ID: a skeleton of A's own columns plus interpolation weights.

    Returns (skeleton, X) with A ~= A[:, skeleton] @ X up to c * tol * ||A||.
    From the column-pivoted QR A P = Q [R11 R12] cut at rank k, the
    skeleton is the first k pivots and X[:, perm] = [I | R11^{-1} R12]
    (Cheng, Gimbutas, Martinsson & Rokhlin, SISC 26 (2005)).
    """
    R, perm, k = _pivoted_qr(A, tol)
    X = np.zeros((k, len(perm)), R.dtype)
    X[:, perm[:k]] = np.eye(k)
    if 0 < k < len(perm):
        X[:, perm[k:]] = scipy.linalg.solve_triangular(R[:k, :k], R[:k, k:])
    return perm[:k], X


def lu_factor_checked(A, where):
    """Partially pivoted LU of a square matrix as ``(lu, piv)`` for ``lu_solve``.

    Raises ValueError naming ``where`` when A is not square, and
    SingularMatrixError naming it (a node, level or box) when a pivot
    underflows to zero.
    """
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"{where} must be square, got shape {A.shape}")
    lu, piv = scipy.linalg.lu_factor(A)
    small = np.nonzero(np.abs(np.diag(lu)) < 1e-300)[0]
    if small.size:
        raise SingularMatrixError(f"{where} is singular (pivot {int(small[0])})")
    return lu, piv


def eps_rank(sigmas, eps) -> int:
    """Numerical rank: number of singular values with sigma_j > eps * sigma_1."""
    s = np.asarray(sigmas)
    if s.size == 0 or s[0] <= 0.0:
        return 0
    return int(np.sum(s > eps * s[0]))
