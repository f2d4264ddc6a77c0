"""Two solvers for the 1D Dirichlet problem -u'' + m(x) u = g on (a, b).

The finite-difference route assembles the classical tridiagonal system
on the uniform interior grid x_i = a + i h, h = (b-a)/(N+1), as a scipy
DIA matrix, and solves it with LAPACK gtsv; its condition number grows
like N^2. The integral-equation route rewrites the problem through the
Green's function of -d^2/dx^2 and discretizes with the trapezoidal
rule, giving the dense but well-conditioned system (I + G M) u = G g
whose matrix is diagonal-plus-semi-separable. On the shared grid the
two discrete systems are mathematically equivalent: G is the exact
inverse of the m = 0 stencil, so each of its strict triangles is rank 1.

``condition_study`` compares the two routes' condition numbers and
errors as N grows.
"""

from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse

from .linalg import SingularMatrixError
from .solve import factor

__all__ = [
    "Bvp1dProblem",
    "assemble_fd",
    "solve_tridiag",
    "green_1d",
    "assemble_nystrom",
    "solve_bvp_ie",
    "solve_bvp_fd",
    "condition_study",
]


def _real(x, name):
    """x as a float64 array; complex data raises ValueError naming it."""
    if np.iscomplexobj(x):
        raise ValueError(f"{name} must be real, got complex values")
    return np.asarray(x, dtype=float)


@dataclass
class Bvp1dProblem:
    """Coefficient samples of -u'' + m u = g with Dirichlet data fa, fb."""

    a: float
    b: float
    N: int
    m: np.ndarray  # m(x_i), i = 1..N
    g: np.ndarray  # g(x_i), i = 1..N
    fa: float = 0.0
    fb: float = 0.0

    def __post_init__(self):
        if self.N < 1:
            raise ValueError(f"need at least one interior point, got N={self.N}")
        self.m, self.g = _real(self.m, "m"), _real(self.g, "g")
        if self.m.shape != (self.N,) or self.g.shape != (self.N,):
            raise ValueError("m and g must be sampled at the N interior points")

    @property
    def h(self) -> float:
        return (self.b - self.a) / (self.N + 1)

    @property
    def x(self) -> np.ndarray:
        """Interior nodes x_1 .. x_N."""
        return self.a + self.h * np.arange(1, self.N + 1)

    @classmethod
    def from_functions(cls, a, b, N, m_fun, g_fun, fa=0.0, fb=0.0):
        h = (b - a) / (N + 1)
        x = a + h * np.arange(1, N + 1)
        return cls(a=a, b=b, N=N, m=m_fun(x), g=g_fun(x), fa=fa, fb=fb)


def assemble_fd(p: Bvp1dProblem):
    """Second-order stencil: h^{-2} (-1, 2, -1) plus m(x_i) on the diagonal,
    as an N x N scipy ``dia_array``.

    The Dirichlet values fold into the load: rhs[0] += fa / h^2 and
    rhs[-1] += fb / h^2.
    """
    h2inv = 1.0 / p.h**2
    off = np.full(p.N - 1, -h2inv)
    T = scipy.sparse.diags_array([off, 2.0 * h2inv + p.m, off], offsets=[-1, 0, 1], format="dia")
    rhs = p.g.copy()
    rhs[0] += h2inv * p.fa
    rhs[-1] += h2inv * p.fb
    return T, rhs


def solve_tridiag(T, rhs):
    """Partially pivoted LU solve with the tridiagonal T of ``assemble_fd``:
    ``solve_banded`` of its three diagonals, which runs LAPACK gtsv.

    Pivoting keeps the O(N) solve stable when an oscillatory m makes
    the stencil indefinite. A singular matrix raises SingularMatrixError.
    """
    rhs = _real(rhs, "rhs")
    n = T.shape[0]
    if rhs.shape[0] != n:
        raise ValueError(f"rhs length {rhs.shape[0]} != {n}")
    if n == 1 and T.diagonal()[0] == 0.0:  # solve_banded divides 1x1 systems unchecked
        raise SingularMatrixError("zero pivot in 1x1 system")
    ab = np.zeros((3, n))
    ab[0, 1:] = T.diagonal(1)
    ab[1, :] = T.diagonal()
    ab[2, :-1] = T.diagonal(-1)
    try:
        return scipy.linalg.solve_banded((1, 1), ab, rhs)
    except np.linalg.LinAlgError as exc:
        raise SingularMatrixError(str(exc)) from exc


def green_1d(x, y, a, b):
    """Green's function of -d^2/dx^2 with zero Dirichlet data on [a, b].

    (b-x)(y-a)/(b-a) for x >= y and (x-a)(b-y)/(b-a) for x <= y;
    symmetric and continuous on the diagonal, vanishing at both ends.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if np.any(x < a) or np.any(x > b) or np.any(y < a) or np.any(y > b):
        raise ValueError("arguments outside the interval")
    lower = (b - x) * (y - a)
    upper = (x - a) * (b - y)
    return np.where(x >= y, lower, upper) / (b - a)


_ROW_BLOCK = 1 << 15  # entries per block of rows in assemble_nystrom


def assemble_nystrom(p: Bvp1dProblem):
    """Trapezoidal Nystrom system (I + G M, G g) on the interior grid.

    G[i, j] = h * green_1d(x_i, x_j); the h/2 endpoint weights never
    enter because the density vanishes at the boundary. G is formed
    block of rows by block of rows in the returned array, rhs = G g is
    taken from it, and it is then turned into I + G M in place, so the
    only N x N array is the result.
    """
    x, N = p.x, p.N
    left, right = x - p.a, p.b - x
    system = np.empty((N, N))
    step = max(1, _ROW_BLOCK // N)
    for i in range(0, N, step):
        r = slice(i, i + step)
        blk = system[r]
        # x increases, so left of the diagonal block green_1d takes its
        # lower branch and right of it its upper branch
        for out, u, v in ((blk[:, :i], right, left[:i]),
                          (blk[:, i + step:], left, right[i + step:])):
            np.multiply(u[r, None], v, out=out)
            np.divide(out, p.b - p.a, out=out)
        blk[:, r] = green_1d(x[r, None], x[None, r], p.a, p.b)
        np.multiply(p.h, blk, out=blk)
    rhs = system @ p.g
    for i in range(0, N, step):
        blk = system[i:i + step]
        np.multiply(blk, p.m, out=blk)
        blk += 0.0  # as in I + G M: an entry G m = -0.0 reads +0.0
    system.flat[::N + 1] += 1.0
    return system, rhs


def solve_bvp_fd(p: Bvp1dProblem):
    """Finite-difference solution samples at the interior nodes."""
    T, rhs = assemble_fd(p)
    return solve_tridiag(T, rhs)


def solve_bvp_ie(p: Bvp1dProblem):
    """Integral-equation solution samples at the interior nodes.

    General Dirichlet data enters through the linear lift
    w(x) = fa (b-x)/(b-a) + fb (x-a)/(b-a): v solves the zero-boundary
    problem with load g - m w, and u = v + w.
    """
    x = p.x
    w = (p.fa * (p.b - x) + p.fb * (x - p.a)) / (p.b - p.a)
    p0 = Bvp1dProblem(a=p.a, b=p.b, N=p.N, m=p.m, g=p.g - p.m * w)
    system, rhs = assemble_nystrom(p0)
    try:
        v = factor(system, "dense").apply(rhs)
    except SingularMatrixError as exc:
        raise SingularMatrixError(
            "integral-equation system is singular (boundary value problem "
            f"eigenvalue?): {exc}"
        ) from exc
    return v + w


# -- conditioning experiment --------------------------------------------------


def _fig2_m(x):
    return 100.0 * (1.0 + x) * np.cos(x)


def _fig2_g(x):
    return 1.0 + np.cos(1.0 + x)


@dataclass
class ConditionRow:
    N: int
    cond_fd: float
    cond_ie: float
    err_fd: float
    err_ie: float


def condition_study(N_list, case="nonosc"):
    """Condition numbers and errors of the FD and IE routes, per N.

    The model problem is m(x) = 100 (1+x) cos(x), g(x) = 1 + cos(1+x)
    on [0, 1] with zero boundary data; ``case='osc'`` flips the sign of
    m, which makes the solution oscillatory. Condition numbers come from
    full SVDs; errors are max-norm deviations from a reference computed
    at four times the largest N and interpolated linearly.
    """
    if case not in ("osc", "nonosc"):
        raise ValueError(f"unknown case {case!r}")
    sign = -1.0 if case == "osc" else 1.0
    m_fun = lambda x: sign * _fig2_m(x)

    N_list = sorted(int(N) for N in N_list)
    if not N_list or N_list[0] < 1:
        raise ValueError("need positive N values")
    if N_list[-1] > 4096:
        raise ValueError("dense condition numbers are capped at N = 4096")

    N_ref = 4 * (N_list[-1] + 1) - 1
    ref = Bvp1dProblem.from_functions(0.0, 1.0, N_ref, m_fun, _fig2_g)
    u_ref = solve_bvp_fd(ref)
    x_ref = np.concatenate([[ref.a], ref.x, [ref.b]])
    u_ref_full = np.concatenate([[0.0], u_ref, [0.0]])
    u_scale = np.max(np.abs(u_ref))

    rows = []
    for N in N_list:
        p = Bvp1dProblem.from_functions(0.0, 1.0, N, m_fun, _fig2_g)
        T, rhs_fd = assemble_fd(p)
        u_fd = solve_tridiag(T, rhs_fd)
        system, _ = assemble_nystrom(p)
        u_ie = solve_bvp_ie(p)
        u_star = np.interp(p.x, x_ref, u_ref_full)
        rows.append(
            ConditionRow(
                N=N,
                cond_fd=float(np.linalg.cond(T.toarray())),
                cond_ie=float(np.linalg.cond(system)),
                err_fd=float(np.max(np.abs(u_fd - u_star)) / u_scale),
                err_ie=float(np.max(np.abs(u_ie - u_star)) / u_scale),
            )
        )
    return rows
