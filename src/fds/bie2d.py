"""Interior Dirichlet Laplace problem on a smooth closed curve.

The solution is sought as a double layer potential with density sigma;
collocation at nodes equispaced in parameter with trapezoidal weights
w_j = (2 pi / N) |gamma'(t_j)| gives the Nystrom system

    (-1/2 I + K) sigma = f,     K[i, j] = w_j d(x_i, x_j),

where d(x, y) = n(y) . grad_y phi(x - y) and phi(r) = -log|r| / (2 pi).
The kernel is smooth on the curve; its diagonal limit is -kappa/(4 pi)
with kappa the signed curvature of the counterclockwise
parameterization. Under these conventions the double layer of the unit
density equals -1 everywhere inside (the Gauss identity), which the
tests pin down against an adaptive-quadrature oracle.

The curves form one polar family, gamma(t) = (a r(t) cos t, b r(t) sin t)
with r = 1 + amp cos(arms t), a, b > 0 and 0 <= amp < 1: circle(R) is
(a, b, amp) = (R, R, 0), ellipse(a, b) is (a, b, 0) and starfish(amp,
arms) is (1, 1, amp). No self-intersection check is needed:
r > 0 makes every member star-shaped about the origin, and the sampled
polygon is simple too, because consecutive nodes t_j < t_{j+1} satisfy
gamma(t_j) x gamma(t_{j+1}) = a b r_j r_{j+1} sin(2 pi / N) > 0 (N >= 16),
so the nodes wind once around the origin in strictly increasing angle.

Also here: proxy-surface compression of far-field blocks of the Nystrom
matrix, and the separated multipole expansion of the log kernel used to
explain the observed ranks.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from .linalg import (
    LowRankFactor,
    SeparationError,
    _inexact,
    interpolative_decomposition,
    recompress,
)
from .solve import factor
from .tree import build_uniform_tree

__all__ = [
    "Curve",
    "make_curve",
    "dlp_kernel",
    "BieSystem",
    "assemble_bie",
    "solve_interior_dirichlet",
    "eval_double_layer",
    "SeparationError",
    "proxy_compress_block",
    "multipole_approx",
    "laplace_fundamental",
]

GAUSS_INTERIOR_CONSTANT = -1.0  # value of D[1] inside Gamma under our conventions


def laplace_fundamental(r):
    """phi(r) = -log(r) / (2 pi), the 2D Laplace fundamental solution."""
    return -np.log(r) / (2.0 * np.pi)


@dataclass
class Curve:
    """Closed analytic curve sampled at N parameter-equispaced nodes."""

    t: np.ndarray  # parameter values on [0, 2 pi)
    x: np.ndarray  # nodes, (N, 2)
    normal: np.ndarray  # outward unit normals, (N, 2)
    speed: np.ndarray  # |gamma'(t_j)|
    curvature: np.ndarray  # signed curvature of the CCW parameterization
    weights: np.ndarray  # (2 pi / N) * speed

    @property
    def N(self) -> int:
        return len(self.t)

    def max_spacing(self) -> float:
        d = np.linalg.norm(np.roll(self.x, -1, axis=0) - self.x, axis=1)
        return float(d.max())


_PARAMS = {"circle": ("radius",), "ellipse": ("a", "b"), "starfish": ("amp", "arms")}


def _polar_params(kind, params):
    """The checked (a, b, amp, arms) of a named curve."""
    names = _PARAMS.get(kind)
    if names is None:
        raise ValueError(f"unknown curve kind {kind!r}")
    if len(params) != len(names):
        raise ValueError(f"{kind} takes {len(names)} parameter(s) {', '.join(names)}; "
                         f"got {len(params)}")
    if kind == "starfish":
        amp, arms = params
        if not 0 < amp < 1:
            raise ValueError("starfish amplitude must lie in (0, 1)")
        if not (float(arms).is_integer() and arms >= 1):
            raise ValueError(f"starfish arms must be a positive integer, got {arms!r}")
        return 1.0, 1.0, amp, int(arms)
    if not all(0 < p < np.inf for p in params):
        raise ValueError(f"{kind} {' and '.join(names)} must be positive and finite")
    a, b = params if kind == "ellipse" else params * 2
    return a, b, 0.0, 0


def make_curve(kind, N, *params) -> Curve:
    """Sample a named member of the polar family: circle(radius),
    ellipse(a, b) or starfish(amp, arms).

    Nodes are equispaced in parameter; weights carry the speed factor so
    that sums approximate arclength integrals with spectral accuracy. A
    wrong parameter count, a parameter out of range, or sizes whose
    speed or curvature leaves floating-point range raise ValueError.
    """
    if N < 16 or N % 2:
        raise ValueError(f"need an even node count N >= 16, got {N}")
    a, b, amp, arms = _polar_params(kind, params)
    t = 2.0 * np.pi * np.arange(N) / N
    cos, sin = np.cos(t), np.sin(t)
    with np.errstate(all="ignore"):  # out-of-range geometry is refused just below
        r = 1.0 + amp * np.cos(arms * t)
        dr = -amp * arms * np.sin(arms * t)
        ddr = -amp * arms * arms * np.cos(arms * t)
        x = np.column_stack([a * (r * cos), b * (r * sin)])
        dx = np.column_stack([a * (dr * cos - r * sin), b * (dr * sin + r * cos)])
        ddx = np.column_stack([a * (ddr * cos - 2 * dr * sin - r * cos),
                               b * (ddr * sin + 2 * dr * cos - r * sin)])
        speed = np.linalg.norm(dx, axis=1)
        curvature = (dx[:, 0] * ddx[:, 1] - dx[:, 1] * ddx[:, 0]) / speed**3
    if not (np.all((0 < speed) & (speed < np.inf)) and np.all(np.isfinite(curvature))):
        raise ValueError(f"{kind} {' and '.join(_PARAMS[kind])} = {', '.join(map(str, params))}: "
                         "speed must be finite and positive and curvature finite at every node")
    normal = np.column_stack([dx[:, 1], -dx[:, 0]]) / speed[:, None]
    return Curve(
        t=t,
        x=x,
        normal=normal,
        speed=speed,
        curvature=curvature,
        weights=(2.0 * np.pi / N) * speed,
    )


def _offsets(x, y):
    """Components dx, dy of x - y and r2 = dx*dx + dy*dy, for (..., 2) arrays."""
    dx = x[..., 0] - y[..., 0]
    dy = x[..., 1] - y[..., 1]
    return dx, dy, dx * dx + dy * dy


def _dlp(x, y, n_y):
    """Double layer kernel entries and r2 = |x - y|^2, unchecked.

    Inputs are (..., 2) arrays that broadcast against each other. Working
    one coordinate at a time (dx, dy, r2 = dx*dx + dy*dy, dx*nx + dy*ny)
    avoids (..., 2) temporaries and length-2 reductions, which dominated
    the cost of assembly and evaluation. Coincident points give r2 = 0
    and a non-finite entry; callers either reject them or overwrite them.
    """
    dx, dy, r2 = _offsets(x, y)
    with np.errstate(divide="ignore", invalid="ignore"):
        return (dx * n_y[..., 0] + dy * n_y[..., 1]) / (2.0 * np.pi * r2), r2


def _reject_coincident(r2):
    if np.any(r2 == 0.0):
        raise ValueError("kernel evaluated at coincident points; use the curvature limit")


def dlp_kernel(x, y, n_y):
    """Double layer kernel d(x, y) = n(y) . grad_y phi(x - y).

    With phi = -log|r|/(2 pi) this is (x - y) . n(y) / (2 pi |x - y|^2).
    Broadcasts over leading dimensions; x == y raises (callers must use
    the curvature limit).
    """
    K, r2 = _dlp(np.asarray(x, dtype=float), np.asarray(y, dtype=float), np.asarray(n_y))
    _reject_coincident(r2)
    return K


@dataclass
class BieSystem:
    matrix: np.ndarray  # -1/2 I + K, with the curvature limit on the diagonal
    rhs: np.ndarray


def assemble_bie(curve: Curve, f) -> BieSystem:
    """Nystrom system (-1/2 I + K) sigma = f on the curve nodes; f may be complex.

    The matrix is written into one preallocated N x N array, about
    2^15 / N rows at a time, so each block's kernel temporaries stay in
    cache; no other N x N array is made. Row i takes w_j d(x_i, x_j)
    off the diagonal and (-kappa_i / (4 pi)) w_i - 1/2 on it, with the
    same operations per entry as the one-shot formula, so the result is
    bitwise equal to it.
    """
    f = _inexact(f)
    N = curve.N
    if f.shape[0] != N:
        raise ValueError("boundary data must be sampled at the curve nodes")
    A = np.empty((N, N))
    step = max(1, 2**15 // N)
    for i in range(0, N, step):
        K, _ = _dlp(curve.x[i:i + step, None, :], curve.x[None, :, :], curve.normal[None, :, :])
        np.multiply(K, curve.weights, out=A[i:i + step])
    A[np.diag_indices(N)] = (-curve.curvature / (4.0 * np.pi)) * curve.weights - 0.5
    return BieSystem(matrix=A, rhs=f)


def solve_interior_dirichlet(curve: Curve, f, backend="dense", tol=1e-10):
    """Density sigma solving the interior Dirichlet problem with data f.

    ``backend`` (dense, hodlr or hbs) picks the ``solve.factor`` pipeline
    applied to the Nystrom system; ``tol`` is its compression tolerance.
    """
    if backend not in ("dense", "hodlr", "hbs"):
        raise ValueError(f"unknown backend {backend!r}")
    system = assemble_bie(curve, f)
    tree = build_uniform_tree(curve.N, leaf_size=max(32, min(64, curve.N // 4)))
    return factor(system.matrix, backend, tree, tol).apply(system.rhs)


def eval_double_layer(curve: Curve, sigma, targets):
    """Evaluate u = D[sigma] at interior targets by plain quadrature.

    A complex sigma gives complex values. Returns (values, near_mask);
    entries of ``near_mask`` flag targets closer to the curve than five
    node spacings, where the plain rule is inaccurate (a warning is also
    emitted; no corrected quadrature here).
    """
    sigma = _inexact(sigma)
    targets = np.atleast_2d(np.asarray(targets, dtype=float))
    K, r2 = _dlp(targets[:, None, :], curve.x[None, :, :], curve.normal[None, :, :])
    _reject_coincident(r2)
    u = K @ (curve.weights * sigma)
    near = np.sqrt(np.min(r2, axis=1)) < 5.0 * curve.max_spacing()
    if np.any(near):
        warnings.warn(
            f"{int(near.sum())} target(s) within 5 node spacings of the curve; "
            "plain quadrature is inaccurate there",
            stacklevel=2,
        )
    return u, near


# -- proxy-surface compression --------------------------------------------------


def proxy_compress_block(curve: Curve, source_idx, far_idx, center, radius, n_proxy, tol):
    """Low-rank factor of the far-field block A(far, source) via a proxy circle.

    The potential on any circle enclosing the sources determines their
    field everywhere outside, so the small source-to-proxy matrix is
    skeletonized instead of the tall source-to-far block: its column ID
    picks the skeleton sources, and the factor is A(far, skeleton) times
    the interpolation weights. Entries follow the assembled system,
    A(i, j) = w_j d(x_i, x_j). The proxy basis resolves *every* exterior
    direction, while the actual far nodes occupy only some of them, so
    the raw skeleton runs systematically larger than the block's own
    numerical rank; a final O((m + n) k^2) recompression of the factor
    pair removes that slack without ever forming the dense block.
    """
    source_idx = np.asarray(source_idx, dtype=int)
    far_idx = np.asarray(far_idx, dtype=int)
    center = np.asarray(center, dtype=float)
    src = curve.x[source_idx]
    src_radius = np.max(np.linalg.norm(src - center, axis=1))
    if radius < 1.5 * src_radius:
        raise SeparationError(
            f"proxy radius {radius:.3g} is below 1.5x the source patch radius "
            f"{src_radius:.3g}"
        )
    if far_idx.size:
        far_dist = np.linalg.norm(curve.x[far_idx] - center, axis=1)
        if np.min(far_dist) <= radius:
            raise SeparationError("far nodes intersect the proxy circle")
    if far_idx.size == 0:
        z = np.zeros
        return LowRankFactor(z((0, 0)), z((len(source_idx), 0)))
    ang = 2.0 * np.pi * np.arange(n_proxy) / n_proxy
    proxy = center + radius * np.column_stack([np.cos(ang), np.sin(ang)])
    B = dlp_kernel(
        proxy[:, None, :], curve.x[source_idx][None, :, :],
        curve.normal[source_idx][None, :, :],
    ) * curve.weights[source_idx][None, :]
    skel, X = interpolative_decomposition(B, tol)
    Ufar = dlp_kernel(
        curve.x[far_idx][:, None, :],
        curve.x[source_idx[skel]][None, :, :],
        curve.normal[source_idx[skel]][None, :, :],
    ) * curve.weights[source_idx[skel]][None, :]
    return recompress(LowRankFactor(Ufar, X.conj().T), tol)


# -- multipole expansion of the log kernel --------------------------------------


def multipole_approx(sources, charges, targets, center, p):
    """Truncated separated expansion of sum_s q_s * (-log|x - y_s|).

    ``p`` counts retained harmonics: the monopole -log(r) plus p - 1
    cosine/sine pairs of the standard 2D multipole expansion about
    ``center``. Targets must be well separated from the source box
    (outside the concentric box of three times its side length).
    """
    sources = np.atleast_2d(np.asarray(sources, dtype=float))
    targets = np.atleast_2d(np.asarray(targets, dtype=float))
    charges = np.asarray(charges, dtype=float)
    center = np.asarray(center, dtype=float)
    if p < 1:
        raise ValueError("need at least the monopole term (p >= 1)")
    half = np.max(np.abs(sources - center))  # half the source box side
    if np.any(np.max(np.abs(targets - center), axis=1) < 3.0 * half):
        raise SeparationError(
            "target inside the 3x concentric box; expansion not valid there"
        )
    ds = sources - center
    rs = np.hypot(ds[:, 0], ds[:, 1])
    ths = np.arctan2(ds[:, 1], ds[:, 0])
    dt = targets - center
    rt = np.hypot(dt[:, 0], dt[:, 1])
    tht = np.arctan2(dt[:, 1], dt[:, 0])
    u = np.sum(charges) * (-np.log(rt))
    for j in range(1, p):
        rj = rs**j
        cj = np.dot(charges, rj * np.cos(j * ths))
        sj = np.dot(charges, rj * np.sin(j * ths))
        u += (rt ** (-j) / j) * (np.cos(j * tht) * cj + np.sin(j * tht) * sj)
    return u
