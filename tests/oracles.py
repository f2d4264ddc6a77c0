"""Reference formats and checks that only the tests call.

Each is a plain, unoptimized statement of something the library does
faster or does not need to do at all, kept here as the oracle a test
compares against:

* the one-level Woodbury variation ``woodbury_variant`` and the flat
  block separable format (``BlockSeparableMatrix``,
  ``compress_to_block_separable``, ``block_separable_inverse_apply``),
  the single-level pipeline that ``hbs_invert`` generalizes;
* ``recompress_inverse``, the HODLR inverse compressed back into HODLR
  form;
* ``semiseparable_check``, the rank-1 test of a matrix's triangles;
* ``bessel_j1_y1`` and ``hankel1_first_kind``, the first-order Bessel
  and Hankel functions;
* ``_coarse_intersection_scan``, a segment-against-segment
  self-intersection test of a sampled curve;
* ``assemble_bie_matrix``, the Nystrom matrix formed in one shot from
  full N x N kernel temporaries.
"""

from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.special

from fds.bie2d import _dlp
from fds.hbs import _union_skeleton, _woodbury_variant
from fds.hodlr import HodlrInverseMultiplicative, HodlrMatrix, compress_to_hodlr
from fds.special import _hankel, _pair


def woodbury_variant(D, U, V, Atilde=None):
    """One-level inversion blocks (Dhat, E, F, G) for A = U Atilde V* + D.

    All inputs are dense; D is typically block diagonal. The
    interaction matrix ``Atilde`` never enters the returned blocks (it
    couples only through the core solve (Atilde + Dhat)^{-1} in the
    reconstruction A^{-1} = E (Atilde + Dhat)^{-1} F* + G), so it is
    accepted for signature symmetry but may be omitted. Raises
    SingularMatrixError identifying which of the two inverses failed.
    With an empty low-rank part (K = 0), G = D^{-1} and E, F are empty.
    """
    return _woodbury_variant(D, U, V)[0]


# -- flat (single level) block separable format --------------------------------


@dataclass
class BlockSeparableMatrix:
    """Single-level format: A(I_a, I_b) = U_a Atilde[a,b] V_b* for a != b."""

    partition: list  # list of global index arrays
    U: list
    V: list
    Atilde: dict  # (a, b) -> dense k_a x k_b interaction
    D: list  # dense diagonal blocks
    skeleton: list  # global skeleton indices per block


def compress_to_block_separable(A, partition, tol) -> BlockSeparableMatrix:
    """Skeletonize a dense matrix over a flat partition of its indices."""
    A = np.asarray(A)
    allidx = np.arange(A.shape[0])
    U, V, D, skel = [], [], [], []
    for ia in partition:
        comp = np.setdiff1d(allidx, ia)
        J, Ua, Va = _union_skeleton(A[np.ix_(ia, comp)], A[np.ix_(comp, ia)], tol)
        U.append(Ua)
        V.append(Va)
        D.append(A[np.ix_(ia, ia)].copy())
        skel.append(np.asarray(ia)[J])
    Atilde = {(a, b): A[np.ix_(sa, sb)].copy()
              for a, sa in enumerate(skel) for b, sb in enumerate(skel) if a != b}
    return BlockSeparableMatrix(partition=[np.asarray(i) for i in partition],
                                U=U, V=V, Atilde=Atilde, D=D, skeleton=skel)


def block_separable_inverse_apply(B: BlockSeparableMatrix, u):
    """Apply A^{-1} u through the one-level Woodbury variation.

    The block-diagonal pieces are assembled densely; this routine exists
    as the reference pipeline against which the hierarchical inversion
    is checked.
    """
    Dfull = scipy.linalg.block_diag(*B.D)
    Ufull = scipy.linalg.block_diag(*B.U)
    Vfull = scipy.linalg.block_diag(*B.V)
    At = np.block([[B.Atilde.get((a, b), np.zeros((Ua.shape[1], Vb.shape[1]), Dfull.dtype))
                    for b, Vb in enumerate(B.V)] for a, Ua in enumerate(B.U)])
    Dhat, E, F, G = woodbury_variant(Dfull, Ufull, Vfull, At)
    perm = np.concatenate(B.partition)
    up = np.asarray(u)[perm]
    core = np.linalg.solve(At + Dhat, F.conj().T @ up)
    qp = E @ core + G @ up
    q = np.empty_like(qp)
    q[perm] = qp
    return q


# -- HODLR --------------------------------------------------------------------


def recompress_inverse(inv: HodlrInverseMultiplicative, tol) -> HodlrMatrix:
    """Optional post-hoc compression of the inverse into HODLR form.

    The exact inverse of a rank-k HODLR matrix is not rank-k HODLR (its
    off-diagonal ranks grow with the level count), so this step is a
    controlled approximation: the inverse is applied to identity block
    columns and the result compressed at ``tol``. Off by default
    everywhere else in the package; the factored form stays exact.
    """
    N = inv.tree.N
    # identity block columns; the result takes the inverse's dtype
    dense = np.hstack([inv.apply(np.eye(N, min(64, N - start), -start))
                       for start in range(0, N, 64)])
    return compress_to_hodlr(dense, inv.tree, tol)


# -- 1D boundary value problems -----------------------------------------------


def semiseparable_check(B):
    """Largest normalized 2x2 minor fully inside either strict triangle.

    A value below ~1e-12 certifies that each triangle of B extends to a
    rank-1 matrix (the semi-separable structure of a tridiagonal
    inverse). Minors are normalized by max|B|^2.
    """
    B = np.asarray(B, dtype=float)
    n = B.shape[0]
    if B.shape != (n, n):
        raise ValueError("expected a square matrix")
    scale = np.max(np.abs(B)) ** 2
    if scale == 0.0:
        return 0.0
    worst = 0.0
    for i1 in range(n):
        for i2 in range(i1 + 1, n):
            # a minor on rows (i1, i2) sits inside the strict lower
            # triangle iff both columns are < i1, inside the strict
            # upper triangle iff both are > i2
            for c, d in (
                (B[i1, :i1], B[i2, :i1]),
                (B[i1, i2 + 1:], B[i2, i2 + 1:]),
            ):
                if len(c) < 2:
                    continue
                minors = c[:, None] * d[None, :] - c[None, :] * d[:, None]
                worst = max(worst, float(np.max(np.abs(minors))))
    return worst / scale


# -- special functions --------------------------------------------------------


def bessel_j1_y1(x):
    """J1(x) and Y1(x) for x > 0, elementwise."""
    return _pair(x, scipy.special.j1, scipy.special.y1)


def hankel1_first_kind(x):
    """H1^(1)(x) = J1(x) + i Y1(x) for x > 0, elementwise."""
    return _hankel(*bessel_j1_y1(x))


# -- curves -------------------------------------------------------------------


def _coarse_intersection_scan(x):
    """Reject self-intersecting polygons on a coarse node subsample."""
    n = min(len(x), 128)
    idx = np.linspace(0, len(x), n, endpoint=False).astype(int)
    p = x[idx]
    q = np.roll(p, -1, axis=0)
    d = q - p
    for i in range(n):
        # segment i against all non-adjacent segments j > i + 1
        j = np.arange(i + 2, n - (1 if i == 0 else 0))
        if len(j) == 0:
            continue
        r = d[i]
        s = d[j]
        pq = p[j] - p[i]
        denom = r[0] * s[:, 1] - r[1] * s[:, 0]
        mask = np.abs(denom) > 1e-15
        tt = (pq[:, 0] * s[:, 1] - pq[:, 1] * s[:, 0])[mask] / denom[mask]
        uu = (pq[:, 0] * r[1] - pq[:, 1] * r[0])[mask] / denom[mask]
        if np.any((tt > 0) & (tt < 1) & (uu > 0) & (uu < 1)):
            return True
    return False


def assemble_bie_matrix(curve):
    """-1/2 I + K on the curve nodes, with the curvature limit on the diagonal."""
    K, _ = _dlp(curve.x[:, None, :], curve.x[None, :, :], curve.normal[None, :, :])
    np.fill_diagonal(K, -curve.curvature / (4.0 * np.pi))
    A = K * curve.weights[None, :]
    A[np.diag_indices_from(A)] -= 0.5
    return A
