"""Nested-dissection multifrontal LU for 2D (5-point) and 3D (7-point) grids.

The grid for -Delta u + m u = f on the unit box with Dirichlet exterior
is recursively bisected by grid-line (2D) or grid-plane (3D) separators
into disconnected subdomains. Factoring bottom-up, each node eliminates
its separator through a dense frontal matrix: its couplings in A (real or
complex, symmetric or nonsymmetric pattern) plus the Schur-complement
updates passed up from its children. Dense-kernel flops are counted; they
dominate the O(N^{3/2}) (2D) / O(N^2) (3D) cost.

``schur_offdiag_spectrum`` reproduces the off-diagonal singular-value
study of the top separator's Schur complement,
S_ab = A(I_a, I_2) A_22^{-1} A(I_2, I_b), where I_a and I_b are the two
halves of the separator and I_2 one of the subdomains it cuts off.
"""

from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse

from .linalg import lu_factor_checked
from .results import SpectrumResult

__all__ = [
    "StencilMatrix",
    "assemble_stencil",
    "NdTree",
    "NdNode",
    "nd_partition",
    "NdFactors",
    "nd_factor",
    "nd_solve",
    "schur_offdiag_spectrum",
]


@dataclass
class StencilMatrix:
    """Finite-difference matrix on an n^dim grid, h = 1/(n+1)."""

    dim: int
    n: int
    m_field: np.ndarray
    A: scipy.sparse.csr_matrix

    @property
    def N(self) -> int:
        return self.n**self.dim

    @property
    def h(self) -> float:
        return 1.0 / (self.n + 1)


def assemble_stencil(dim, n, m_field=None) -> StencilMatrix:
    """5-point (dim=2) or 7-point (dim=3) stencil plus a zeroth-order term.

    m_field may be None (zero), a scalar, or per-grid-point samples in
    lexicographic order.
    """
    if dim not in (2, 3):
        raise ValueError(f"dim must be 2 or 3, got {dim}")
    if n < 3:
        raise ValueError(f"need n >= 3 points per side, got {n}")
    N = n**dim
    if m_field is None:
        m = np.zeros(N)
    elif np.isscalar(m_field):
        m = np.full(N, float(m_field))
    else:
        m = np.asarray(m_field, dtype=float).ravel()
        if m.shape != (N,):
            raise ValueError(f"m_field must have {N} samples")
    h2inv = float((n + 1) ** 2)
    eye1 = scipy.sparse.identity(n, format="csr")
    lap1 = scipy.sparse.diags_array(
        [-np.ones(n - 1), 2.0 * np.ones(n), -np.ones(n - 1)], offsets=[-1, 0, 1]
    ).tocsr()
    if dim == 2:
        L = scipy.sparse.kron(lap1, eye1) + scipy.sparse.kron(eye1, lap1)
    else:
        eye2 = scipy.sparse.identity(n * n, format="csr")
        L = (
            scipy.sparse.kron(lap1, eye2)
            + scipy.sparse.kron(eye1, scipy.sparse.kron(lap1, eye1))
            + scipy.sparse.kron(eye2, lap1)
        )
    A = (h2inv * L + scipy.sparse.diags_array(m)).tocsr()
    return StencilMatrix(dim=dim, n=n, m_field=m, A=A)


# -- geometric partition --------------------------------------------------------


@dataclass
class NdNode:
    box: tuple  # ((lo, hi), ...) half-open cell ranges per axis
    separator: np.ndarray  # flat indices eliminated at this node
    children: tuple = ()  # (left NdNode, right NdNode) or empty


@dataclass
class NdTree:
    shape: tuple  # grid points per axis
    root: NdNode

    def postorder(self):
        out, todo = [], [self.root]
        while todo:
            out.append(todo.pop())
            todo.extend(out[-1].children)
        return out[::-1]  # reversed root-right-left preorder


def _flat(shape, *coords):
    idx = coords[0]
    for s, c in zip(shape[1:], coords[1:]):
        idx = idx * s + c
    return idx


def _box_indices(shape, box):
    grids = np.meshgrid(*[np.arange(lo, hi) for lo, hi in box], indexing="ij")
    return _flat(shape, *grids).ravel()


def _partition_box(shape, box, leaf_cells, depth):
    sides = [hi - lo for lo, hi in box]
    if max(sides) <= leaf_cells:
        return NdNode(box=box, separator=_box_indices(shape, box))
    ndim = len(shape)
    # alternate the cut axis by depth, skipping axes too short to split
    for probe in range(ndim):
        axis = (depth + probe) % ndim
        if sides[axis] >= 3 and sides[axis] > leaf_cells:
            break
    else:
        axis = int(np.argmax(sides))
        if sides[axis] < 3:
            return NdNode(box=box, separator=_box_indices(shape, box))
    lo, hi = box[axis]
    cut = lo + (hi - lo - 1) // 2  # center line, left half the smaller
    sep_box = list(box)
    sep_box[axis] = (cut, cut + 1)
    left_box = list(box)
    left_box[axis] = (lo, cut)
    right_box = list(box)
    right_box[axis] = (cut + 1, hi)
    left = _partition_box(shape, tuple(left_box), leaf_cells, depth + 1)
    right = _partition_box(shape, tuple(right_box), leaf_cells, depth + 1)
    return NdNode(
        box=box,
        separator=_box_indices(shape, tuple(sep_box)),
        children=(left, right),
    )


def nd_partition(dim, n, leaf_cells) -> NdTree:
    """Recursive separator decomposition of the n^dim grid.

    Bisection alternates axes, cutting the center grid line (2D) or
    plane (3D); recursion stops when a box side is at most
    ``leaf_cells``.
    """
    if not 3 <= leaf_cells <= n:
        raise ValueError(f"need 3 <= leaf_cells <= n, got leaf_cells={leaf_cells}")
    shape = (n,) * dim
    root = _partition_box(shape, tuple((0, n) for _ in range(dim)), leaf_cells, 0)
    return NdTree(shape=shape, root=root)


# -- multifrontal factorization --------------------------------------------------


@dataclass
class _Front:
    sep: np.ndarray
    bnd: np.ndarray
    lu: tuple
    X: np.ndarray  # F_SS^{-1} F_SB
    F_BS: np.ndarray


@dataclass
class NdFactors:
    tree: NdTree
    fronts: list  # _Front per postorder node
    ordering: np.ndarray  # elimination order (concatenated separators)
    flops: float
    N: int


def _csr_rows(indptr, rows):
    """Positions of the stored entries of ``rows`` in a CSR ``indices``/
    ``data`` pair, and for each position its index into ``rows``."""
    start, count = indptr[rows], indptr[rows + 1] - indptr[rows]
    offset = np.repeat(start - np.cumsum(count) + count, count)
    return np.arange(offset.size) + offset, np.repeat(np.arange(len(rows)), count)


def _lu_solve(getrs, lu, b):
    """``scipy.linalg.lu_solve`` through a prefetched LAPACK ``getrs``."""
    x, info = getrs(lu[0], lu[1], b)
    if info:
        raise ValueError(f"illegal value in argument {-info} of getrs")
    return x


def nd_factor(A, tree: NdTree) -> NdFactors:
    """Multifrontal LU along the separator tree of ``A``.

    A may be a StencilMatrix or any real or complex scipy sparse matrix
    whose couplings the tree's separators cut. A front's boundary comes
    from the pattern of A + A^T, so a nonsymmetric pattern loses neither
    A[S, j] nor A[j, S]; fronts take A's dtype, at least float64. Each
    front is LU-factored with partial pivoting; a singular one raises
    naming the node's box.
    """
    if isinstance(A, StencilMatrix):
        A = A.A
    A = scipy.sparse.csr_array(A)
    N = A.shape[0]
    dtype = np.result_type(A.dtype, float)
    getrs, = scipy.linalg.get_lapack_funcs(("getrs",), dtype=dtype)
    pattern = scipy.sparse.csr_array((np.ones(A.nnz), A.indices, A.indptr), A.shape)
    pattern = (pattern + pattern.T).tocsr()
    eliminated = np.zeros(N, dtype=bool)
    where = np.full(N, -1)  # global index -> row of the current front
    flops = 0.0
    fronts = []
    stack = []  # (boundary, Schur update) of children awaiting their parent
    for node in tree.postorder():
        updates = [stack.pop() for _ in node.children][::-1]  # (left, right)
        S = node.separator
        eliminated[S] = True
        nbr = pattern.indices[_csr_rows(pattern.indptr, S)[0]]
        cand = np.concatenate([nbr] + [cB for cB, _ in updates])
        B = np.unique(cand[~eliminated[cand]])
        idx = np.concatenate([S, B])
        s, b = len(S), len(B)
        where[idx] = np.arange(len(idx))
        # the front owns only the A entries touching its separator; the
        # boundary-boundary entries belong to the ancestor that
        # eliminates the earlier index (else they would be added twice)
        pos, row = _csr_rows(A.indptr, idx)
        col = where[A.indices[pos]]
        keep = (col >= 0) & ((row < s) | (col < s))
        F = np.zeros((len(idx), len(idx)), dtype)
        np.add.at(F, (row[keep], col[keep]), A.data[pos[keep]])
        for cB, U in updates:
            loc = where[cB]
            F[np.ix_(loc, loc)] += U
        where[idx] = -1
        lu = lu_factor_checked(F[:s, :s], f"front at box {node.box}")
        X = _lu_solve(getrs, lu, F[:s, s:])
        F_BS = F[s:, :s].copy()
        stack.append((B, F[s:, s:] - F_BS @ X))
        flops = flops + (2.0 / 3.0) * s**3 + 2.0 * s * s * b + 2.0 * b * s * b
        fronts.append(_Front(sep=S, bnd=B, lu=lu, X=X, F_BS=F_BS))
    ordering = np.concatenate([fr.sep for fr in fronts])
    return NdFactors(tree=tree, fronts=fronts, ordering=ordering, flops=flops, N=N)


def nd_solve(factors: NdFactors, b):
    """Two-sweep substitution through the elimination tree.

    Accepts a single right-hand side or a matrix of them; a NaN or inf
    raises ValueError. The backward sweep reuses the forward sweep's
    z_S = F_SS^{-1} y_S: x_S = z_S - X x_B.
    """
    b = np.asarray(b)
    if not np.isfinite(b).all():
        raise ValueError("array must not contain infs or NaNs")
    single = b.ndim == 1
    lu = factors.fronts[0].lu[0]
    y = b.reshape(factors.N, -1).astype(np.result_type(b, float, lu.dtype))
    getrs, = scipy.linalg.get_lapack_funcs(("getrs",), (lu, y))
    for fr in factors.fronts:
        y[fr.sep] = z = _lu_solve(getrs, fr.lu, y[fr.sep])
        if len(fr.bnd):
            y[fr.bnd] -= fr.F_BS @ z
    for fr in reversed(factors.fronts):
        if len(fr.bnd):
            y[fr.sep] -= fr.X @ y[fr.bnd]
    return y[:, 0] if single else y


# -- Schur-complement spectrum study ---------------------------------------------


def schur_offdiag_spectrum(dim, n, operator="laplace", kappa=None, leaf_cells=8):
    """Singular values of the off-diagonal Schur block of the top separator.

    The grid is cut by its top-level separator into I_2 and I_3; the
    separator itself is halved into I_a and I_b, and
    S_ab = A(I_a, I_2) A_22^{-1} A(I_2, I_b) is formed by solving the
    half-domain system (factored with nested dissection) column by
    column. ``operator`` is "laplace" (m = 0) or "helmholtz"
    (m = -kappa^2).
    """
    if operator == "laplace":
        m = None
        label = f"{dim}d laplace n={n}"
    elif operator == "helmholtz":
        if kappa is None or kappa <= 0:
            raise ValueError("helmholtz needs kappa > 0")
        m = -float(kappa) ** 2
        label = f"{dim}d helmholtz kappa={kappa:g} n={n}"
    else:
        raise ValueError(f"unknown operator {operator!r}")
    if (dim == 2 and n > 256) or (dim == 3 and n > 24):
        raise ValueError("dense spectrum study capped at n=256 (2D) / n=24 (3D)")
    st = assemble_stencil(dim, n, m)
    A = st.A
    shape = (n,) * dim
    cut = (n - 1) // 2
    grids = np.meshgrid(*[np.arange(s) for s in shape], indexing="ij")
    flat = _flat(shape, *grids)
    sep = flat[cut]  # the plane i0 = cut, shape (n,) or (n, n)
    I2 = flat[:cut].ravel()
    half = n // 2
    Ia = sep[:half].ravel()
    Ib = sep[half:].ravel()

    sub = A[np.ix_(I2, I2)]
    subshape = (cut,) + shape[1:]
    subtree = NdTree(
        shape=subshape,
        root=_partition_box(
            subshape, tuple((0, s) for s in subshape), leaf_cells, 0
        ),
    )
    fac = nd_factor(sub, subtree)
    rhs = np.asarray(A[np.ix_(I2, Ib)].todense())
    X = nd_solve(fac, rhs)
    S = np.asarray(A[np.ix_(Ia, I2)].todense()) @ X
    sig = np.linalg.svd(S, compute_uv=False)
    return SpectrumResult(
        label=label,
        sigmas=sig,
        metadata={"dim": dim, "n": n, "operator": operator, "kappa": kappa,
                  "separator_half": int(len(Ia))},
    )
