"""Nested-dissection multifrontal LU for 2D (5-point) and 3D (7-point) grids.

The grid for -Delta u + m u = f on the unit box with Dirichlet exterior
is recursively bisected by grid-line (2D) or grid-plane (3D) separators
into disconnected subdomains; ``nd_partition`` builds the separator tree
one level at a time and stores it as arrays over its nodes in postorder
(box corners, parent, child slot, depth, and the separators concatenated
into one elimination ordering). Factoring bottom-up, each node eliminates
its separator through a dense frontal matrix: its couplings in A (real or
complex, symmetric or nonsymmetric pattern) plus the Schur-complement
updates passed up from its children. Dense-kernel flops are counted; they
dominate the O(N^{3/2}) (2D) / O(N^2) (3D) cost.

``nd_factor`` works in two phases. The symbolic phase fixes every
front's separator and boundary, where A's entries and the children's
updates land in it, groups the fronts by (tree level, separator size,
boundary size) and orders the unknowns by level, deepest first, each
level's separators side by side; it raises SeparationError when the
tree does not separate A. The numeric phase factors one level at a
time, each group as one stack of dense fronts, so the Python work per
front is one LAPACK call, and writes F_SS^{-1}, X = F_SS^{-1} F_SB and
F_BS into three sparse operators per level. ``nd_solve`` is one sparse
product per operator and level: no LAPACK call and no Python loop over
fronts or groups.

``schur_offdiag_spectrum`` reproduces the off-diagonal singular-value
study of the top separator's Schur complement,
S_ab = A(I_a, I_2) A_22^{-1} A(I_2, I_b), where I_a and I_b are the two
halves of the separator and I_2 one of the subdomains it cuts off.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.linalg
import scipy.sparse

from .linalg import SeparationError, SingularMatrixError, _check_rhs, _inexact
from .results import SpectrumResult

__all__ = [
    "StencilMatrix",
    "assemble_stencil",
    "NdTree",
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
    A: scipy.sparse.csr_matrix

    @property
    def N(self) -> int:
        return self.n**self.dim

    @property
    def h(self) -> float:
        return 1.0 / (self.n + 1)


def assemble_stencil(dim, n, m_field=None) -> StencilMatrix:
    """5-point (dim=2) or 7-point (dim=3) stencil plus a zeroth-order term.

    m_field may be None (zero), a real or complex scalar, or per-grid-point
    samples in lexicographic order; A is complex when m_field is.
    """
    if dim not in (2, 3):
        raise ValueError(f"dim must be 2 or 3, got {dim}")
    if n < 3:
        raise ValueError(f"need n >= 3 points per side, got {n}")
    N = n**dim
    m = _inexact(0.0 if m_field is None else m_field)
    m = np.full(N, m) if m.ndim == 0 else m.ravel()
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
    return StencilMatrix(dim=dim, n=n, A=A)


# -- geometric partition --------------------------------------------------------


@dataclass
class NdTree:
    """Separator tree of a grid as arrays over its nodes in postorder:
    children before their parent, the left subtree first, so every subtree
    is the run of ids that ends at its root and the root is the last node.
    Node i eliminates the grid indices ``ordering[offsets[i]:offsets[i + 1]]``.
    """

    shape: tuple  # grid points per axis
    lo: np.ndarray  # (nodes, ndim) first cell of each node's box per axis
    hi: np.ndarray  # (nodes, ndim) one past its last cell
    parent: np.ndarray  # -1 at the root
    slot: np.ndarray  # 0 for a left child and the root, 1 for a right child
    depth: np.ndarray  # 0 at the root
    ordering: np.ndarray  # the separators' flat indices, concatenated
    offsets: np.ndarray  # (nodes + 1,) start of each separator in ordering

    def box(self, i):
        """((lo, hi), ...) half-open cell ranges per axis of node i."""
        return tuple(zip(self.lo[i].tolist(), self.hi[i].tolist()))


def _partition(shape, leaf_cells):
    """Separator tree of the grid of ``shape``.

    A box side is cut when it is longer than max(2, leaf_cells); the cut
    axis is the first such side counting from axis depth mod ndim, and
    the cut is the center grid line (plane), the left half the smaller.
    A box with no side to cut is a leaf whose separator is the whole box.
    The tree is built one level at a time: every box of a level is cut
    with vectorized index arithmetic. Postorder ids come from the subtree
    sizes, summed up the levels and handed down them.
    """
    ndim = len(shape)
    lo, hi = np.zeros((1, ndim), int), np.array([shape])
    levels = []
    while len(lo):
        side = hi - lo
        roll = (len(levels) + np.arange(ndim)) % ndim
        can = side[:, roll] > max(2, leaf_cells)
        cut = np.flatnonzero(can.any(axis=1))
        axis = roll[can[cut].argmax(axis=1)]
        at = lo[cut, axis] + (side[cut, axis] - 1) // 2
        slo, shi = lo.copy(), hi.copy()
        slo[cut, axis], shi[cut, axis] = at, at + 1
        levels.append((lo, hi, slo, shi, cut))
        # the children of box cut[j] are rows 2j (left) and 2j + 1 (right)
        lo, hi = np.repeat(lo[cut], 2, axis=0), np.repeat(hi[cut], 2, axis=0)
        hi[0::2][np.arange(len(cut)), axis] = at
        lo[1::2][np.arange(len(cut)), axis] = at + 1
    size = [np.zeros(0, int)]  # of each subtree, deepest level first
    for lo, *_, cut in reversed(levels):
        size.append(np.ones(len(lo), int))
        size[-1][cut] += size[-2][0::2] + size[-2][1::2]
    # a subtree's run of ids ends at its root, the right child's run just
    # before its parent and the left child's just before the right one's
    ids = [size[-1] - 1]
    for (*_, cut), sz in zip(levels, size[-2:0:-1]):
        right = ids[-1][cut] - 1
        ids.append(np.stack([right - sz[1::2], right], axis=1).ravel())
    order = np.empty(size[-1][0], int)  # level row of each postorder id
    order[np.concatenate(ids)] = np.arange(len(order))
    lo, hi, slo, shi = (np.concatenate(part)[order] for part in list(zip(*levels))[:4])
    parent = np.concatenate([[-1]] + [np.repeat(i[cut], 2) for i, (*_, cut) in zip(ids, levels)])
    slot = np.concatenate([np.arange(len(i)) % 2 for i in ids])
    depth = np.repeat(np.arange(len(ids)), [len(i) for i in ids])
    # each separator box's flat indices, written straight into ordering with
    # one broadcast sum per distinct box shape
    offsets = np.concatenate([[0], np.cumsum(np.prod(shi - slo, axis=1))])
    ordering = np.empty(offsets[-1], int)
    keys = np.add(shape, 1)  # a box's side lengths as one integer
    sides, kind = np.unique(np.ravel_multi_index((shi - slo).T, keys), return_inverse=True)
    for k, side in enumerate(np.transpose(np.unravel_index(sides, keys))):
        at = np.flatnonzero(kind == k)
        cells = np.ravel_multi_index(np.indices(side).reshape(ndim, -1), shape)
        ordering[offsets[at, None] + np.arange(len(cells))] = (
            np.ravel_multi_index(slo[at].T, shape)[:, None] + cells)
    return NdTree(shape=shape, lo=lo, hi=hi, parent=parent[order], slot=slot[order],
                  depth=depth[order], ordering=ordering, offsets=offsets)


def nd_partition(dim, n, leaf_cells) -> NdTree:
    """Recursive separator decomposition of the n^dim grid.

    Bisection alternates axes, cutting the center grid line (2D) or
    plane (3D); it stops when every box side is at most ``leaf_cells``.
    """
    if not 3 <= leaf_cells <= n:
        raise ValueError(f"need 3 <= leaf_cells <= n, got leaf_cells={leaf_cells}")
    return _partition((n,) * dim, leaf_cells)


# -- multifrontal factorization --------------------------------------------------


@dataclass
class _Front:
    sep: np.ndarray
    bnd: np.ndarray
    lu: tuple
    inv: np.ndarray  # F_SS^{-1}
    X: np.ndarray  # F_SS^{-1} F_SB
    F_BS: np.ndarray


@dataclass
class _Group:
    """The fronts of one tree level that share one (len(sep), len(bnd))
    shape, stacked along the first axis; each ``_Front`` views one slice."""

    ids: np.ndarray  # postorder front numbers
    sep: np.ndarray  # (g, s)
    bnd: np.ndarray  # (g, b)
    # set by the numeric phase; inv, X and F_BS view the data of the sweep
    lu: np.ndarray = None  # (g, s, s) LAPACK LU of F_SS, each Fortran-ordered
    piv: np.ndarray = None  # (g, s)
    inv: np.ndarray = None  # (g, s, s) F_SS^{-1}, each Fortran-ordered
    X: np.ndarray = None  # (g, s, b) F_SS^{-1} F_SB
    F_BS: np.ndarray = None  # (g, b, s), each Fortran-ordered


@dataclass
class NdFactors:
    """The fronts of ``nd_factor`` and the sparse operators of its solve.

    ``perm`` orders the unknowns by tree level, deepest first, each
    level's separators side by side. ``sweep`` holds per level ``(a, c,
    inv, F_BS, X)``: its separators sit at positions a:c of ``perm``,
    ``inv`` is the block-diagonal F_SS^{-1} of its fronts, ``F_BS`` maps
    them to their boundaries at later positions, and ``X`` maps those
    back. ``groups`` stacks the fronts per level and shape, deepest
    level first; their inv, X and F_BS view the operators' data.

    ``flops`` is the dense-kernel model count summed over fronts: the LU
    of F_SS, X = F_SS^{-1} F_SB and the Schur update F_BS X. The inverse
    columns that the same solve computes alongside X are not counted.
    """

    perm: np.ndarray
    sweep: list
    groups: list
    flops: float
    N: int

    @property
    def stored_scalars(self) -> int:
        """Scalars the fronts keep: the LU and inverse of F_SS, X and F_BS."""
        return sum(g.lu.size + g.inv.size + g.X.size + g.F_BS.size for g in self.groups)

    @cached_property
    def fronts(self):
        """_Front per postorder node, each a view into its group's stacks."""
        fronts = [None] * sum(len(grp.ids) for grp in self.groups)
        for grp in self.groups:
            for i, f in enumerate(grp.ids):
                fronts[f] = _Front(sep=grp.sep[i], bnd=grp.bnd[i], lu=(grp.lu[i], grp.piv[i]),
                                   inv=grp.inv[i], X=grp.X[i], F_BS=grp.F_BS[i])
        return fronts


def _symbolic(A, tree):
    """Symbolic phase of ``nd_factor``: fronts, their level/shape groups,
    the maps that gather A and the children's updates, and operator indices.

    Front i is the tree's node i. Returns ``(s, b, width, perm,
    levels)``: the separator and boundary sizes per front, the number of
    child slots, ``NdFactors.perm``, and per tree level (deepest first)
    ``(size, pos, ent, members, sweep)``. The level's fronts are packed
    into one flat buffer of ``size`` scalars, and ``A.data[ent]`` goes
    to positions ``pos`` in it. ``sweep = (a, c, inv_idx, inv_ptr,
    bnd_idx, bnd_ptr)`` are the CSC indices of the level's F_SS^{-1} and
    F_BS, the second pair also X's CSR indices. Each member is ``(group,
    (offset, i0, b0), up)``: the group's (g, m, m) front stack starts at
    ``offset``, its data in the operators at ``i0`` and ``b0``, and ``up
    = (cut, base, m_parent, loc)`` adds the Schur updates of its fronts
    ``cut[k]:cut[k + 1]``, the k-th children of their parents, into rows
    and columns ``loc`` of the m_parent x m_parent parent fronts at
    ``base`` in the buffer of the level above. Within one group and child
    slot no destination repeats: each parent has one k-th child and a
    child's ``loc`` rows are distinct. Raises SeparationError when the
    separators do not tile range(N) or a front's boundary leaves its
    parent's front.
    """
    N = A.shape[0]
    parent, slot, depth, ordering = tree.parent, tree.slot, tree.depth, tree.ordering
    nodes, width = len(parent), slot.max() + 1
    s = np.diff(tree.offsets)
    front = np.repeat(np.arange(nodes), s)
    bad = (ordering < 0) | (ordering >= N)
    if bad.any():
        i = bad.argmax()
        raise SeparationError(f"separator at box {tree.box(front[i])} holds index "
                              f"{ordering[i]}, outside range({N})")
    count = np.bincount(ordering, minlength=N)
    if (count != 1).any():
        j = int(np.argmax(count != 1))
        raise SeparationError(f"index {j} lies in {count[j]} of the separators under box "
                              f"{tree.box(-1)}, not in exactly one")
    owner = np.empty(N, int)
    owner[ordering] = front
    local = np.empty(N, int)  # row of an index in the front that eliminates it
    local[ordering] = np.arange(N) - np.repeat(tree.offsets[:-1], s)

    # A[r, c] belongs to the earlier of the fronts eliminating r and c; the
    # other index is on that front's boundary (pattern of A + A^T). A
    # boundary is its separator's such neighbours plus its children's
    # boundaries, less the separator. Boundaries are built level by level,
    # deepest first, as sorted distinct keys front * N + index and stored
    # one level after another; where each key lands gives the front rows
    # of A's entries and of the children's boundaries.
    r, c = np.repeat(np.arange(N), np.diff(A.indptr)), A.indices
    fr, fc = owner[r], owner[c]
    own = np.minimum(fr, fc)
    cross = np.flatnonzero(fr != fc)
    key = own[cross] * N + np.where(fr < fc, c, r)[cross]
    key_depth = depth[own[cross]]
    key_at = np.empty(len(cross), int)  # position of each key in the boundary store
    bkeys, lift_at = [], []
    below, done = np.empty(0, int), 0
    for d in range(depth.max(), -1, -1):
        f, j = np.divmod(below, N)
        p = parent[f]
        leak = owner[j] < p  # eliminated in a subtree beside f
        if leak.any():
            i = leak.argmax()
            raise SeparationError(f"front at box {tree.box(f[i])} couples to index "
                                  f"{j[i]}, outside its parent's front at box "
                                  f"{tree.box(p[i])}")
        up = np.flatnonzero(owner[j] > p)
        mine = key_depth == d
        cand = np.concatenate([key[mine], p[up] * N + j[up]])
        new, at = np.unique(cand, return_inverse=True)
        at += done
        key_at[mine] = at[:mine.sum()]
        lift_at.append((done - len(below) + up, at[mine.sum():]))
        below = new
        bkeys.append(below)
        done += len(below)
    bf, bj = np.divmod(np.concatenate(bkeys), N)
    b = np.bincount(bf, minlength=nodes)
    boff = np.zeros(nodes, int)
    first = np.flatnonzero(np.diff(bf, prepend=-1))
    boff[bf[first]] = first
    # row of each boundary index in the parent front: its separator or boundary
    loc = local[bj]
    for at_child, at_parent in lift_at:
        p = parent[bf[at_child]]
        loc[at_child] = s[p] + at_parent - boff[p]
    # rows of A's entries in the fronts that own them
    lr, lc = local[r], local[c]
    far_row = s[own[cross]] + key_at - boff[own[cross]]
    far_is_r = fr[cross] > fc[cross]
    lr[cross[far_is_r]] = far_row[far_is_r]
    lc[cross[~far_is_r]] = far_row[~far_is_r]

    # groups of one level and shape, their fronts ordered by child slot;
    # each level's fronts packed group after group into one buffer
    m = s + b
    shape = ((depth.max() - depth) * (s.max() + 1) + s) * (b.max() + 1) + b
    order = np.argsort((shape * width + slot) * nodes + np.arange(nodes))
    cut = np.flatnonzero(np.diff(shape[order], prepend=-1, append=-1))
    first = np.searchsorted(-depth[order], -depth[order])
    offset = np.empty(nodes, int)  # of each front from the start of its level's stack
    start = np.cumsum((m * m)[order]) - (m * m)[order]
    offset[order] = start - start[first]
    pos = offset[own] + lr * m[own] + lc

    # level order: the separators in the order of the groups, so a level is
    # one run of positions and a boundary, eliminated by an ancestor, follows it
    start = np.empty(nodes, int)
    start[order] = np.cumsum(s[order]) - s[order]
    per = np.repeat(order, s[order])  # front of each position
    perm = ordering[np.arange(N) + (tree.offsets[:-1] - start)[per]]
    at = np.empty(N, int)  # position of each index
    at[perm] = np.arange(N)
    ptr = np.zeros((2, N + 1), int)  # CSC columns of F_SS^{-1} and F_BS
    ptr[:, 1:] = np.cumsum([s[per], b[per]], axis=1)
    itype = np.int32 if ptr.max() < 2**31 else np.int64
    inv_ptr, bnd_ptr = ptr.astype(itype)
    bounds = np.flatnonzero(np.diff(depth[per], prepend=-1, append=-1))  # of the levels

    def by_level(key):  # positions of each level's items, deepest first, in order
        rank = (depth.max() - key).astype(np.min_scalar_type(depth.max()))
        at = np.argsort(rank, kind="stable")  # a radix sort of small integers
        return np.split(at, np.cumsum(np.bincount(rank, minlength=depth.max() + 1))[:-1])

    levels = []
    for d, a, c, at_d in zip(range(depth.max(), -1, -1), bounds[:-1], bounds[1:],
                             by_level(depth[own])):
        # one index array per level: scipy copies one that views a larger array
        members, inv_idx = [], np.empty(inv_ptr[c] - inv_ptr[a], itype)
        bnd_idx = np.empty(bnd_ptr[c] - bnd_ptr[a], itype)
        for lo, hi in zip(cut[:-1], cut[1:]):
            ids = order[lo:hi]
            if depth[ids[0]] != d:
                continue
            (g,), sk, bk, q = ids.shape, s[ids[0]], b[ids[0]], start[ids[0]]
            brow = boff[ids, None] + np.arange(bk)
            pa = parent[ids]
            grp = _Group(ids=ids, bnd=bj[brow],
                         sep=ordering[tree.offsets[ids, None] + np.arange(sk)])
            i0, b0 = inv_ptr[q] - inv_ptr[a], bnd_ptr[q] - bnd_ptr[a]
            kcut = np.searchsorted(slot[ids], np.arange(width + 1))
            members.append((grp, (offset[ids[0]], i0, b0), (kcut, offset[pa], m[pa], loc[brow])))
            # F_SS^{-1} and F_BS are stored by columns and X by rows, so
            # one index list serves both of the latter
            inv_idx[i0:i0 + g * sk * sk].reshape(g, sk, sk)[...] = (
                (start[ids] - a)[:, None, None] + np.arange(sk))
            bnd_idx[b0:b0 + g * sk * bk].reshape(g, sk, bk)[...] = (at[grp.bnd] - c)[:, None, :]
        levels.append((int((m * m)[depth == d].sum()), pos[at_d], at_d, members,
                       (a, c, inv_idx, inv_ptr[a:c + 1] - inv_ptr[a],
                        bnd_idx, bnd_ptr[a:c + 1] - bnd_ptr[a])))
    return s, b, width, perm, levels


def nd_factor(A, tree: NdTree) -> NdFactors:
    """Multifrontal LU along the separator tree of ``A``.

    A may be a StencilMatrix or any real or complex scipy sparse matrix
    whose couplings the tree's separators cut. A front's boundary comes
    from the pattern of A + A^T, so a nonsymmetric pattern loses neither
    A[S, j] nor A[j, S]; fronts take A's dtype, at least float64.

    The symbolic phase fixes every front, its maps and the solve's
    operators, and groups the fronts by (tree level, len(sep),
    len(bnd)). The numeric phase goes one level at a time, deepest first.
    Per group it gathers A's entries and the children's Schur updates
    into one stack of dense fronts, calls LAPACK gesv once per front with
    right-hand sides [F_SB | I], which gives the partially pivoted LU of
    F_SS, X = F_SS^{-1} F_SB and F_SS^{-1} together, writes F_SS^{-1}, X
    and F_BS into the level's operators, and forms every update
    F_BB - F_BS X in one batched product.

    Raises ValueError for a NaN or inf in A, SeparationError naming a
    box when the separators do not tile range(N) or a child's boundary
    leaves its parent's front, and SingularMatrixError naming the box
    of a front with a pivot below 1e-300.
    """
    if isinstance(A, StencilMatrix):
        A = A.A
    A = scipy.sparse.csr_array(A, copy=True)
    A.sum_duplicates()  # one stored entry per position, so the gather can assign
    if A.shape[0] != A.shape[1]:
        raise ValueError(f"A must be square, got shape {A.shape}")
    if not np.isfinite(A.data).all():
        raise ValueError("array must not contain infs or NaNs")
    N, dtype = A.shape[0], np.result_type(A.dtype, float)
    gesv, = scipy.linalg.get_lapack_funcs(("gesv",), dtype=dtype)
    s, b, width, perm, levels = _symbolic(A, tree)
    sweep, groups, below = [], [], []  # below: (front stack, sep size, up map) per group
    for size, pos, ent, members, (a, c, inv_idx, inv_ptr, bnd_idx, bnd_ptr) in levels:
        buf = np.zeros(size, dtype)
        buf[pos] = A.data[ent]
        # siblings overlap in their parent, so add the k-th children together;
        # within one child group and slot no destination repeats
        for k in range(width):
            for F, sk, (cut, base, mp, loc) in below:
                i = slice(cut[k], cut[k + 1])
                np.add.at(buf, (base[i, None, None] + loc[i, :, None] * mp[i, None, None]
                                + loc[i, None, :]).ravel(), F[i, sk:, sk:].ravel())
        below = []
        inv = np.empty(len(inv_idx), dtype)
        X, F_BS = np.empty(len(bnd_idx), dtype), np.empty(len(bnd_idx), dtype)
        for grp, (off, i0, b0), up in members:
            (g, sk), bk = grp.sep.shape, grp.bnd.shape[1]
            F = buf[off:off + g * (sk + bk) ** 2].reshape(g, sk + bk, sk + bk)
            lu = np.empty((g, sk, sk), dtype).transpose(0, 2, 1)
            lu[...] = F[:, :sk, :sk]
            rhs = np.empty((g, bk + sk, sk), dtype).transpose(0, 2, 1)
            rhs[:, :, :bk] = F[:, :sk, sk:]
            rhs[:, :, bk:] = np.eye(sk)
            piv = np.empty((g, sk), np.int32)
            for i in range(g):  # Fortran-ordered, so LAPACK works in place
                piv[i] = gesv(lu[i], rhs[i], 1, 1)[1]
            tiny = ~(np.abs(np.diagonal(lu, axis1=1, axis2=2)) >= 1e-300)
            if tiny.any():
                i, k = np.argwhere(tiny)[0]
                raise SingularMatrixError(
                    f"front at box {tree.box(grp.ids[i])} is singular (pivot {k})")
            grp.lu, grp.piv = lu, piv
            grp.inv = inv[i0:i0 + g * sk * sk].reshape(g, sk, sk).transpose(0, 2, 1)
            grp.X = X[b0:b0 + g * sk * bk].reshape(g, sk, bk)
            grp.F_BS = F_BS[b0:b0 + g * sk * bk].reshape(g, sk, bk).transpose(0, 2, 1)
            grp.inv[...], grp.X[...] = rhs[:, :, bk:], rhs[:, :, :bk]
            grp.F_BS[...] = F[:, sk:, :sk]
            F[:, sk:, sk:] -= grp.F_BS @ grp.X
            below.append((F, sk, up))
            groups.append(grp)
        sweep.append((a, c, scipy.sparse.csc_array((inv, inv_idx, inv_ptr), shape=(c - a,) * 2),
                      scipy.sparse.csc_array((F_BS, bnd_idx, bnd_ptr), shape=(N - c, c - a)),
                      scipy.sparse.csr_array((X, bnd_idx, bnd_ptr), shape=(c - a, N - c))))
    # a running total over fronts in postorder, term by term
    terms = np.stack([(2.0 / 3.0) * s**3, 2.0 * s * s * b, 2.0 * b * s * b], axis=1)
    flops = np.cumsum(terms)[-1]
    return NdFactors(perm=perm, sweep=sweep, groups=groups, flops=float(flops), N=N)


def nd_solve(factors: NdFactors, b):
    """Two sweeps over the tree levels, one sparse product per operator
    and level, and no loop over fronts or groups.

    Accepts a single right-hand side (N,) or a matrix of them (N, r),
    real or complex for either dtype of factor; any other shape, or a
    NaN or inf, raises ValueError. In level order, y = b[perm]. Deepest
    level first, y_S = F_SS^{-1} y_S on the level's slice and y_B -=
    F_BS y_S on the later positions, which is the extend-add; then root
    first, y_S -= X y_B. x[perm] = y.
    """
    b = _check_rhs(b, factors.N)
    if not np.isfinite(b).all():
        raise ValueError("array must not contain infs or NaNs")
    perm, sweep = factors.perm, factors.sweep
    y = b[perm].astype(np.result_type(b, float, sweep[0][2].dtype), order="C", copy=False)
    for a, c, inv, F_BS, _ in sweep:
        y[a:c] = inv @ y[a:c]
        y[c:] -= F_BS @ y[a:c]
    for a, c, _, _, X in reversed(sweep):
        y[a:c] -= X @ y[c:]
    x = np.empty_like(y)
    x[perm] = y
    return x


# -- Schur-complement spectrum study ---------------------------------------------


def schur_offdiag_spectrum(dim, n, operator="laplace", kappa=None, leaf_cells=8):
    """Singular values of the off-diagonal Schur block of the top separator.

    The grid is cut by its top-level separator into I_2 and I_3; the
    separator itself is halved into I_a and I_b, and
    S_ab = A(I_a, I_2) A_22^{-1} A(I_2, I_b) is formed by solving the
    half-domain system (factored with nested dissection) column by
    column. ``operator`` is "laplace" (m = 0) or "helmholtz"
    (m = -kappa^2). ``leaf_cells`` is an integer >= 3; it may exceed n.
    """
    if operator == "laplace":
        m = None
        label = f"{dim}d laplace n={n}"
    elif operator == "helmholtz":
        if kappa is None or not 0 < kappa < np.inf:
            raise ValueError(f"helmholtz needs a finite kappa > 0, got {kappa!r}")
        m = -float(kappa) ** 2
        label = f"{dim}d helmholtz kappa={kappa:g} n={n}"
    else:
        raise ValueError(f"unknown operator {operator!r}")
    if (dim == 2 and n > 256) or (dim == 3 and n > 24):
        raise ValueError("dense spectrum study capped at n=256 (2D) / n=24 (3D)")
    if not (isinstance(leaf_cells, (int, np.integer)) and leaf_cells >= 3):
        raise ValueError(f"need an integer leaf_cells >= 3, got leaf_cells={leaf_cells!r}")
    A = assemble_stencil(dim, n, m).A
    shape = (n,) * dim
    cut = (n - 1) // 2
    flat = np.arange(n**dim).reshape(shape)
    sep = flat[cut]  # the plane i0 = cut, shape (n,) or (n, n)
    I2 = flat[:cut].ravel()
    Ia, Ib = sep[:n // 2].ravel(), sep[n // 2:].ravel()

    fac = nd_factor(A[np.ix_(I2, I2)], _partition((cut,) + shape[1:], leaf_cells))
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
