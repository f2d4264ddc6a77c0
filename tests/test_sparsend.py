"""Nested dissection: stencil assembly, partition, multifrontal LU, and
the Schur-complement spectrum study."""

import gc
import weakref

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg
from hypothesis import given, settings, strategies

from fds import bie2d
from fds.linalg import SeparationError, SingularMatrixError
from fds.sparsend import (
    _partition,
    _symbolic,
    assemble_stencil,
    nd_factor,
    nd_partition,
    nd_solve,
    schur_offdiag_spectrum,
)

RNG_SEED = 31415


def _separator(tree, i):
    return tree.ordering[tree.offsets[i]:tree.offsets[i + 1]]


def _children(tree, i):
    """Child ids of node i, in slot order."""
    kids = np.flatnonzero(tree.parent == i)
    return kids[np.argsort(tree.slot[kids])]


def _subtree_indices(tree, i):
    """Every grid index eliminated in the subtree rooted at node i."""
    return np.concatenate([_separator(tree, i)]
                          + [_subtree_indices(tree, c) for c in _children(tree, i)])


def _box_indices_reference(shape, box):
    grids = np.meshgrid(*[np.arange(lo, hi) for lo, hi in box], indexing="ij")
    idx = grids[0]
    for s, c in zip(shape[1:], grids[1:]):
        idx = idx * s + c
    return idx.ravel()


def _partition_box_reference(shape, box, leaf_cells, depth):
    """The recursive partition, one meshgrid per box: the oracle for the
    level-by-level ``_partition``. A node is (box, separator, children)."""
    sides = [hi - lo for lo, hi in box]
    if max(sides) <= leaf_cells:
        return box, _box_indices_reference(shape, box), ()
    ndim = len(shape)
    # alternate the cut axis by depth, skipping axes too short to split
    for probe in range(ndim):
        axis = (depth + probe) % ndim
        if sides[axis] >= 3 and sides[axis] > leaf_cells:
            break
    else:
        axis = int(np.argmax(sides))
        if sides[axis] < 3:
            return box, _box_indices_reference(shape, box), ()
    lo, hi = box[axis]
    cut = lo + (hi - lo - 1) // 2  # center line, left half the smaller
    sep_box, left_box, right_box = list(box), list(box), list(box)
    sep_box[axis], left_box[axis], right_box[axis] = (cut, cut + 1), (lo, cut), (cut + 1, hi)
    left = _partition_box_reference(shape, tuple(left_box), leaf_cells, depth + 1)
    right = _partition_box_reference(shape, tuple(right_box), leaf_cells, depth + 1)
    return box, _box_indices_reference(shape, tuple(sep_box)), (left, right)


def _postorder_reference(root):
    """(box, separator, child ids) of each reference node, in postorder."""
    out = []

    def visit(node):
        box, sep, children = node
        ids = tuple(visit(c) for c in children)
        out.append((box, sep, ids))
        return len(out) - 1

    visit(root)
    return out


def _assert_same_tree(tree, root):
    ref = _postorder_reference(root)
    assert len(tree.parent) == len(ref)
    for i, (box, sep, ids) in enumerate(ref):
        assert tree.box(i) == box
        assert all(type(v) is int for side in tree.box(i) for v in side)
        assert _separator(tree, i).dtype == sep.dtype
        assert np.array_equal(_separator(tree, i), sep)
        assert tuple(_children(tree, i).tolist()) == ids


class TestAssemble:
    def test_2d_hand_count(self):
        st = assemble_stencil(2, 3)
        A = st.A.toarray()
        h2inv = 16.0  # h = 1/4
        assert A.shape == (9, 9)
        assert np.allclose(np.diag(A), 4.0 * h2inv)
        off = A[~np.eye(9, dtype=bool)]
        assert np.sum(off == -h2inv) == 24  # 12 neighbor pairs
        assert np.allclose(A, A.T)

    def test_3d_diagonal(self):
        st = assemble_stencil(3, 3)
        assert np.allclose(st.A.diagonal(), 6.0 * 16.0)

    def test_matvec_vs_dense_construction(self):
        n = 6
        st = assemble_stencil(2, n, m_field=1.5)
        h2inv = float((n + 1) ** 2)
        dense = np.zeros((36, 36))
        for i in range(n):
            for j in range(n):
                r = i * n + j
                dense[r, r] = 4.0 * h2inv + 1.5
                for di, dj in ((1, 0), (-1, 0), (0, 1), (0, -1)):
                    ii, jj = i + di, j + dj
                    if 0 <= ii < n and 0 <= jj < n:
                        dense[r, ii * n + jj] = -h2inv
        rng = np.random.default_rng(RNG_SEED)
        x = rng.standard_normal(36)
        assert np.allclose(st.A @ x, dense @ x, atol=1e-12)

    def test_laplacian_row_sums_count_boundary_deficit(self):
        n = 5
        st = assemble_stencil(2, n)
        h2inv = float((n + 1) ** 2)
        sums = np.asarray(st.A.sum(axis=1)).ravel() / h2inv
        # interior rows sum to 0, edge rows to the number of clipped neighbors
        grid = sums.reshape(n, n)
        assert np.allclose(grid[2, 2], 0.0)
        assert np.allclose(grid[0, 2], 1.0) and np.allclose(grid[0, 0], 2.0)

    @pytest.mark.parametrize("form", ["scalar", "array"])
    def test_complex_m_field_kept(self, form):
        # a complex shift keeps its imaginary part, as a scalar and as samples
        n = 20
        rng = np.random.default_rng(RNG_SEED)
        shift = 1j * (n + 1) ** 2
        m = shift if form == "scalar" else shift * rng.uniform(0.5, 2.0, (n, n))
        st = assemble_stencil(2, n, m)
        assert st.A.dtype == np.complex128
        assert np.array_equal(st.A.diagonal().imag, np.ravel(np.broadcast_to(m, (n, n)).imag))
        b = rng.standard_normal(st.N)
        x = nd_solve(nd_factor(st, nd_partition(2, n, leaf_cells=4)), b)
        x_ref = scipy.sparse.linalg.splu(st.A.tocsc()).solve(b.astype(complex))
        assert np.max(np.abs(x - x_ref)) <= 1e-12 * np.max(np.abs(x_ref))


class TestPartition:
    def test_top_separator_structure_n6(self):
        tree = nd_partition(2, 6, leaf_cells=3)
        root = len(tree.parent) - 1
        assert len(_separator(tree, root)) == 6  # one grid line
        # separator is the center vertical line (axis 0, cut at 2)
        rows = _separator(tree, root) // 6
        assert np.all(rows == 2)
        left, right = _children(tree, root)
        assert len(_subtree_indices(tree, left)) == 12
        assert len(_subtree_indices(tree, right)) == 18

    def test_disconnection_everywhere(self):
        st = assemble_stencil(2, 32)
        tree = nd_partition(2, 32, leaf_cells=4)

        cut = 0
        for i in range(len(tree.parent)):
            children = _children(tree, i)
            if len(children):
                i2, i3 = (_subtree_indices(tree, c) for c in children)
                assert st.A[np.ix_(i2, i3)].nnz == 0
                cut += 1
        assert cut > 1

    def test_single_leaf_when_leaf_cells_equals_n(self):
        tree = nd_partition(2, 8, leaf_cells=8)
        assert tree.parent.tolist() == [-1]
        assert np.array_equal(tree.ordering, np.arange(64))

    @pytest.mark.parametrize("dim, ns", [(2, (3, 6, 17, 37, 45, 100)), (3, (5, 7, 12, 13))])
    def test_matches_recursive_reference(self, dim, ns):
        # same boxes, the same separators in the same order, the same children
        for n in ns:
            for leaf_cells in range(3, min(n, 8) + 1):
                ref = _partition_box_reference((n,) * dim, ((0, n),) * dim, leaf_cells, 0)
                _assert_same_tree(nd_partition(dim, n, leaf_cells), ref)

    @pytest.mark.parametrize("shape", [(31, 64), (63, 128), (11, 24, 24), (7, 16, 16)])
    def test_schur_subshape_matches_reference(self, shape):
        # the half-domain grid of schur_offdiag_spectrum, including leaf
        # sizes below 3 that only that path accepts
        for leaf_cells in (1, 2, 3, 4, 8):
            ref = _partition_box_reference(shape, tuple((0, s) for s in shape), leaf_cells, 0)
            _assert_same_tree(_partition(shape, leaf_cells), ref)

    @pytest.mark.parametrize("shape", [(17, 17), (100, 100), (12, 12, 12), (13, 13, 13),
                                       (31, 64), (63, 128), (11, 24, 24), (7, 16, 16)])
    def test_postorder_arrays_consistent(self, shape):
        for leaf_cells in range(1, 9):
            tree = _partition(shape, leaf_cells)
            nodes = len(tree.parent)
            root = nodes - 1
            assert tree.parent[root] == -1 and tree.depth[root] == 0 and tree.slot[root] == 0
            child = np.arange(root)
            assert np.all(tree.parent[child] > child)
            assert np.array_equal(tree.depth[child], tree.depth[tree.parent[child]] + 1)
            # every subtree is the run of ids that ends at its root: as
            # parents follow children, its size spans its lowest id to its
            # root; children take slots 0, 1, ... in id order
            first, size, kids = np.arange(nodes), np.ones(nodes, int), np.zeros(nodes, int)
            for i in child:
                p = tree.parent[i]
                assert tree.slot[i] == kids[p]
                kids[p] += 1
                first[p], size[p] = min(first[p], first[i]), size[p] + size[i]
            assert np.array_equal(size, np.arange(nodes) - first + 1)
            # the separators tile range(N), each nonempty
            assert tree.offsets[0] == 0 and np.all(np.diff(tree.offsets) > 0)
            assert np.array_equal(np.sort(tree.ordering), np.arange(np.prod(shape)))

    def test_indices_cover_grid_once(self):
        for dim, n in ((2, 17), (3, 7)):
            tree = nd_partition(dim, n, leaf_cells=3)
            idx = np.sort(_subtree_indices(tree, len(tree.parent) - 1))
            assert np.array_equal(idx, np.arange(n**dim))


class TestFactorSolve:
    def test_vs_dense_oracle_n16(self):
        st = assemble_stencil(2, 16)
        tree = nd_partition(2, 16, leaf_cells=4)
        fac = nd_factor(st, tree)
        rng = np.random.default_rng(RNG_SEED)
        B = rng.standard_normal((st.N, 10))
        X = nd_solve(fac, B)
        X_ref = np.linalg.solve(st.A.toarray(), B)
        assert np.max(np.abs(X - X_ref)) <= 1e-11 * np.max(np.abs(X_ref))

    def test_inverse_composition_small_grids(self):
        # A applied to the solve of the identity reproduces the identity
        for dim, n in ((2, 8), (3, 5)):
            st = assemble_stencil(dim, n)
            tree = nd_partition(dim, n, leaf_cells=3)
            fac = nd_factor(st, tree)
            X = nd_solve(fac, np.eye(st.N))
            assert np.max(np.abs(st.A @ X - np.eye(st.N))) <= 1e-12 * st.A.diagonal().max()

    def test_shifted_operator_well_conditioned(self):
        st = assemble_stencil(2, 20, m_field=1e4)
        tree = nd_partition(2, 20, leaf_cells=4)
        fac = nd_factor(st, tree)
        rng = np.random.default_rng(RNG_SEED)
        b = rng.standard_normal(st.N)
        x = nd_solve(fac, b)
        assert np.linalg.norm(st.A @ x - b) <= 1e-12 * np.linalg.norm(b)

    def test_flop_exponent_in_window(self):
        flops = []
        Ns = []
        for n in (32, 64, 128):
            st = assemble_stencil(2, n)
            fac = nd_factor(st, nd_partition(2, n, leaf_cells=4))
            flops.append(fac.flops)
            Ns.append(st.N)
        slope = np.polyfit(np.log(Ns), np.log(flops), 1)[0]
        assert 1.4 <= slope <= 1.65

    def test_manufactured_solution_second_order(self):
        errs = []
        for n in (16, 32, 64):
            st = assemble_stencil(2, n)
            h = st.h
            ij = np.indices((n, n)).reshape(2, -1) + 1
            x, y = ij[0] * h, ij[1] * h
            u_exact = np.sin(np.pi * x) * np.sin(np.pi * y)
            f = 2.0 * np.pi**2 * u_exact
            fac = nd_factor(st, nd_partition(2, n, leaf_cells=4))
            u = nd_solve(fac, f)
            errs.append(np.max(np.abs(u - u_exact)))
        for e1, e2 in zip(errs, errs[1:]):
            assert 3.6 <= e1 / e2 <= 4.4

    def test_complex_rhs(self):
        st = assemble_stencil(2, 16)
        fac = nd_factor(st, nd_partition(2, 16, leaf_cells=4))
        rng = np.random.default_rng(RNG_SEED)
        b = rng.standard_normal(st.N) + 1j * rng.standard_normal(st.N)
        x = nd_solve(fac, b)
        assert np.iscomplexobj(x)
        assert np.linalg.norm(st.A @ x - b) <= 1e-10 * np.linalg.norm(b)

    @pytest.mark.parametrize("shift", ["helmholtz", "complex"])
    @pytest.mark.parametrize("nrhs", [1, 3])
    def test_vs_splu_forward_error(self, shift, nrhs):
        # indefinite Helmholtz at 10 waves (m = -kappa^2) and a complex shift;
        # both solvers are backward stable, so they agree to within a small
        # multiple of eps * cond_1(A) (measured: 8e-14 against 1.4e-11 for
        # Helmholtz, 8e-16 against 3e-14 for the complex shift)
        n = 45
        if shift == "helmholtz":
            A = assemble_stencil(2, n, -(2.0 * np.pi * 10.0) ** 2).A
        else:
            A = assemble_stencil(2, n).A
            A = (A + 1j * (n + 1) ** 2 * scipy.sparse.identity(n * n)).tocsr()
        lu = scipy.sparse.linalg.splu(A.tocsc())
        inv_norm = scipy.sparse.linalg.onenormest(scipy.sparse.linalg.LinearOperator(
            A.shape, matvec=lu.solve, rmatvec=lambda v: lu.solve(v, "H"), dtype=A.dtype))
        cond = scipy.sparse.linalg.norm(A, 1) * inv_norm
        rng = np.random.default_rng(RNG_SEED)
        b = rng.standard_normal((n * n, nrhs))[:, 0 if nrhs == 1 else slice(None)]
        x = nd_solve(nd_factor(A, nd_partition(2, n, leaf_cells=4)), b)
        x_ref = lu.solve(b.astype(A.dtype))
        assert x.shape == x_ref.shape and x.dtype == A.dtype
        assert np.max(np.abs(x - x_ref)) <= 10 * np.finfo(float).eps * cond * np.max(np.abs(x_ref))

    def test_front_inverse_matches_lu(self):
        st = assemble_stencil(3, 5)
        for fr in nd_factor(st, nd_partition(3, 5, leaf_cells=3)).fronts:
            ref = scipy.linalg.lu_solve(fr.lu, np.eye(len(fr.sep)))
            assert np.max(np.abs(fr.inv - ref)) <= 1e-13 * np.max(np.abs(ref))

    @pytest.mark.parametrize("dim, n", [(2, 128), (2, 37), (3, 12), (3, 9)])
    def test_extend_add_destinations_distinct(self, dim, n):
        # each child group and slot of the factor adds into distinct
        # destinations; the solve's level operators stay in their slices
        A = assemble_stencil(dim, n).A
        tree = nd_partition(dim, n, leaf_cells=4)
        *_, width, _, levels = _symbolic(A, tree)
        checked = 0
        for *_, members, _ in levels:
            for grp, _, (cut, base, mp, loc) in members:
                for k in range(width):
                    i = slice(cut[k], cut[k + 1])
                    dst = base[i, None, None] + loc[i, :, None] * mp[i, None, None] + loc[i, None, :]
                    assert len(np.unique(dst)) == dst.size
                    checked += 1
        assert checked > 0
        fac, N = nd_factor(A, tree), A.shape[0]
        assert np.array_equal(np.sort(fac.perm), np.arange(N))
        where = np.argsort(fac.perm)
        # levels tile range(N); each level's operators read and write only
        # its own slice a:c and the positions after it
        assert [a for a, *_ in fac.sweep] == [0] + [c for _, c, *_ in fac.sweep[:-1]]
        assert fac.sweep[-1][1] == N
        rng = np.random.default_rng(RNG_SEED)
        for a, c, inv, F_BS, X in fac.sweep:
            assert inv.shape == (c - a, c - a) and F_BS.shape == (N - c, c - a)
            assert X.shape == (c - a, N - c)
            for op in (inv, F_BS, X):
                op.check_format(full_check=True)  # every index within the shape
            assert X.nnz == 0 or np.shares_memory(X.indices, F_BS.indices)
            groups = [grp for grp in fac.groups if a <= where[grp.sep[0, 0]] < c]
            assert sum(grp.sep.size for grp in groups) == c - a
            # the group stacks are the operators' data, and the products
            # apply them at their fronts' positions
            v, w = rng.standard_normal(c - a), rng.standard_normal(N - c)
            Fv = np.zeros(N - c)
            for grp in groups:
                for stack, op in ((grp.inv, inv), (grp.X, X), (grp.F_BS, F_BS)):
                    assert stack.size == 0 or np.shares_memory(stack, op.data)
                rows, cols = where[grp.sep] - a, where[grp.bnd] - c
                assert np.all(rows >= 0) and np.all(cols >= 0)
                np.testing.assert_allclose((inv @ v)[rows], (grp.inv @ v[rows, None])[..., 0])
                np.testing.assert_allclose((X @ w)[rows], (grp.X @ w[cols, None])[..., 0])
                np.add.at(Fv, cols, (grp.F_BS @ v[rows, None])[..., 0])
            scale = np.max(np.abs(Fv), initial=0)
            np.testing.assert_allclose(F_BS @ v, Fv, rtol=1e-13, atol=1e-13 * scale)

    def test_zero_rhs(self):
        st = assemble_stencil(2, 8)
        fac = nd_factor(st, nd_partition(2, 8, leaf_cells=3))
        assert np.allclose(nd_solve(fac, np.zeros(64)), 0.0)

    def test_complex_matrix_vs_dense_oracle(self):
        # a complex shift keeps its imaginary part in every front
        st = assemble_stencil(2, 8)
        A = (st.A + 1j * st.A.diagonal().max() * scipy.sparse.identity(st.N)).tocsr()
        rng = np.random.default_rng(RNG_SEED)
        b = rng.standard_normal(st.N) + 1j * rng.standard_normal(st.N)
        x = nd_solve(nd_factor(A, nd_partition(2, 8, leaf_cells=3)), b)
        x_ref = np.linalg.solve(A.toarray(), b)
        assert np.max(np.abs(x - x_ref)) <= 1e-12 * np.max(np.abs(x_ref))

    def test_nonsymmetric_pattern(self):
        # drop the A[i+1, i] couplings: A[S, j] survives where A[j, S] = 0
        st = assemble_stencil(2, 8)
        A = (st.A - scipy.sparse.diags_array(st.A.diagonal(-1), offsets=-1)).tocsr()
        assert (A != A.T).nnz > 0
        rng = np.random.default_rng(RNG_SEED)
        b = rng.standard_normal(st.N)
        x = nd_solve(nd_factor(A, nd_partition(2, 8, leaf_cells=3)), b)
        assert np.linalg.norm(A @ x - b) <= 1e-12 * np.linalg.norm(b)

    def test_factors_freed_without_gc(self):
        # no reference cycle keeps a dropped factorization alive
        st = assemble_stencil(2, 8)
        gc.disable()
        try:
            fac = nd_factor(st, nd_partition(2, 8, leaf_cells=3))
            ref = weakref.ref(fac.fronts[0].X)
            del fac
            assert ref() is None
        finally:
            gc.enable()

    def test_nonfinite_rhs_raises(self):
        st = assemble_stencil(2, 8)
        fac = nd_factor(st, nd_partition(2, 8, leaf_cells=3))
        for bad in (np.nan, np.inf):
            b = np.ones(st.N)
            b[5] = bad
            with pytest.raises(ValueError, match="infs or NaNs"):
                nd_solve(fac, b)

    def test_three_dimensional_rhs_raises(self):
        # it used to come back flattened to (N, 6)
        st = assemble_stencil(2, 8)
        fac = nd_factor(st, nd_partition(2, 8, leaf_cells=3))
        with pytest.raises(ValueError, match=r"\(64, 2, 3\) is not \(64,\) or \(64, r\)"):
            nd_solve(fac, np.ones((st.N, 2, 3)))

    def test_front_structure_pinned(self):
        # exact flop counts and (separator, boundary) sizes of every front
        cases = {
            (2, 16, 4): (132246.6666666667, [
                (3, 10), (3, 11), (3, 17), (3, 17), (3, 19), (3, 19), (4, 11), (4, 12),
                (7, 14), (7, 15), (7, 16), (8, 15), (8, 16), (8, 16), (9, 6), (9, 9),
                (9, 9), (9, 9), (9, 9), (9, 12), (9, 12), (9, 12), (9, 12), (12, 7),
                (12, 7), (12, 11), (12, 11), (12, 11), (12, 11), (16, 0), (16, 8)]),
            (3, 5, 3): (95731.33333333334, [(4, 20)] * 4 + [(8, 12)] * 8
                        + [(10, 25)] * 2 + [(25, 0)]),
        }
        for (dim, n, leaf), (flops, sizes) in cases.items():
            fac = nd_factor(assemble_stencil(dim, n), nd_partition(dim, n, leaf))
            assert fac.flops == flops
            assert sorted((len(f.sep), len(f.bnd)) for f in fac.fronts) == sizes

    def test_nonfinite_matrix_raises(self):
        # checked once on entry, in a leaf's entry and in the top separator's
        st = assemble_stencil(2, 8)
        tree = nd_partition(2, 8, leaf_cells=3)
        for i in (tree.ordering[0], tree.ordering[tree.offsets[-2]]):
            for bad in (np.nan, np.inf):
                A = st.A.copy()
                A[i, i] = bad
                with pytest.raises(ValueError, match="infs or NaNs"):
                    nd_factor(A, tree)

    @pytest.mark.filterwarnings("ignore::scipy.linalg.LinAlgWarning")
    def test_singular_front_raises(self):
        st = assemble_stencil(2, 8)
        A = st.A.tolil()
        # zero out one leaf's rows to force a singular front
        A[0, :] = 0.0
        A[:, 0] = 0.0
        with pytest.raises(SingularMatrixError, match="box"):
            nd_factor(A.tocsr(), nd_partition(2, 8, leaf_cells=3))


class TestSeparation:
    def test_coupling_no_separator_cuts(self):
        st = assemble_stencil(2, 8)
        A = st.A.tolil()
        A[0, 63] = A[63, 0] = -1.0
        # the first front to see the coupling is the root's left child
        msg = r"box \(\(0, 3\), \(0, 8\)\) couples to index 63"
        with pytest.raises(SeparationError, match=msg):
            nd_factor(A.tocsr(), nd_partition(2, 8, leaf_cells=3))
        assert bie2d.SeparationError is SeparationError

    def test_tree_smaller_than_matrix(self):
        with pytest.raises(SeparationError, match="index 64 lies in 0 of the separators"):
            nd_factor(assemble_stencil(2, 81), nd_partition(2, 8, leaf_cells=3))

    def test_tree_larger_than_matrix(self):
        with pytest.raises(SeparationError, match=r"outside range\(64\)"):
            nd_factor(assemble_stencil(2, 8), nd_partition(2, 9, leaf_cells=3))


@settings(max_examples=50, derandomize=True, deadline=None, database=None)
@given(dim=strategies.sampled_from([2, 3]), data=strategies.data())
def test_nd_solve_matches_dense_solve(dim, data):
    # n not a power of two, nonsymmetric values on the stencil pattern, a
    # real or complex shift that keeps A diagonally dominant; b real or
    # complex whatever A is, with 0 to 3 columns, C- or F-ordered or strided
    n = data.draw(strategies.integers(5, 23 if dim == 2 else 11), label="n")
    if n & (n - 1) == 0:
        n += 1
    leaf_cells = data.draw(strategies.integers(3, min(6, n)), label="leaf_cells")
    shift = data.draw(strategies.sampled_from([1.0, 1j]), label="shift")
    nrhs = data.draw(strategies.sampled_from([1, 0, 3]), label="nrhs")
    layout = data.draw(strategies.sampled_from(["C", "F", "strided"]), label="layout")
    b_complex = data.draw(strategies.booleans(), label="b_complex")
    rng = np.random.default_rng(data.draw(strategies.integers(0, 2**32 - 1), label="seed"))
    stencil = assemble_stencil(dim, n)
    A = stencil.A.tocoo(copy=True)
    off = A.row != A.col
    A.data[off] *= 1.0 + 0.2 * rng.uniform(-1.0, 1.0, off.sum())
    eye = scipy.sparse.identity(A.shape[0])
    A = (A + shift * rng.uniform(5.0, 8.0) * (n + 1) ** 2 * eye).tocsr()
    B = rng.standard_normal((A.shape[0], 2 * max(nrhs, 1)))
    if b_complex:
        B = B + 1j * rng.standard_normal(B.shape)
    if layout == "F":
        B = np.asfortranarray(B)
    b = B[:, ::2] if layout == "strided" else B[:, :max(nrhs, 1)]
    b = b[:, :nrhs] if nrhs != 1 else b[:, 0]
    x = nd_solve(nd_factor(A, nd_partition(dim, n, leaf_cells)), b)
    x_ref = np.linalg.solve(A.toarray(), b)
    assert x.shape == x_ref.shape and x.dtype == x_ref.dtype
    assert np.max(np.abs(x - x_ref), initial=0) <= 1e-11 * np.max(np.abs(x_ref), initial=0)


class TestSchurSpectrum:
    @pytest.mark.parametrize("kappa", [None, np.nan, np.inf, 0.0, -1.0])
    def test_helmholtz_rejects_bad_kappa(self, kappa):
        with pytest.raises(ValueError, match="kappa"):
            schur_offdiag_spectrum(2, 16, operator="helmholtz", kappa=kappa)

    def test_2d_laplace_rank_growth_slow(self):
        r64 = schur_offdiag_spectrum(2, 64).rank_at(1e-10)
        r128 = schur_offdiag_spectrum(2, 128).rank_at(1e-10)
        assert r128 - r64 <= 5
        assert r128 <= 30

    def test_2d_laplace_decay_reaches_floor(self):
        res = schur_offdiag_spectrum(2, 64)
        cutoff = min(60, len(res.sigmas))
        assert res.sigmas[cutoff - 1] < 1e-14

    def test_helmholtz_oscillatory_content(self):
        # oscillation raises the rank roughly linearly in the wave count
        # before the exponential tail takes over; the leading singular
        # values show no flat 0.1-level plateau, since sigma_0 follows the
        # cavity mode nearest kappa^2 (acceptance criterion 11 asserts
        # the rank law instead)
        ranks = []
        for waves in (5, 10, 20):
            res = schur_offdiag_spectrum(
                2, 128, operator="helmholtz", kappa=2.0 * np.pi * waves
            )
            assert res.sigmas[-1] < 1e-10
            ranks.append(res.rank_at(1e-10))
        laplace_rank = schur_offdiag_spectrum(2, 128).rank_at(1e-10)
        assert ranks[0] > laplace_rank
        assert ranks[0] < ranks[1] < ranks[2]

    def test_helmholtz_matches_dense_oracle(self):
        # S_ab = A(I_a, I_2) A_22^{-1} A(I_2, I_b) formed densely from a
        # 5-point Helmholtz stencil in row-major order on a 32 x 32 grid
        n, kappa = 32, 2.0 * np.pi * 5.0
        T = 2.0 * np.eye(n) - np.eye(n, k=1) - np.eye(n, k=-1)
        A = (n + 1) ** 2 * (np.kron(T, np.eye(n)) + np.kron(np.eye(n), T))
        A -= kappa**2 * np.eye(n * n)
        grid = np.arange(n * n).reshape(n, n)
        cut = (n - 1) // 2
        I2 = grid[:cut].ravel()
        Ia, Ib = grid[cut, : n // 2], grid[cut, n // 2 :]
        S = A[np.ix_(Ia, I2)] @ np.linalg.solve(A[np.ix_(I2, I2)], A[np.ix_(I2, Ib)])
        oracle = np.linalg.svd(S, compute_uv=False)
        res = schur_offdiag_spectrum(2, n, operator="helmholtz", kappa=kappa)
        assert res.sigmas.shape == oracle.shape
        np.testing.assert_allclose(res.sigmas, oracle / oracle[0], rtol=0, atol=1e-10)

    def test_3d_rank_exceeds_2d(self):
        r3 = schur_offdiag_spectrum(3, 16, leaf_cells=3).rank_at(1e-10)
        r2 = schur_offdiag_spectrum(2, 128).rank_at(1e-10)
        assert r3 >= 2 * r2  # 3D separators carry much higher rank

    def test_leaf_cells_above_n(self):
        # `fds nd --schur` passes leaf_cells=8 at any n
        res = schur_offdiag_spectrum(2, 6, leaf_cells=8)
        assert res.sigmas.shape == (3,) and np.all(np.isfinite(res.sigmas))
        assert schur_offdiag_spectrum(2, 16, leaf_cells=np.int64(4)).sigmas.shape == (8,)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            schur_offdiag_spectrum(2, 512)
        with pytest.raises(ValueError):
            schur_offdiag_spectrum(2, 64, operator="helmholtz")


@pytest.mark.parametrize("call, error, match", [
    (lambda: assemble_stencil(4, 8), ValueError, "dim must be 2 or 3, got 4"),
    (lambda: assemble_stencil(2, 2), ValueError, "need n >= 3 points per side, got 2"),
    (lambda: assemble_stencil(2, 4, np.ones(15)), ValueError, "m_field must have 16 samples"),
    (lambda: nd_partition(2, 8, 2), ValueError, "need 3 <= leaf_cells <= n, got leaf_cells=2"),
    (lambda: nd_factor(scipy.sparse.csr_array((4, 5)), nd_partition(2, 4, 3)), ValueError,
     r"A must be square, got shape \(4, 5\)"),
    (lambda: schur_offdiag_spectrum(2, 16, operator="biharmonic"), ValueError,
     "unknown operator 'biharmonic'"),
    *[(lambda leaf=leaf: schur_offdiag_spectrum(2, 16, leaf_cells=leaf), ValueError,
       rf"need an integer leaf_cells >= 3, got leaf_cells={leaf!r}")
      for leaf in (0, -5, 2, 2.5, 3.0, True)],
], ids=["stencil-dim-4", "stencil-n-2", "stencil-short-m-field", "partition-leaf-2",
        "factor-4x5", "schur-biharmonic", "schur-leaf-0", "schur-leaf-minus-5", "schur-leaf-2",
        "schur-leaf-2.5", "schur-leaf-3.0", "schur-leaf-True"])
def test_refused_inputs(call, error, match):
    with pytest.raises(error, match=match):
        call()
