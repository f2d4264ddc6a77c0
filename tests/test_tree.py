"""Cluster tree construction and breadth-first id conventions."""

import numpy as np
import pytest

from fds.tree import build_uniform_tree, sibling_pairs


def test_depth_three_tree():
    # 16 indices at leaf size 2: depth 3, 15 nodes, first leaf holds {0, 1}
    t = build_uniform_tree(16, 2)
    assert t.depth == 3 and t.nnodes == 15
    assert all(t.size(tau) == 2 for tau in t.leaves())
    assert t.ranges[8] == (0, 2)


def test_degenerate_single_node():
    t = build_uniform_tree(5, 8)
    assert t.depth == 0 and t.nnodes == 1
    assert t.ranges[1] == (0, 5)
    assert sibling_pairs(t) == []


def test_even_split_arithmetic():
    t = build_uniform_tree(1000, 64)
    assert t.depth == 3
    assert all(t.size(tau) == 125 for tau in t.leaves())


def test_odd_sizes_left_gets_extra():
    t = build_uniform_tree(11, 2)
    assert t.ranges[2] == (0, 6) and t.ranges[3] == (6, 11)
    sizes = [t.size(tau) for tau in t.leaves()]
    assert min(sizes) >= 2 and max(sizes) < 4


def test_padded_rows():
    # leaves of 97 and 98 rows pad to 98, each leaf's real rows first
    t = build_uniform_tree(777, 64)
    assert t.m == 98 and t.leaf.shape == (8, 98) and t.leaf.sum() == 777
    assert t == build_uniform_tree(777, 64) != build_uniform_tree(778, 64)
    x = np.arange(1.0, 778.0)
    v = t.pad(x)
    assert v.shape == (8, 98, 1) and np.array_equal(t.unpad(v)[:, 0], x)
    for Vj, tau in zip(v[:, :, 0], t.leaves()):
        n = t.size(tau)
        assert np.array_equal(Vj[:n], x[slice(*t.ranges[tau])]) and not Vj[n:].any()
    assert build_uniform_tree(1024, 64).leaf is None


def test_sibling_pairs_order():
    t = build_uniform_tree(16, 2)
    assert sibling_pairs(t) == [
        (2, 3), (4, 5), (6, 7), (8, 9), (10, 11), (12, 13), (14, 15)
    ]
    t1 = build_uniform_tree(4, 2)
    assert sibling_pairs(t1) == [(2, 3)]


def test_leaf_concatenation_covers_everything():
    for N, leaf in [(16, 2), (100, 7), (1000, 64), (37, 5)]:
        t = build_uniform_tree(N, leaf)
        cat = np.concatenate([t.index_range(tau) for tau in t.leaves()])
        assert np.array_equal(cat, np.arange(N))


def test_parent_child_containment_and_ids():
    t = build_uniform_tree(64, 4)
    for tau in range(2, t.nnodes + 1):
        parent = t.parent(tau)
        assert parent == tau // 2
        lo, hi = t.ranges[tau]
        plo, phi = t.ranges[parent]
        assert plo <= lo and hi <= phi and (hi - lo) < (phi - plo)
        if not t.is_leaf(tau):
            assert t.children(tau) == (2 * tau, 2 * tau + 1)


def test_invalid_arguments():
    with pytest.raises(ValueError):
        build_uniform_tree(0, 4)
    with pytest.raises(ValueError):
        build_uniform_tree(10, 1)
