import tracemalloc
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import ULP, chain_dataset, gridded_datasets, random_dataset
from nre.data import Dataset
from nre.errors import DataError
from nre import tree as tree_module
from nre.tree import (
    MAX_DEPTH,
    MAX_ROWS,
    SPLIT_SCAN_CELLS,
    DecisionTree,
    TreeNode,
    _scan,
    build_tree,
)
from nre.rules import extract_rules
from reference_oracle import (
    margin_split_gain,
    reference_build_tree,
    reference_depth,
    reference_extract_rules,
    reference_feature_set,
    reference_leaves,
    reference_n_leaves,
    reference_pretty,
    reference_route,
)


def best_split(features, labels, min_leaf=1):
    """The one-node search of ``build_tree``: (feature, threshold, gain) or None.

    Candidate thresholds are midpoints strictly between consecutive sorted
    values. Ties break to the lowest feature index, then the lowest threshold.
    None when no candidate has strictly positive gain (in particular for pure
    nodes and constant features).
    """
    XT = np.asarray(features, dtype=np.float64).T
    pos = np.asarray(labels) == 1
    order = np.argsort(XT, axis=1)
    vals, labs = np.take_along_axis(XT, order, axis=1), pos[order]
    found = _scan(vals, labs, int(np.count_nonzero(pos)), min_leaf)
    return None if found is None else found[:3]


def brute_force_best_split(X, y, min_leaf=1):
    """Independent scan: every (feature, midpoint) pair through margin_split_gain."""
    n, p = X.shape
    best = None
    for f in range(p):
        values = sorted(set(X[:, f].tolist()))
        for lo, hi in zip(values[:-1], values[1:]):
            t = (lo + hi) / 2
            left = X[:, f] <= t
            nl = int(left.sum())
            if nl < min_leaf or n - nl < min_leaf:
                continue
            nl_pos = int((y[left] == 1).sum())
            nr_pos = int((y[~left] == 1).sum())
            gain = margin_split_gain(nl_pos, nl - nl_pos, nr_pos, (n - nl) - nr_pos)
            if gain > 0 and (best is None or gain > best[2]):
                best = (f, t, gain)
    return best


class TestMarginSplitGain:
    def test_perfect_split_of_balanced_parent(self):
        assert margin_split_gain(5, 0, 0, 5) == 10.0

    def test_pure_parent_always_zero(self):
        for k in range(1, 10):
            assert margin_split_gain(k, 0, 10 - k, 0) == 0.0

    def test_hand_evaluated_case(self):
        assert margin_split_gain(3, 1, 1, 3) == 2.0

    def test_empty_child_rejected(self):
        with pytest.raises(ValueError):
            margin_split_gain(0, 0, 3, 2)


class TestBestSplit:
    def test_one_dimensional_separable(self):
        X = np.array([[1.0], [2.0], [3.0], [4.0]])
        y = np.array([-1, -1, 1, 1])
        f, t, gain = best_split(X, y)
        assert (f, t, gain) == (0, 2.5, 4.0)

    def test_identical_features_gives_none(self):
        X = np.ones((6, 2))
        y = np.array([1, -1, 1, -1, 1, -1])
        assert best_split(X, y) is None

    def test_pure_node_gives_none(self):
        X = np.arange(8, dtype=float).reshape(4, 2)
        y = np.ones(4, dtype=int)
        assert best_split(X, y) is None

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(21)
        for _ in range(100):
            n = int(rng.integers(2, 13))
            p = int(rng.integers(1, 4))
            # small integer grids force duplicate values and tied gains
            X = rng.integers(0, 4, size=(n, p)).astype(float)
            y = np.where(rng.random(n) > 0.5, 1, -1)
            assert best_split(X, y) == brute_force_best_split(X, y)

    def test_tie_breaks_to_lowest_feature_then_threshold(self):
        # both features split identically: feature 0 must win
        X = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])
        y = np.array([-1, -1, 1, 1])
        f, t, _ = best_split(X, y)
        assert f == 0 and t == 1.5

    def test_duplicating_samples_keeps_argmax(self):
        rng = np.random.default_rng(33)
        for _ in range(20):
            X = rng.normal(size=(10, 2))
            y = np.where(rng.random(10) > 0.5, 1, -1)
            base = best_split(X, y)
            doubled = best_split(np.vstack([X, X]), np.concatenate([y, y]))
            if base is None:
                assert doubled is None
            else:
                assert doubled[0] == base[0] and doubled[1] == base[1]
                assert doubled[2] == pytest.approx(2 * base[2])

    def test_best_candidate_without_midpoint_falls_back_to_a_split(self):
        # The top gain, 4 at n_left = 2, sits between two zeros; the only
        # candidate with a midpoint is 0 | 1.
        X = np.array([[0.0], [0.0], [0.0], [1.0]])
        y = np.array([1, 1, -1, -1])
        assert best_split(X, y) == (0, 0.5, 4 / 3)

    def test_best_candidate_between_adjacent_doubles_falls_back_to_a_split(self):
        # The top gain, 4.8 at n_left = 2, sits between 1 and 1 + ULP, whose
        # midpoint rounds to 1 (the brute-force oracle splits there). The only
        # candidate with a midpoint is 1 + ULP | 2: margins 0 and -1, so the gain
        # is 0/4 + 1/1 - 1/5.
        X = np.array([[1.0], [1.0], [1.0 + ULP], [1.0 + ULP], [2.0]])
        y = np.array([1, 1, -1, -1, -1])
        assert best_split(X, y) == (0, 1.5, 0.8)

    def test_min_leaf_filters_candidates(self):
        X = np.array([[0.0], [1.0], [2.0], [3.0], [4.0], [5.0]])
        y = np.array([-1, 1, 1, 1, 1, 1])
        unrestricted = best_split(X, y)
        assert unrestricted[1] == 0.5
        restricted = best_split(X, y, min_leaf=2)
        assert restricted is None or restricted[1] != 0.5


def xor9_dataset():
    """Imbalanced two-feature XOR where greedy splitting succeeds."""
    pts, labs = [], []
    for (cx, cy), lab, count in [
        ((0.0, 0.0), -1, 3),
        ((0.0, 1.0), 1, 2),
        ((1.0, 0.0), 1, 2),
        ((1.0, 1.0), -1, 2),
    ]:
        for _ in range(count):
            pts.append((cx, cy))
            labs.append(lab)
    return Dataset(np.array(pts), np.array(labs), ("x0", "x1"))


def enumerate_depth2_min_error(d):
    """Minimum training error over all depth-2 trees with midpoint thresholds."""

    def midpoints(col):
        vals = sorted(set(col.tolist()))
        return [(a + b) / 2 for a, b in zip(vals[:-1], vals[1:])]

    X, y = d.features, d.labels
    n = len(y)

    def leaf_errors(mask):
        ys = y[mask]
        if ys.size == 0:
            return 0
        pos = int((ys == 1).sum())
        return min(pos, ys.size - pos)

    best = min(leaf_errors(np.ones(n, dtype=bool)), n)  # depth-0 tree
    splits = [(f, t) for f in range(X.shape[1]) for t in midpoints(X[:, f])]
    for f0, t0 in splits:
        left = X[:, f0] <= t0
        err_left = min(
            [leaf_errors(left)]
            + [
                leaf_errors(left & (X[:, f] <= t)) + leaf_errors(left & (X[:, f] > t))
                for f, t in splits
            ]
        )
        err_right = min(
            [leaf_errors(~left)]
            + [
                leaf_errors(~left & (X[:, f] <= t)) + leaf_errors(~left & (X[:, f] > t))
                for f, t in splits
            ]
        )
        best = min(best, err_left + err_right)
    return best / n


class TestBuildTree:
    def test_imbalanced_xor_reaches_four_leaves_zero_error(self):
        d = xor9_dataset()
        tree = build_tree(d, max_depth=2)
        assert tree.n_leaves() == 4
        assert np.mean(tree.predict(d.features) != d.labels) == 0.0
        # greedy matches the enumerated optimum over all depth-2 trees
        assert enumerate_depth2_min_error(d) == 0.0

    def test_balanced_xor_has_no_positive_gain_split(self):
        # perfectly balanced XOR: every axis split has zero margin gain, so the
        # greedy tree stops at the root (see decisions ledger)
        X = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
        y = np.array([-1, 1, 1, -1])
        d = Dataset(X, y, ("x0", "x1"))
        assert best_split(X, y) is None
        tree = build_tree(d, max_depth=2)
        assert tree.n_leaves() == 1

    def test_linearly_separable_1d_gives_depth_one(self):
        d = Dataset(
            np.array([[0.1], [0.4], [2.0], [3.0]]), np.array([-1, -1, 1, 1]), ("f",)
        )
        tree = build_tree(d, max_depth=5)
        assert tree.depth() == 1
        leaves = tree.leaves()
        assert len(leaves) == 2
        assert all(l.n_pos == 0 or l.n_neg == 0 for l in leaves)

    def test_max_depth_bounds_every_path(self):
        rng = np.random.default_rng(2)
        for depth in (1, 2, 3):
            d = random_dataset(rng, 60, 3)
            tree = build_tree(d, max_depth=depth)
            assert tree.depth() <= depth

    def test_depth_bound(self):
        d = chain_dataset(300)
        tree = build_tree(d, max_depth=MAX_DEPTH)
        assert tree.depth() == MAX_DEPTH and tree.n_leaves() == MAX_DEPTH + 1
        with pytest.raises(DataError, match="max_depth"):
            build_tree(d, max_depth=MAX_DEPTH + 1)

    def test_count_conservation(self):
        rng = np.random.default_rng(3)
        d = random_dataset(rng, 100, 4)
        tree = build_tree(d, max_depth=4)

        def check(node):
            if node.is_leaf:
                return
            assert node.n_pos == node.left.n_pos + node.right.n_pos
            assert node.n_neg == node.left.n_neg + node.right.n_neg
            check(node.left)
            check(node.right)

        check(tree.root)
        assert tree.root.n_samples == d.n_samples

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        d=gridded_datasets(),
        max_depth=st.integers(1, 6),
        min_leaf=st.integers(1, 4),
        scan_cells=st.sampled_from([1, 20, SPLIT_SCAN_CELLS]),
    )
    def test_matches_reference_build_tree(self, d, max_depth, min_leaf, scan_cells):
        # small scan budgets split a node's features over several blocks
        with mock.patch.object(tree_module, "SPLIT_SCAN_CELLS", scan_cells):
            tree = build_tree(d, max_depth=max_depth, min_leaf=min_leaf)
        assert tree.to_dict() == reference_build_tree(d, max_depth, min_leaf).to_dict()

        def check(node, rows):
            if node.is_leaf:
                return node.n_pos, node.n_neg
            x = d.features[rows, node.feature]
            assert not np.any(x == node.threshold)  # no training value on a threshold
            go_left = x <= node.threshold
            assert min(go_left.sum(), (~go_left).sum()) >= min_leaf
            left = check(node.left, rows[go_left])
            right = check(node.right, rows[~go_left])
            assert (node.n_pos, node.n_neg) == (left[0] + right[0], left[1] + right[1])
            return node.n_pos, node.n_neg

        check(tree.root, np.arange(d.n_samples))
        assert sum(leaf.n_samples for leaf in tree.leaves()) == d.n_samples

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(d=gridded_datasets(), max_depth=st.integers(1, 6), min_leaf=st.integers(1, 4))
    @example(  # a constant column: the tree is a single leaf
        d=Dataset(np.full((3, 1), 2.0), np.array([1, -1, 1]), ("x0",)), max_depth=1, min_leaf=1
    )
    def test_walk_matches_recursive_traversals(self, d, max_depth, min_leaf):
        built = build_tree(d, max_depth=max_depth, min_leaf=min_leaf)
        names = [f"f{j}" for j in range(d.n_features)]
        for tree in (built, DecisionTree.from_dict(built.to_dict())):
            assert tree.feature_set == reference_feature_set(tree)
            assert tree.depth() == reference_depth(tree)
            assert tree.n_leaves() == reference_n_leaves(tree)
            assert tree.pretty() == reference_pretty(tree)
            assert tree.pretty(names) == reference_pretty(tree, names)
            leaves, expected = tree.leaves(), reference_leaves(tree)
            assert len(leaves) == len(expected)
            assert all(a is b for a, b in zip(leaves, expected))
            assert extract_rules(tree) == reference_extract_rules(tree)

    def test_feature_set_is_not_an_argument(self):
        with pytest.raises(TypeError):
            DecisionTree(root=TreeNode(n_pos=1, n_neg=0), max_depth=1, feature_set=(0,))

    def test_adjacent_doubles_give_a_single_leaf(self):
        # no double lies strictly between 1 and 1+eps or between 1+eps and 1+2eps,
        # so no threshold can separate these rows
        x = np.array([1.0, 1 + ULP, 1 + ULP, 1 + 2 * ULP, 1 + 2 * ULP])
        d = Dataset(x[:, None], np.array([-1, -1, -1, 1, 1]), ("x0",))
        tree = build_tree(d, max_depth=3, min_leaf=2)
        assert tree.n_leaves() == 1
        assert len(extract_rules(tree)) == 1

    def test_chosen_splits_have_positive_gain(self):
        rng = np.random.default_rng(4)
        d = random_dataset(rng, 80, 3)
        tree = build_tree(d, max_depth=4)

        def check(node):
            if node.is_leaf:
                return
            gain = margin_split_gain(
                node.left.n_pos, node.left.n_neg, node.right.n_pos, node.right.n_neg
            )
            assert gain > 0
            check(node.left)
            check(node.right)

        check(tree.root)

    def test_deterministic_structure(self):
        rng = np.random.default_rng(5)
        d = random_dataset(rng, 70, 3)
        t1 = build_tree(d, max_depth=3)
        t2 = build_tree(d, max_depth=3)
        assert t1.pretty() == t2.pretty()

    def test_min_leaf_respected(self):
        rng = np.random.default_rng(6)
        d = random_dataset(rng, 50, 2)
        tree = build_tree(d, max_depth=6, min_leaf=5)
        assert all(l.n_samples >= 5 for l in tree.leaves())

    def test_feature_set_sorted_distinct(self):
        rng = np.random.default_rng(7)
        d = random_dataset(rng, 120, 5)
        tree = build_tree(d, max_depth=4)
        used = set()

        def walk(node):
            if not node.is_leaf:
                used.add(node.feature)
                walk(node.left)
                walk(node.right)

        walk(tree.root)
        assert tree.feature_set == tuple(sorted(used))

    def test_empty_dataset_unrepresentable(self):
        d = Dataset(np.ones((1, 1)), np.array([1]), ("f",))
        with pytest.raises(DataError):
            d.subset(np.array([], dtype=int))

    def test_bad_hyperparameters_rejected(self):
        d = xor9_dataset()
        with pytest.raises(DataError):
            build_tree(d, max_depth=0)
        with pytest.raises(DataError):
            build_tree(d, max_depth=2, min_leaf=0)

    def test_rows_past_the_int32_bound_rejected(self):
        # zero strides: 2^31 rows of one feature that allocate nothing
        n, as_strided = MAX_ROWS + 1, np.lib.stride_tricks.as_strided
        d = SimpleNamespace(
            features=as_strided(np.zeros(1), shape=(n, 1), strides=(0, 0)),
            labels=as_strided(np.ones(1, dtype=np.int64), shape=(n,), strides=(0,)),
        )
        with pytest.raises(DataError, match=f"at most {MAX_ROWS} rows"):
            build_tree(d, max_depth=2)

    def test_pretty_one_line_per_node(self):
        d = xor9_dataset()
        tree = build_tree(d, max_depth=2)
        lines = tree.pretty().splitlines()
        assert len(lines) == 7  # 3 internal + 4 leaves
        assert lines[0].startswith("x")
        assert sum("leaf" in ln for ln in lines) == 4

    def test_predict_matches_route_on_and_off_thresholds(self):
        rng = np.random.default_rng(8)
        d = random_dataset(rng, 150, 3)
        tree = build_tree(d, max_depth=4)
        on_threshold = []

        def walk(node):
            if not node.is_leaf:
                x = rng.normal(size=3)
                x[node.feature] = node.threshold
                on_threshold.append(x)
                walk(node.left)
                walk(node.right)

        walk(tree.root)
        X = np.vstack([d.features, rng.normal(size=(50, 3)), on_threshold])
        assert len(on_threshold) > 1
        expected = [reference_route(tree, x).vote for x in X]
        np.testing.assert_array_equal(tree.predict(X), expected)
        assert tree.predict(X[0]).tolist() == expected[:1]
        assert tree.predict(np.empty((0, 3))).shape == (0,)

    def test_round_trip_dict(self):
        d = xor9_dataset()
        tree = build_tree(d, max_depth=2)
        again = DecisionTree.from_dict(tree.to_dict())
        assert again.pretty() == tree.pretty()
        assert again.feature_set == tree.feature_set


def wide_draw(n=300, p=40):
    """Seeded wide data whose columns repeat values: integer grids, copies of the
    first column, doubles a few ulps apart (adjacent ones have no threshold between
    them) and continuous noise; the labels follow one column of each kind."""
    rng = np.random.default_rng(25)
    X = rng.normal(size=(n, p))
    X[:, :12] = rng.integers(0, 5, size=(n, 12))
    X[:, 12:16] = X[:, :1]
    X[:, 16:28] = 1.0 + rng.choice([0.0, 2.0, 3.0, 5.0], size=(n, 12)) * ULP
    score = X[:, 3] + (X[:, 20] > 1.0 + 2.5 * ULP) + X[:, 30] + rng.normal(size=n)
    return Dataset(X, np.where(score > 2.0, 1, -1), tuple(f"x{j}" for j in range(p)))


class TestSortedTables:
    @pytest.mark.parametrize("min_leaf", [1, 3])
    def test_partition_keeps_every_table_sorted_and_aligned(self, min_leaf):
        d = wide_draw()
        XT, pos = d.features.T, d.labels == 1
        partition = tree_module._partition
        calls = []

        def checked(tables, left_rows, go_left):
            p, n = tables[0].shape
            rows = np.sort(tables[0][0])
            left = np.sort(left_rows)
            partition(tables, left_rows, go_left)
            assert not go_left.any()
            flats = [t.reshape(-1) for t in tables]
            for lo, hi, expected in ((0, left.size, left), (left.size, n, np.setdiff1d(rows, left))):
                idx, vals, labs = (f[p * lo : p * hi].reshape(p, hi - lo) for f in flats)
                assert np.all(vals[:, :-1] <= vals[:, 1:])
                np.testing.assert_array_equal(vals, np.take_along_axis(XT, idx, axis=1))
                np.testing.assert_array_equal(labs, pos[idx])
                np.testing.assert_array_equal(np.sort(idx, axis=1), np.tile(expected, (p, 1)))
            calls.append(n)

        with mock.patch.object(tree_module, "SPLIT_SCAN_CELLS", 1000), mock.patch.object(
            tree_module, "_partition", checked
        ):
            tree = build_tree(d, max_depth=6, min_leaf=min_leaf)
        assert len(calls) >= 10
        assert tree.to_dict() == reference_build_tree(d, 6, min_leaf).to_dict()

    def test_peak_memory_is_bounded_by_the_tables(self):
        # One (p, N) float64 table is one unit. The index, value and label tables
        # hold 1.625 units and growth peaks at about 3.75 on this draw; the bound
        # is the 4.64 that the scan gathering its values at every node peaked at,
        # so one more float64 table goes past it.
        rng = np.random.default_rng(26)
        n, p = 3000, 300
        X = rng.normal(size=(n, p))
        y = np.where(X[:, 0] + X[:, 1] * X[:, 2] + rng.normal(size=n) > 0, 1, -1)
        d = Dataset(X, y, tuple(f"x{j}" for j in range(p)))
        tracemalloc.start()
        try:
            build_tree(d, max_depth=4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4.64 * p * n * 8
