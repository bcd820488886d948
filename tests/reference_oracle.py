"""Test oracles: the plain per-rule and per-feature versions of batched code.

The single-point forward and backward passes of one neural rule are the
per-rule, per-point math written out plainly. The rule bank in ``nre.neural``
computes the same values and gradients for all rules and rows at once; the
tests compare the two, and check this oracle against finite differences,
including its gradient with respect to the input point.

``reference_bank_backward`` is the rule bank's backward pass as it was when it
found each row's pooled unit with an argmin over the unit axis; the bank now
routes by an equality mask, and the tests require bit-identical gradients.

``reference_bank_forward`` is the rule bank's forward pass as it was when it
applied the last layer's ReLU to every unit and then pooled; the bank now pools
the pre-activations and applies the ReLU to the minimum, and the tests require
equal pooled values, scores and gradients.

``reference_sigmoid`` is the logistic function as two masked halves, the way
``nre.ensemble._sigmoid`` computed it before it became one ``np.where``; the
tests require the same bits on every input that is not NaN.

``reference_build_tree`` is the recursive tree growth that argsorts every
feature at every node, one feature at a time. ``nre.tree.build_tree`` sorts
each feature once and scans all features of a node together; the tests require
the two to grow identical trees.

``reference_load_table`` is the CSV loader that converts one cell at a time
with ``float()``. ``nre.data.load_table`` converts all feature cells in one
numpy call; the tests require the same ``Dataset`` or the same error text.

``reference_route`` is the leaf one point reaches, walked node by node;
``DecisionTree.predict`` routes all rows together and must give that leaf's
vote, and each leaf's rule must be active exactly where the leaf is reached.

``reference_feature_set``, ``reference_depth``, ``reference_n_leaves``,
``reference_leaves``, ``reference_pretty`` and ``reference_extract_rules`` are
the recursive tree traversals that ``DecisionTree.walk`` replaced; the tests
require the walk-based methods to give the same results on every tree.

``margin_split_gain``, ``rule_norm`` and ``grid_convexity_check`` are helpers
that only the tests use: the brute-force split oracle, the rule-norm margins of
the acceptance tests and the convexity check of rule supports on a grid.
"""
from __future__ import annotations

import csv
import os
from dataclasses import dataclass

import numpy as np

from nre.data import Dataset, _delimiter_for, _open_text, _values_equal
from nre.errors import DataError
from nre.neural import BankPass, NeuralRule, RuleBank
from nre.rules import BALANCED_LEAF_VALUE, ConjunctiveRule, Literal
from nre.tree import DecisionTree, TreeNode


@dataclass
class ForwardTrace:
    """Intermediates of one forward pass, kept for backpropagation."""

    x_t: np.ndarray
    preacts1: np.ndarray
    acts1: np.ndarray
    preacts2: np.ndarray | None
    acts2: np.ndarray | None
    argmin_index: int
    value: float


@dataclass
class RuleGradients:
    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray | None
    b2: np.ndarray | None
    c: float
    dx_t: np.ndarray | None = None  # gradient w.r.t. the gathered input, tests only


def forward(n: NeuralRule, x) -> ForwardTrace:
    """Evaluate the rule at one point; the trace carries everything backward needs."""
    x_t = np.asarray(x, dtype=np.float64)[list(n.tree_features)]
    pre1 = n.w1 @ x_t + n.b1
    act1 = np.maximum(0.0, pre1)
    if n.deep:
        pre2 = n.w2 @ act1 + n.b2
        act2 = np.maximum(0.0, pre2)
        final = act2
    else:
        pre2 = act2 = None
        final = act1
    k = int(np.argmin(final))  # first occurrence = smallest index on ties
    return ForwardTrace(x_t, pre1, act1, pre2, act2, k, float(n.c * final[k]))


def backward(n: NeuralRule, trace: ForwardTrace, upstream: float) -> RuleGradients:
    """Gradients of ``upstream * value`` for every parameter plus the input.

    Outside the support (pooled minimum <= 0) everything is exactly zero.
    Inside, only the argmin unit carries gradient; for deep rules it fans out
    to first-layer units with positive preactivation.
    """
    gw1 = np.zeros_like(n.w1)
    gb1 = np.zeros_like(n.b1)
    gw2 = np.zeros_like(n.w2) if n.deep else None
    gb2 = np.zeros_like(n.b2) if n.deep else None
    dx_t = np.zeros_like(trace.x_t)
    final = trace.acts2 if n.deep else trace.acts1
    k = trace.argmin_index
    a_min = final[k]
    if a_min <= 0.0:
        return RuleGradients(gw1, gb1, gw2, gb2, 0.0, dx_t)
    dc = upstream * a_min
    g = upstream * n.c  # d(upstream * value) / d(final act of unit k)
    if n.deep:
        gw2[k] = g * trace.acts1
        gb2[k] = g
        dpre1 = g * n.w2[k] * (trace.preacts1 > 0.0)
        gw1 += dpre1[:, None] * trace.x_t
        gb1 += dpre1
        dx_t = n.w1.T @ dpre1
    else:
        gw1[k] = g * trace.x_t
        gb1[k] = g
        dx_t = g * n.w1[k]
    return RuleGradients(gw1, gb1, gw2, gb2, dc, dx_t)


def reference_sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z, dtype=np.float64)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def reference_bank_forward(bank: RuleBank, X_t: np.ndarray) -> BankPass:
    """Every rule of the bank on every row of X_t: ReLU on every unit, then the min pool."""
    act1 = np.maximum(bank.W1 @ X_t.T + bank.B1[:, :, None], 0.0)
    final = act1
    if bank.deep:
        final = np.maximum(bank.W2 @ act1 + bank.B2[:, :, None], 0.0)
    final[bank._pad] = np.inf
    pooled = final.min(axis=1)
    return BankPass(bank.c @ pooled, pooled, final, act1 if bank.deep else None, X_t, None)


def reference_bank_backward(bank: RuleBank, fp: BankPass, upstream: np.ndarray):
    """Gradient of sum_n upstream[n] * (summed rule outputs of row n of fp).

    Writes into and returns ``grad``. Outside a rule's support its
    gradient is exactly zero; inside, only the pooled unit carries
    gradient, and in deep rules it fans out to the first-layer units with
    positive activation.
    """
    np.matmul(fp.pooled, upstream, out=bank._gc)
    g = np.where(fp.pooled > 0.0, upstream * bank.c[:, None], 0.0)
    argmin = np.argmin(fp.final, axis=1)  # the lowest index on ties
    G = np.zeros_like(fp.final)
    np.put_along_axis(G, argmin[:, None, :], g[:, None, :], axis=1)
    if bank.deep:
        gW2, gB2 = bank._gW2B2
        np.matmul(G, fp.act1.transpose(0, 2, 1), out=gW2)
        G.sum(axis=2, out=gB2)
        G = np.matmul(bank.W2.transpose(0, 2, 1), G)
        G *= fp.act1 > 0.0
    np.matmul(G, fp.X_t, out=bank._gW1)
    G.sum(axis=2, out=bank._gB1)
    return bank.grad


def reference_best_split(
    features: np.ndarray, labels: np.ndarray, min_leaf: int = 1
) -> tuple[int, float, float] | None:
    """Exhaustive scan for the margin-gain-maximizing (feature, threshold).

    Candidate thresholds are midpoints strictly between consecutive sorted
    values. Ties break to the lowest feature index, then the lowest threshold.
    Returns None when no candidate has strictly positive gain (in particular
    for pure nodes and constant features).
    """
    X = np.asarray(features, dtype=np.float64)
    y = np.asarray(labels)
    n = X.shape[0]
    if n < 2:
        return None
    pos = (y == 1).astype(np.int64)
    total_pos = int(pos.sum())
    total_neg = n - total_pos
    parent_term = (total_pos - total_neg) ** 2 / n

    best: tuple[int, float, float] | None = None
    for f in range(X.shape[1]):
        order = np.argsort(X[:, f], kind="stable")
        xs = X[order, f]
        cum_pos = np.cumsum(pos[order])
        # boundary after index i means a left child of size i+1; adjacent doubles
        # have no midpoint strictly between them, so x <= t could not split there
        mids = (xs[:-1] + xs[1:]) / 2
        boundary = np.flatnonzero((xs[:-1] < mids) & (mids < xs[1:]))
        if min_leaf > 1:
            sizes = boundary + 1
            boundary = boundary[(sizes >= min_leaf) & (n - sizes >= min_leaf)]
        if boundary.size == 0:
            continue
        nl = boundary + 1
        nl_pos = cum_pos[boundary]
        nl_neg = nl - nl_pos
        nr_pos = total_pos - nl_pos
        nr_neg = total_neg - nl_neg
        gains = (nl_pos - nl_neg) ** 2 / nl + (nr_pos - nr_neg) ** 2 / (n - nl) - parent_term
        k = int(np.argmax(gains))  # first max = lowest threshold
        gain = float(gains[k])
        if gain > 0.0 and (best is None or gain > best[2]):
            threshold = float((xs[boundary[k]] + xs[boundary[k] + 1]) / 2)
            best = (f, threshold, gain)
    return best


def reference_build_tree(d: Dataset, max_depth: int, min_leaf: int = 1) -> DecisionTree:
    """Greedy recursive partitioning under the margin-gain criterion.

    Recursion stops at ``max_depth``, on pure nodes, when no candidate split
    has positive gain, or when a split would starve a child below ``min_leaf``.
    """
    if max_depth < 1:
        raise DataError("max_depth must be >= 1")
    if min_leaf < 1:
        raise DataError("min_leaf must be >= 1")
    X, y = d.features, d.labels
    if X.shape[0] == 0:
        raise DataError("cannot build a tree from an empty dataset")

    def grow(idx: np.ndarray, depth: int) -> TreeNode:
        ys = y[idx]
        n_pos = int(np.sum(ys == 1))
        n_neg = idx.size - n_pos
        node = TreeNode(n_pos=n_pos, n_neg=n_neg)
        if depth >= max_depth or n_pos == 0 or n_neg == 0:
            return node
        found = reference_best_split(X[idx], ys, min_leaf=min_leaf)
        if found is None:
            return node
        f, t, _ = found
        mask = X[idx, f] <= t
        node.feature = f
        node.threshold = t
        node.left = grow(idx[mask], depth + 1)
        node.right = grow(idx[~mask], depth + 1)
        return node

    root = grow(np.arange(X.shape[0]), 0)
    return DecisionTree(root=root, max_depth=max_depth)


def reference_load_table(path: str, label_column, positive_label=None) -> Dataset:
    """Read a delimited text file into a Dataset.

    The delimiter comes from the extension (.tsv/.tab are tab-separated,
    anything else comma-separated; a .gz suffix is decompressed transparently)
    and a header row is required. ``label_column`` may be a column name or a
    0-based index. Rows must have exactly two distinct label values;
    ``positive_label`` maps to +1 and the other value to -1. When
    ``positive_label`` is None the numerically (or lexicographically) larger
    raw value becomes +1.
    """
    if not os.path.exists(path):
        raise DataError(f"no such file: {path}")
    delim = _delimiter_for(path)
    with _open_text(path) as fh:
        reader = csv.reader(fh, delimiter=delim)
        rows = [row for row in reader if row]
    if not rows:
        raise DataError(f"empty file: {path}")
    header = [h.strip() for h in rows[0]]
    if isinstance(label_column, int):
        label_idx = label_column
        if not 0 <= label_idx < len(header):
            raise DataError(f"label column index {label_idx} out of range")
    else:
        try:
            label_idx = header.index(str(label_column))
        except ValueError:
            raise DataError(f"label column {label_column!r} not in header {header}") from None
    body = rows[1:]
    if not body:
        raise DataError(f"no data rows in {path}")

    raw_labels = []
    for i, row in enumerate(body):
        if len(row) != len(header):
            raise DataError(f"row {i + 2} has {len(row)} cells, expected {len(header)}")
        raw_labels.append(row[label_idx].strip())
    distinct = sorted(set(raw_labels))
    if len(distinct) > 2:
        raise DataError(f"more than two classes in {path}: {distinct[:5]}")
    if positive_label is None:
        try:
            positive_label = max(distinct, key=float)
        except ValueError:
            positive_label = max(distinct)
    if not any(_values_equal(v, positive_label) for v in distinct):
        raise DataError(f"positive label {positive_label!r} not among values {distinct}")

    feature_names = tuple(h for j, h in enumerate(header) if j != label_idx)
    features = np.empty((len(body), len(feature_names)), dtype=np.float64)
    for i, row in enumerate(body):
        col = 0
        for j, cell in enumerate(row):
            if j == label_idx:
                continue
            try:
                features[i, col] = float(cell)
            except ValueError:
                raise DataError(
                    f"non-numeric value {cell!r} at row {i + 2}, column {header[j]!r}"
                ) from None
            col += 1
    labels = np.where([_values_equal(v, positive_label) for v in raw_labels], 1, -1)
    return Dataset(features, labels, feature_names)


def reference_route(tree: DecisionTree, x) -> TreeNode:
    """Leaf reached by a point under the x <= threshold goes left convention."""
    node = tree.root
    while not node.is_leaf:
        node = node.left if x[node.feature] <= node.threshold else node.right
    return node


def reference_feature_set(tree: DecisionTree) -> tuple[int, ...]:
    used = set()

    def walk(node):
        if not node.is_leaf:
            used.add(node.feature)
            walk(node.left)
            walk(node.right)

    walk(tree.root)
    return tuple(sorted(used))


def reference_depth(tree: DecisionTree) -> int:
    def d(node):
        return 0 if node.is_leaf else 1 + max(d(node.left), d(node.right))

    return d(tree.root)


def reference_n_leaves(tree: DecisionTree) -> int:
    def c(node):
        return 1 if node.is_leaf else c(node.left) + c(node.right)

    return c(tree.root)


def reference_leaves(tree: DecisionTree) -> list[TreeNode]:
    """Leaves in left-to-right order."""
    out = []

    def walk(node):
        if node.is_leaf:
            out.append(node)
        else:
            walk(node.left)
            walk(node.right)

    walk(tree.root)
    return out


def reference_pretty(tree: DecisionTree, feature_names=None) -> str:
    """One node per line, children indented under their parent."""

    def name(j):
        return feature_names[j] if feature_names else f"x{j}"

    lines = []

    def walk(node, indent):
        pad = "  " * indent
        if node.is_leaf:
            lines.append(f"{pad}leaf (n+={node.n_pos}, n-={node.n_neg})")
        else:
            lines.append(
                f"{pad}{name(node.feature)} <= {node.threshold:.6g}"
                f" (n+={node.n_pos}, n-={node.n_neg})"
            )
            walk(node.left, indent + 1)
            walk(node.right, indent + 1)

    walk(tree.root, 0)
    return "\n".join(lines)


def reference_extract_rules(tree: DecisionTree) -> list[ConjunctiveRule]:
    """One rule per leaf, in left-to-right order, literals in root-to-leaf order.

    The activation value is the signed class margin at the leaf,
    (n+ - n-) / (n+ + n-); perfectly balanced leaves get a small positive
    placeholder so the value stays nonzero (training can move it anyway).
    """
    rules: list[ConjunctiveRule] = []

    def walk(node, path: list[Literal]):
        if node.is_leaf:
            n = node.n_pos + node.n_neg
            c = (node.n_pos - node.n_neg) / n
            if c == 0.0:
                c = BALANCED_LEAF_VALUE
            rules.append(
                ConjunctiveRule(tuple(path), c=c, n_pos=node.n_pos, n_neg=node.n_neg)
            )
            return
        walk(node.left, path + [Literal(node.feature, -1, node.threshold)])
        walk(node.right, path + [Literal(node.feature, +1, -node.threshold)])

    walk(tree.root, [])
    return rules


def margin_split_gain(nl_pos: int, nl_neg: int, nr_pos: int, nr_neg: int) -> float:
    """Squared class-count margin gained by splitting a parent into two children."""
    n_l = nl_pos + nl_neg
    n_r = nr_pos + nr_neg
    if n_l < 1 or n_r < 1:
        raise ValueError("both children must receive at least one sample")
    np_pos = nl_pos + nr_pos
    np_neg = nl_neg + nr_neg
    n_p = n_l + n_r
    return (nl_pos - nl_neg) ** 2 / n_l + (nr_pos - nr_neg) ** 2 / n_r - (np_pos - np_neg) ** 2 / n_p


def rule_norm(r: ConjunctiveRule) -> float:
    """Euclidean norm of the rule's activation vector over its training data: |c| sqrt(n)."""
    n = r.n_pos + r.n_neg
    if n < 1:
        raise ValueError("rule norm needs at least one activated training sample")
    return abs(r.c) * np.sqrt(n)


def grid_convexity_check(mask: np.ndarray) -> bool:
    """Discrete convexity of a boolean grid: midpoints of support cells stay in support.

    For every pair of support cells, at least one of the (up to four) cells
    surrounding their exact midpoint must be in the support too. The slack of
    one cell absorbs rasterization aliasing at curved boundaries while still
    failing decisively when the support splits into pieces or grows a dent.
    """
    cells = np.argwhere(mask)
    if cells.shape[0] < 3:
        return True
    for start in range(0, cells.shape[0], 256):
        block = cells[start : start + 256]
        mid = (block[:, None, :] + cells[None, :, :]) / 2.0
        lo = np.floor(mid).astype(int)
        hi = np.ceil(mid).astype(int)
        ok = (
            mask[lo[..., 0], lo[..., 1]]
            | mask[lo[..., 0], hi[..., 1]]
            | mask[hi[..., 0], lo[..., 1]]
            | mask[hi[..., 0], hi[..., 1]]
        )
        if not np.all(ok):
            return False
    return True
