"""Binary decision trees grown with a margin-maximizing split criterion.

The gain of a split is the children's summed (n+ - n-)^2 / n minus the same
quantity at the parent, so a split is only worth taking when it increases the
squared class-count margin per sample.

The split search is exact and sorts once, in the manner of SLIQ's presorted
attribute lists (Mehta, Agrawal & Rissanen 1996). ``build_tree`` argsorts
every feature a single time and keeps three feature-major tables of p x N
cells: the row index (int32), the feature value (float64) and the class label
(bool) of each feature's rows in ascending order of that feature. A node of n
rows owns one contiguous (p, n) block of each table, holding exactly its rows,
still sorted per feature, so a scan reads its values and labels as contiguous
slices and gathers nothing. After a split the block is partitioned in place
into the left child's (p, n_left) block followed by the right child's, each
feature keeping its order, so children are never sorted again. The tables take
13 bytes per cell, and growth peaks at about 30 (the partition's positions and
one moved table on top of them). A node's scan evaluates every candidate of
every feature with whole-array numpy operations, in feature blocks of at most
``SPLIT_SCAN_CELLS`` table cells, which bounds each temporary of the scan to
about 256 KB however wide or tall the data. Class counts are int32, which the
int32 row index already bounds, and child class-count margins are exact doubles,
so the gains, thresholds and tie-breaks (lowest feature, then lowest threshold)
are those of a per-feature scan that sorts at every node.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .data import Dataset
from .errors import DataError

# Table cells (features x node rows) a split scan handles at once: 256 KB per temporary.
SPLIT_SCAN_CELLS = 1 << 15

# Most rows build_tree takes: its tables index rows, and the scan counts them, in int32.
MAX_ROWS = np.iinfo(np.int32).max

# Deepest tree build_tree grows. Growth, predict, to_dict/from_dict and the model
# file's JSON coding each recurse once per level and failed past 989-994 levels on
# CPython 3.11, so iterative walkers could not save a deeper tree. The paper's grid stops at 10.
MAX_DEPTH = 256


def _is_index(v) -> bool:
    return type(v) is int and v >= 0


def _is_threshold(v) -> bool:
    """A float, or an int that float() can hold (one past the float range it cannot)."""
    if type(v) is int:
        try:
            float(v)
        except OverflowError:
            return False
    return type(v) in (int, float)


@dataclass
class TreeNode:
    n_pos: int
    n_neg: int
    feature: int | None = None
    threshold: float | None = None
    left: "TreeNode | None" = None
    right: "TreeNode | None" = None

    @property
    def is_leaf(self) -> bool:
        return self.left is None

    @property
    def n_samples(self) -> int:
        return self.n_pos + self.n_neg

    @property
    def vote(self) -> int:
        """Majority label at the node; ties go to +1."""
        return 1 if self.n_pos >= self.n_neg else -1

    def to_dict(self) -> dict:
        if self.is_leaf:
            return {"kind": "leaf", "n_pos": self.n_pos, "n_neg": self.n_neg}
        return {
            "kind": "internal",
            "feature": self.feature,
            "threshold": self.threshold,
            "n_pos": self.n_pos,
            "n_neg": self.n_neg,
            "left": self.left.to_dict(),
            "right": self.right.to_dict(),
        }

    @staticmethod
    def from_dict(d: dict, levels: int) -> "TreeNode":
        """The node of a ``to_dict`` form, with at most ``levels`` levels of splits;
        a deeper subtree, a count or feature that is not a non-negative int, or a
        threshold that is not a number float() can hold, is a ValueError."""
        if not (_is_index(d["n_pos"]) and _is_index(d["n_neg"])):
            raise ValueError(f"tree node counts {d['n_pos']!r}, {d['n_neg']!r} are not counts")
        if d["kind"] == "leaf":
            return TreeNode(n_pos=d["n_pos"], n_neg=d["n_neg"])
        if levels < 1:
            raise ValueError("tree is deeper than its max_depth")
        if not (_is_index(d["feature"]) and _is_threshold(d["threshold"])):
            raise ValueError(f"tree split {d['feature']!r} <= {d['threshold']!r} is not a split")
        left = TreeNode.from_dict(d["left"], levels - 1)
        right = TreeNode.from_dict(d["right"], levels - 1)
        return TreeNode(d["n_pos"], d["n_neg"], d["feature"], d["threshold"], left, right)


@dataclass
class DecisionTree:
    root: TreeNode
    max_depth: int
    feature_set: tuple[int, ...] = field(init=False)

    def __post_init__(self):
        self.feature_set = tuple(sorted({n.feature for n, _ in self.walk() if not n.is_leaf}))

    def walk(self):
        """Yield (node, path) for every node, parents first, left subtree before right.

        ``path`` holds one (ancestor, went_left) pair per branch from the root.
        """
        stack = [(self.root, ())]
        while stack:
            node, path = stack.pop()
            yield node, path
            if not node.is_leaf:
                stack.append((node.right, path + ((node, False),)))
                stack.append((node.left, path + ((node, True),)))

    def depth(self) -> int:
        return max(len(path) for _, path in self.walk())

    def n_leaves(self) -> int:
        return len(self.leaves())

    def leaves(self) -> list[TreeNode]:
        """Leaves in left-to-right order."""
        return [node for node, _ in self.walk() if node.is_leaf]

    def predict(self, features: np.ndarray) -> np.ndarray:
        """Leaf votes of all rows, routed as a batch; x <= threshold goes left."""
        X = np.atleast_2d(np.asarray(features, dtype=np.float64))
        votes = np.empty(X.shape[0], dtype=np.int64)

        def walk(node, rows):
            if node.is_leaf:
                votes[rows] = node.vote
                return
            go_left = X[rows, node.feature] <= node.threshold
            walk(node.left, rows[go_left])
            walk(node.right, rows[~go_left])

        walk(self.root, np.arange(X.shape[0]))
        return votes

    def pretty(self, feature_names=None) -> str:
        """One node per line, children indented under their parent."""

        def name(j):
            return feature_names[j] if feature_names else f"x{j}"

        lines = []
        for node, path in self.walk():
            pad = "  " * len(path)
            if node.is_leaf:
                lines.append(f"{pad}leaf (n+={node.n_pos}, n-={node.n_neg})")
            else:
                lines.append(
                    f"{pad}{name(node.feature)} <= {node.threshold:.6g}"
                    f" (n+={node.n_pos}, n-={node.n_neg})"
                )
        return "\n".join(lines)

    def to_dict(self) -> dict:
        return {"max_depth": self.max_depth, "root": self.root.to_dict()}

    @staticmethod
    def from_dict(d: dict) -> "DecisionTree":
        """The tree of a ``to_dict`` form; a ``max_depth`` that is not an int in
        1..MAX_DEPTH, or a split at or below that depth, is a ValueError."""
        max_depth = d["max_depth"]
        if not (type(max_depth) is int and 1 <= max_depth <= MAX_DEPTH):
            raise ValueError(f"tree max_depth {max_depth!r} is not an int in 1..{MAX_DEPTH}")
        return DecisionTree(root=TreeNode.from_dict(d["root"], max_depth), max_depth=max_depth)


def _scan(
    vals: np.ndarray, labs: np.ndarray, n_pos: int, min_leaf: int
) -> tuple[int, float, float, int] | None:
    """Best split of one node from its sorted value and label tables.

    Row f of ``vals`` holds the node's values of feature f in ascending order
    and the same row of ``labs`` marks which of those rows are positive;
    ``n_pos`` counts the node's positives. Candidate ``i`` puts the first
    ``i + 1`` entries of each row on the left, and counts only if its midpoint
    lies strictly between the two values (equal values and adjacent doubles have
    none). Each feature block computes its midpoint at its best candidate only,
    which is the block's answer when it exists; when it does not, the block
    shuts every candidate without a midpoint and searches again. Returns
    (feature, threshold, gain, left child size).
    """
    p, n = vals.shape
    first, stop = min_leaf - 1, n - min_leaf  # candidates leaving min_leaf on each side
    if first >= stop:
        return None
    n_left_f = np.arange(first + 1, stop + 1, dtype=np.float64)
    n_right_f = n - n_left_f
    margin = 2 * n_pos - n
    parent_term = margin**2 / n
    block = max(1, SPLIT_SCAN_CELLS // n)
    best: tuple[int, float, float, int] | None = None
    for f0 in range(0, p, block):
        xs = vals[f0 : f0 + block]
        # class-count margins of the children: counts below 2^31 (build_tree's row
        # bound) and margins of at most n in size are exact in int32 and float64
        gains = np.cumsum(labs[f0 : f0 + block], axis=1, dtype=np.int32)[:, first:stop]
        gains = gains.astype(np.float64)
        gains *= 2
        gains -= n_left_f
        # a margin is an exact double and its square rounds once either way:
        # the bits of left * left / n_left + right * right / n_right
        right = margin - gains
        gains *= gains
        gains /= n_left_f
        right *= right
        right /= n_right_f
        gains += right
        gains -= parent_term
        # the first maximum in row-major order: lowest feature, then lowest threshold
        r, k = divmod(int(np.argmax(gains)), gains.shape[1])
        if not (gains[r, k] > 0.0 and (best is None or gains[r, k] > best[2])):
            continue  # shutting candidates can only lower the maximum
        lo, hi = xs[r, first + k], xs[r, first + k + 1]
        mid = (lo + hi) * 0.5  # rounds exactly as / 2 does
        if not lo < mid < hi:
            # the first maximum has no midpoint (equal values or adjacent doubles):
            # shut every candidate without one and search again
            lo, hi = xs[:, first:stop], xs[:, first + 1 : stop + 1]
            mids = lo + hi
            mids *= 0.5
            # the values are finite, so these are the negated comparisons
            shut = lo >= mids
            shut |= mids >= hi
            gains[shut] = -np.inf
            r, k = divmod(int(np.argmax(gains)), gains.shape[1])
            if not (gains[r, k] > 0.0 and (best is None or gains[r, k] > best[2])):
                continue
            mid = mids[r, k]
        best = (f0 + r, float(mid), float(gains[r, k]), first + k + 1)
    return best


def _partition(tables: list[np.ndarray], left_rows: np.ndarray, go_left: np.ndarray) -> None:
    """Split a node's block of every table in place into its children's blocks.

    Each table is the node's contiguous (p, n) block; ``tables[0]`` holds the
    index of the row at each position. Afterwards the block's memory holds the
    left child's (p, n_left) block of ``left_rows`` and then the right child's
    block, each row keeping its order. ``go_left`` is an all-False scratch mask
    over the N rows and is left that way.
    """
    go_left[left_rows] = True
    mask = np.take(go_left, tables[0]).ravel()  # take gathers by int32 faster than []
    go_left[left_rows] = False
    to_left, to_right = np.flatnonzero(mask), np.flatnonzero(~mask)
    for t in tables:
        flat = t.reshape(-1)  # a view, as the block is contiguous
        # both gathers finish before the writes, and neither outlives the statement
        flat[: to_left.size], flat[to_left.size :] = flat[to_left], flat[to_right]


def build_tree(d: Dataset, max_depth: int, min_leaf: int = 1) -> DecisionTree:
    """Greedy recursive partitioning under the margin-gain criterion.

    Recursion stops at ``max_depth``, on pure nodes, when no candidate split
    has positive gain, or when a split would starve a child below ``min_leaf``.
    """
    if not 1 <= max_depth <= MAX_DEPTH:
        raise DataError(f"max_depth must be between 1 and {MAX_DEPTH}")
    if min_leaf < 1:
        raise DataError("min_leaf must be >= 1")
    X, y = d.features, d.labels
    if X.shape[0] > MAX_ROWS:
        raise DataError(f"build_tree takes at most {MAX_ROWS} rows (2^31 - 1, int32 row ids)")
    XT = np.ascontiguousarray(X.T, dtype=np.float64)
    pos = y == 1
    order = np.argsort(XT, axis=1)  # row f: all rows in ascending order of feature f
    vals = np.take_along_axis(XT, order, axis=1)
    del XT
    labs = pos[order]
    idx = order.astype(np.int32)
    del order
    p = idx.shape[0]
    go_left = np.zeros(X.shape[0], dtype=bool)

    def grow(lo: int, hi: int, n_pos: int, depth: int) -> TreeNode:
        node = TreeNode(n_pos=n_pos, n_neg=hi - lo - n_pos)
        if depth >= max_depth or n_pos == 0 or n_pos == hi - lo:
            return node
        tables = [t.reshape(-1)[p * lo : p * hi].reshape(p, hi - lo) for t in (idx, vals, labs)]
        found = _scan(tables[1], tables[2], n_pos, min_leaf)
        if found is None:
            return node
        f, t, _, n_left = found
        left_pos = int(np.count_nonzero(tables[2][f, :n_left]))
        if depth + 1 < max_depth:  # children at max_depth are leaves and never scanned
            _partition(tables, tables[0][f, :n_left], go_left)
        node.feature = f
        node.threshold = t
        node.left = grow(lo, lo + n_left, left_pos, depth + 1)
        node.right = grow(lo + n_left, hi, n_pos - left_pos, depth + 1)
        return node

    root = grow(0, X.shape[0], int(np.count_nonzero(pos)), 0)
    return DecisionTree(root=root, max_depth=max_depth)
