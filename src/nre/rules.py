"""Conjunctive rules extracted from decision trees.

Each root-to-leaf path becomes a product of strict threshold indicators
H(w * x_f + a) with H(0) = 0, scaled by an activation value c. The supports of
the rules from one tree tile the feature space, so every point activates
exactly one rule.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .tree import DecisionTree


class Literal(NamedTuple):
    feature: int
    weight: int  # -1 for the left branch (x < t), +1 for the right (x > t)
    bias: float  # +t on the left branch, -t on the right


BALANCED_LEAF_VALUE = 1e-6


@dataclass(frozen=True)
class ConjunctiveRule:
    literals: tuple[Literal, ...]
    c: float
    n_pos: int
    n_neg: int

    @property
    def n_samples(self) -> int:
        return self.n_pos + self.n_neg


def extract_rules(tree: DecisionTree) -> list[ConjunctiveRule]:
    """One rule per leaf, in left-to-right order, literals in root-to-leaf order.

    The activation value is the signed class margin at the leaf,
    (n+ - n-) / (n+ + n-); perfectly balanced leaves get a small positive
    placeholder so the value stays nonzero (training can move it anyway).
    """
    rules: list[ConjunctiveRule] = []
    for leaf, path in tree.walk():
        if not leaf.is_leaf:
            continue
        literals = tuple(
            Literal(n.feature, -1, n.threshold) if left else Literal(n.feature, +1, -n.threshold)
            for n, left in path
        )
        c = (leaf.n_pos - leaf.n_neg) / leaf.n_samples
        if c == 0.0:
            c = BALANCED_LEAF_VALUE
        rules.append(ConjunctiveRule(literals, c=c, n_pos=leaf.n_pos, n_neg=leaf.n_neg))
    return rules


def rule_activations(r: ConjunctiveRule, features: np.ndarray) -> np.ndarray:
    """Per row: c when every literal is strictly positive, else 0 (boundaries give 0)."""
    X = np.asarray(features, dtype=np.float64)
    active = np.ones(X.shape[0], dtype=bool)
    for f, w, a in r.literals:
        active &= w * X[:, f] + a > 0.0
    return np.where(active, r.c, 0.0)


def rule_margin_score(n_pos: int, n_neg: int) -> float:
    """Relevance score m^2 = (n+ - n-)^2 / (n+ + n-); higher means more relevant."""
    n = n_pos + n_neg
    if n < 1:
        raise ValueError("margin score needs at least one activated training sample")
    return (n_pos - n_neg) ** 2 / n


def rank_rules(rules: list[ConjunctiveRule]) -> list[int]:
    """Indices sorted by descending m^2; ties keep the original order."""
    scores = [rule_margin_score(r.n_pos, r.n_neg) for r in rules]
    return sorted(range(len(rules)), key=lambda i: -scores[i])


def rule_to_str(r: ConjunctiveRule, feature_names=None) -> str:
    """Human-readable dump, one rule per line."""

    def name(j):
        return feature_names[j] if feature_names else f"x{j}"

    if r.literals:
        parts = []
        for f, w, a in r.literals:
            if w == -1:
                parts.append(f"{name(f)} <= {a:.2f}")
            else:
                parts.append(f"{name(f)} > {-a:.2f}")
        cond = " AND ".join(parts)
    else:
        cond = "TRUE"
    m2 = rule_margin_score(r.n_pos, r.n_neg)
    return f"IF {cond} THEN c={r.c:.2f} (n+={r.n_pos}, n-={r.n_neg}, m2={m2:.3g})"
