import math

import numpy as np
import pytest

from conftest import random_dataset, random_tree
from nre.data import Dataset
from nre.rules import (
    BALANCED_LEAF_VALUE,
    ConjunctiveRule,
    Literal,
    extract_rules,
    rank_rules,
    rule_activations,
    rule_margin_score,
    rule_to_str,
)
from nre.tree import build_tree
from reference_oracle import reference_route, rule_norm


def depth1_tree_dataset():
    X = np.array([[1.0], [2.0], [3.0], [4.0]])
    y = np.array([-1, -1, 1, 1])
    return Dataset(X, y, ("x0",))


class TestExtractRules:
    def test_depth1_sign_convention(self):
        tree = build_tree(depth1_tree_dataset(), max_depth=1)
        rules = extract_rules(tree)
        assert len(rules) == 2
        assert rules[0].literals == (Literal(0, -1, 2.5),)
        assert rules[1].literals == (Literal(0, 1, -2.5),)
        assert rules[0].c == -1.0 and rules[0].n_neg == 2
        assert rules[1].c == 1.0 and rules[1].n_pos == 2

    def test_one_rule_per_leaf_left_to_right(self):
        rng = np.random.default_rng(0)
        tree, _ = random_tree(rng, n=120, p=3, max_depth=3)
        rules = extract_rules(tree)
        leaves = tree.leaves()
        assert len(rules) == len(leaves)
        for r, leaf in zip(rules, leaves):
            assert (r.n_pos, r.n_neg) == (leaf.n_pos, leaf.n_neg)

    def test_supports_partition_the_space(self):
        rng = np.random.default_rng(1)
        tree, d = random_tree(rng, n=100, p=3, max_depth=3)
        rules = extract_rules(tree)
        probes = rng.uniform(-3, 3, size=(1000, 3))
        active = np.zeros(1000, dtype=int)
        for r in rules:
            active += rule_activations(r, probes) != 0.0
        assert np.all(active == 1)

    def test_activation_matches_tree_routing(self):
        rng = np.random.default_rng(2)
        tree, d = random_tree(rng, n=150, p=3, max_depth=4)
        rules = extract_rules(tree)
        leaves = tree.leaves()
        probes = rng.uniform(-3, 3, size=(1000, 3))
        for x in probes:
            routed = reference_route(tree, x)
            for r, leaf in zip(rules, leaves):
                active = rule_activations(r, [x])[0] != 0.0
                assert active == (leaf is routed)

    def test_balanced_leaf_gets_epsilon_value(self):
        X = np.array([[0.0], [1.0], [2.0]])
        y = np.array([-1, 1, -1])
        tree = build_tree(Dataset(X, y, ("x0",)), max_depth=1)
        rules = extract_rules(tree)
        balanced = [r for r in rules if r.n_pos == r.n_neg]
        assert balanced and all(r.c == BALANCED_LEAF_VALUE for r in balanced)

    def test_leaf_value_is_signed_class_margin(self):
        rng = np.random.default_rng(3)
        tree, _ = random_tree(rng, n=90, p=2, max_depth=3)
        for r in extract_rules(tree):
            n = r.n_pos + r.n_neg
            expected = (r.n_pos - r.n_neg) / n
            if expected == 0.0:
                assert r.c == BALANCED_LEAF_VALUE
            else:
                assert r.c == expected


class TestRuleActivate:
    def rule(self):
        return ConjunctiveRule((Literal(0, -1, 0.5),), c=1.0, n_pos=3, n_neg=1)

    def test_inside_support(self):
        assert rule_activations(self.rule(), [[0.2]])[0] == 1.0

    def test_boundary_is_outside(self):
        assert rule_activations(self.rule(), [[0.5]])[0] == 0.0

    def test_outside_support(self):
        assert rule_activations(self.rule(), [[0.9]])[0] == 0.0

    def test_relu_invariance(self):
        # H(z) with H(0)=0 is unchanged when z is passed through max(0, .)
        rng = np.random.default_rng(4)
        for _ in range(200):
            lits = tuple(
                Literal(int(rng.integers(0, 3)), int(rng.choice([-1, 1])), float(rng.normal()))
                for _ in range(rng.integers(1, 4))
            )
            r = ConjunctiveRule(lits, c=float(rng.normal() or 1.0), n_pos=1, n_neg=0)
            x = rng.normal(size=3)
            direct = rule_activations(r, [x])[0]
            via_relu = r.c
            for f, w, a in lits:
                z = max(0.0, w * x[f] + a)
                if not z > 0.0:
                    via_relu = 0.0
            assert direct == via_relu

    def test_product_equals_min_pooling(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            lits = tuple(
                Literal(int(rng.integers(0, 3)), int(rng.choice([-1, 1])), float(rng.normal()))
                for _ in range(rng.integers(1, 5))
            )
            r = ConjunctiveRule(lits, c=2.0, n_pos=1, n_neg=0)
            x = rng.normal(size=3)
            zs = [w * x[f] + a for f, w, a in lits]
            via_min = r.c if min(zs) > 0.0 else 0.0
            assert rule_activations(r, [x])[0] == via_min


class TestRuleNorm:
    def test_direct_formula(self):
        assert rule_norm(ConjunctiveRule((), c=2.0, n_pos=4, n_neg=5)) == 6.0

    def test_sign_vanishes(self):
        assert rule_norm(ConjunctiveRule((), c=-1.0, n_pos=1, n_neg=0)) == 1.0

    def test_zero_samples_rejected(self):
        with pytest.raises(ValueError):
            rule_norm(ConjunctiveRule((), c=1.0, n_pos=0, n_neg=0))

    def test_matches_explicit_activation_vector_norm(self):
        rng = np.random.default_rng(6)
        tree, d = random_tree(rng, n=120, p=3, max_depth=3)
        for r in extract_rules(tree):
            acts = rule_activations(r, d.features)
            explicit = math.sqrt(float(np.sum(acts**2)))
            assert explicit == pytest.approx(rule_norm(r), rel=1e-12)


class TestRuleMarginScore:
    def test_pure_rule(self):
        assert rule_margin_score(4, 0) == 4.0

    def test_balanced_rule(self):
        assert rule_margin_score(3, 3) == 0.0

    def test_empty_rule_rejected(self):
        with pytest.raises(ValueError):
            rule_margin_score(0, 0)

    def test_margin_bound_on_training_data(self):
        rng = np.random.default_rng(7)
        tree, d = random_tree(rng, n=100, p=3, max_depth=4)
        for r in extract_rules(tree):
            margins = d.labels * rule_activations(r, d.features) / rule_norm(r)
            assert np.all(np.abs(margins) <= 1.0 + 1e-12)

    def test_hinge_loss_identity_on_toy_set(self):
        # N - sqrt(m^2) equals the summed hinge loss of the better-signed
        # normalized rule, evaluated directly over the training set
        rng = np.random.default_rng(8)
        for _ in range(50):
            tree, d = random_tree(rng, n=int(rng.integers(10, 40)), p=2, max_depth=2)
            for r in extract_rules(tree):
                acts = rule_activations(r, d.features)
                norm = rule_norm(r)
                hinges = []
                for sign in (1.0, -1.0):
                    margins = d.labels * sign * acts / norm
                    hinges.append(float(np.maximum(0.0, 1.0 - margins).sum()))
                best_hinge = min(hinges)
                m2 = rule_margin_score(r.n_pos, r.n_neg)
                assert d.n_samples - math.sqrt(m2) == pytest.approx(best_hinge, abs=1e-9)


class TestRankRules:
    def rules_with_counts(self, counts):
        return [ConjunctiveRule((), c=1.0, n_pos=p, n_neg=n) for p, n in counts]

    def test_sorts_by_score(self):
        rules = self.rules_with_counts([(4, 0), (3, 3), (2, 0)])  # scores 4, 0, 2
        assert rank_rules(rules) == [0, 2, 1]

    def test_stable_under_equal_scores(self):
        rules = self.rules_with_counts([(2, 0), (2, 0), (2, 0)])
        assert rank_rules(rules) == [0, 1, 2]

    def test_invariant_under_rescaling_c(self):
        rng = np.random.default_rng(9)
        counts = [(int(rng.integers(0, 9)), int(rng.integers(0, 9))) for _ in range(6)]
        counts = [(p, n) if p + n else (1, 0) for p, n in counts]
        base = self.rules_with_counts(counts)
        scaled = [
            ConjunctiveRule((), c=r.c * -7.5, n_pos=r.n_pos, n_neg=r.n_neg) for r in base
        ]
        assert rank_rules(base) == rank_rules(scaled)


class TestRuleDump:
    def test_format(self):
        r = ConjunctiveRule(
            (Literal(3, -1, 0.5), Literal(7, 1, 1.2)), c=0.43, n_pos=12, n_neg=3
        )
        assert rule_to_str(r) == "IF x3 <= 0.50 AND x7 > -1.20 THEN c=0.43 (n+=12, n-=3, m2=5.4)"

    def test_feature_names(self):
        r = ConjunctiveRule((Literal(0, 1, -2.0),), c=1.0, n_pos=1, n_neg=0)
        assert rule_to_str(r, feature_names=("age",)).startswith("IF age > 2.00")

    def test_empty_rule(self):
        r = ConjunctiveRule((), c=1.0, n_pos=1, n_neg=0)
        assert rule_to_str(r).startswith("IF TRUE THEN")
