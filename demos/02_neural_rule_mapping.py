"""Map a tree rule into a neural rule and inspect the min-pool forward pass.

A conjunctive rule IF w1*x_f1 + a1 > 0 AND ... THEN c becomes
c * min_j relu(w_j . x_T + a_j): one ReLU unit per literal, weights +-1 on the
literal's feature and 0 elsewhere, biases copied from the thresholds. At
initialization the neural rule fires exactly where the hard rule does; the
deep variant adds an identity-initialized second layer that changes nothing
at first but lets the support bend during training.
"""
import numpy as np

from nre import Dataset, RuleBank, build_tree, extract_rules, init_deep_from_rule, init_from_rule
from nre.rules import rule_activations, rule_to_str

rng = np.random.default_rng(3)
X = rng.normal(size=(200, 3))
y = np.where(X[:, 0] + 0.5 * X[:, 2] > 0, 1, -1)
data = Dataset(X, y, ("x0", "x1", "x2"))

tree = build_tree(data, max_depth=2)
rule = extract_rules(tree)[0]
print("source rule:", rule_to_str(rule))

shallow = init_from_rule(rule, tree.feature_set)
print("\nshallow neural rule:")
print("  first-layer weights (one +-1 entry per unit):\n", shallow.w1)
print("  biases:", shallow.b1, " output coefficient c =", shallow.c)

deep = init_deep_from_rule(rule, tree.feature_set)
print("\ndeep variant second layer starts as the identity:\n", deep.w2)

# a forward pass at a point inside the support shows the min pool picking the
# least confident unit (outside it every unit's ReLU is 0 and none is picked)
tf = list(tree.feature_set)
inside = np.flatnonzero(rule_activations(rule, data.features) != 0)[0]
probe = data.features[inside : inside + 1, tf]
fp = RuleBank([shallow]).forward(probe)
print("\nforward at a training point inside the rule's support:")
print("  unit activations:", np.maximum(0.0, shallow.w1 @ probe[0] + shallow.b1))
print("  pooled unit:", np.argmin(fp.final[0, :, 0]), " value:", fp.scores[0])

# supports coincide with the hard rule on random probes
probes = rng.uniform(-3, 3, size=(10_000, 3))
hard = rule_activations(rule, probes) != 0
for name, neural in [("shallow", shallow), ("deep", deep)]:
    soft = RuleBank([neural]).scores(probes[:, tf]) != 0
    print(f"support agreement vs hard rule ({name}): {np.mean(hard == soft):.4%}")
