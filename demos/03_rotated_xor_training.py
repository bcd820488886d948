"""Watch neural rule supports evolve on the rotated XOR problem.

The XOR clusters rotated by 45 degrees defeat any single hyperplane and force
axis-aligned trees into staircases. Neural rules start from the tree's
rectangles and then rotate, shift and scale their half-spaces; deep rules can
even go non-convex. This script trains shallow and deep ensembles and writes
SVG snapshots of a single rule's support at initialization and after training.
"""
import os
from dataclasses import replace

from nre import TrainConfig, evaluate, gen_rotated_xor, nre_score_batch, nre_train
from nre.plotting import data_bounds, render_decision_regions

OUT_DIR = os.path.join(os.path.dirname(__file__), "output")
os.makedirs(OUT_DIR, exist_ok=True)

train = gen_rotated_xor(n=2000, angle_deg=45.0, noise_std=0.15, seed=1)
test = gen_rotated_xor(n=2000, angle_deg=45.0, noise_std=0.15, seed=2)
bounds = data_bounds(train.features)

snapshots = {}


def remember(stage, payload):
    if stage == "train_epoch" and payload["epoch"] in (0, 150, 900):
        first_rule = replace(payload["model"], rules=payload["model"].rules[:1])
        snapshots[payload["epoch"]] = render_decision_regions(
            lambda pts: nre_score_batch(first_rule, pts),
            train.features,
            train.labels,
            bounds=bounds,
            resolution=120,
        )


for deep in (False, True):
    kind = "deep" if deep else "shallow"
    cfg = TrainConfig(max_depth=4, epochs=900, deep=deep, seed=1)
    model = nre_train(train, cfg, trace=remember)
    print(
        f"{kind:8s} ensemble: {len(model.rules)} rules, "
        f"training error {100 * model.history[-1][2]:.2f}%, "
        f"test error {100 * evaluate(model, test):.2f}%"
    )
    for epoch, svg in snapshots.items():
        path = os.path.join(OUT_DIR, f"xor_{kind}_rule0_iter{epoch}.svg")
        with open(path, "w") as fh:
            fh.write(svg)
        print(f"  wrote {path}")
    snapshots.clear()

print("\nopen the SVGs side by side to see the support grow from the initial")
print("rectangle toward the clusters; deep rules may bend non-convex on the way")
