"""Pinned training trajectories: the history and final parameters of eight small runs.

The fixture pins the generator's draw order in both batch modes, early stopping,
a short last minibatch and a bank of many rules (a depth-10 tree on noisy data
grows 49 rules of width 10). Regenerate it only from code whose trajectories are
known to be right:

    PYTHONPATH=src python tests/test_train_pins.py
"""
import json
import os

import numpy as np
import pytest

from nre.data import gen_rotated_xor
from nre.ensemble import TrainConfig, nre_train

PINS = os.path.join(os.path.dirname(__file__), "fixtures", "train_pins.json")

CONFIGS = {
    "full_shallow": (dict(noise=0.3, seed=1), dict(max_depth=4, epochs=20, learning_rate=0.05)),
    "full_deep": (dict(noise=0.3, seed=1), dict(max_depth=4, epochs=20, deep=True, l2=1e-3)),
    "mini_shallow": (dict(noise=0.3, seed=2), dict(max_depth=4, epochs=10, batch_size=64)),
    "mini_deep": (dict(noise=0.3, seed=2), dict(max_depth=4, epochs=10, batch_size=64, deep=True)),
    "full_early_stop": (
        dict(noise=0.8, seed=3),
        dict(max_depth=6, epochs=20, learning_rate=0.1, early_stop_patience=2, seed=5),
    ),
    # 270 training rows: four batches of 64 and a short one of 14
    "mini_early_stop": (
        dict(noise=0.8, seed=4),
        dict(max_depth=6, epochs=20, batch_size=64, learning_rate=0.1, early_stop_patience=2,
             deep=True, seed=6),
    ),
    "full_depth10": (dict(noise=0.8, seed=5), dict(max_depth=10, epochs=10)),
    "full_depth10_deep": (dict(noise=0.8, seed=5), dict(max_depth=10, epochs=10, deep=True)),
}


def run(name):
    data, cfg = CONFIGS[name]
    d = gen_rotated_xor(300, 30.0, data["noise"], data["seed"])
    epochs = []

    def hook(stage, payload):
        if stage == "train_epoch":
            epochs.append(payload["epoch"])

    model = nre_train(d, TrainConfig(**cfg), trace=hook)
    return {
        "epochs_run": epochs[-1],
        "history": [list(row) for row in model.history],
        "params": model.bank.params.tolist(),
    }


@pytest.fixture(scope="module")
def pins():
    with open(PINS, encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize("name", list(CONFIGS))
def test_trajectory_matches_pin(pins, name):
    """The README's gate for the same training across code versions: epochs run,
    the epoch and error columns exact; losses and parameters within 1e-12."""
    got, want = run(name), pins[name]
    assert got["epochs_run"] == want["epochs_run"]
    for col in (0, 2):  # epoch, error
        assert [row[col] for row in got["history"]] == [row[col] for row in want["history"]]
    np.testing.assert_allclose(
        [row[1] for row in got["history"]], [row[1] for row in want["history"]],
        rtol=0, atol=1e-12,
    )
    np.testing.assert_allclose(got["params"], want["params"], rtol=0, atol=1e-12)


def test_pins_cover_early_stopping(pins):
    for name in ("full_early_stop", "mini_early_stop"):
        # training went on past the restored epoch, and stopped before the last
        restored = pins[name]["history"][-1][0]
        assert restored < pins[name]["epochs_run"] < CONFIGS[name][1]["epochs"]


def write_pins(pins):
    """One config per line."""
    lines = [f"{json.dumps(name)}: {json.dumps(pin)}" for name, pin in pins.items()]
    with open(PINS, "w", encoding="utf-8") as fh:
        fh.write("{\n" + ",\n".join(lines) + "\n}\n")


if __name__ == "__main__":
    write_pins({name: run(name) for name in CONFIGS})
