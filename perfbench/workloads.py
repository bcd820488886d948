"""The benchmark's workloads as plain data, importable before numpy is.

Every workload fixes ``max_rules`` a little below the fewest rules its tree
grows on any seed tried (xor-fullbatch 8-11 rules over 60 seeds,
xor-100k-minibatch 51-74 over 40, madelon-wide-csv 11-22 over 40), so that
every seed trains the same number of rules. The rules' widths, and madelon's
tree, still vary with the seed.
"""
from __future__ import annotations

from dataclasses import dataclass, replace


@dataclass(frozen=True)
class Workload:
    name: str
    generator: str  # "rotated_xor" or "madelon_like"
    n_train: int
    n_holdout: int
    max_depth: int
    epochs: int
    max_rules: int
    accuracy_floor: float
    rounds: int
    loads_per_round: int

    def tiny(self) -> "Workload":
        """The same pipeline at a size that runs in about a second, for the self-check."""
        return replace(
            self,
            n_train=min(self.n_train, 400),
            n_holdout=min(self.n_holdout, 200),
            epochs=min(self.epochs, 3),
            accuracy_floor=0.5,
            rounds=2,
            loads_per_round=1,
        )


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="xor-fullbatch",
            generator="rotated_xor",
            n_train=4000,
            n_holdout=20000,
            max_depth=4,
            epochs=10,
            max_rules=8,
            accuracy_floor=0.9,
            rounds=32,
            loads_per_round=2,
        ),
        Workload(
            name="xor-100k-minibatch",
            generator="rotated_xor",
            n_train=100_000,
            n_holdout=20000,
            max_depth=8,
            epochs=1,
            max_rules=48,
            accuracy_floor=0.9,
            rounds=6,
            loads_per_round=2,
        ),
        Workload(
            name="madelon-wide-csv",
            generator="madelon_like",
            n_train=2600,
            n_holdout=1000,
            max_depth=6,
            epochs=50,
            max_rules=10,
            accuracy_floor=0.6,
            rounds=6,
            loads_per_round=1,
        ),
    )
}
