"""End-to-end neural rule ensembles.

Training pipeline: standardize, grow a margin-split tree, decompose it into
conjunctive rules, map each rule to a (deep) neural rule, then jointly train
all rule parameters with Adam on the mean logistic loss of the summed rule
outputs. The trained model carries its standardizer and the source tree, and
serializes to a canonical, checksummed JSON file.
"""
from __future__ import annotations

import hashlib
import json
import typing
import warnings
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .data import Dataset, StandardizationParams, standardize_apply, standardize_fit
from .errors import DataError, ModelFormatError
from .neural import (
    AdamState,
    NeuralRule,
    RuleBank,
    adam_step,
    init_deep_from_rule,
    init_from_rule,
)
from .rules import extract_rules, rank_rules
from .tree import MAX_DEPTH, DecisionTree, build_tree

SCHEMA_VERSION = 1
FULL_BATCH_LIMIT = 4096


@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters of the training pipeline.

    ``batch_size=None`` resolves to full batch up to 4096 training samples and
    256 afterwards. ``learning_rate`` is the Adam step size. ``early_stop_patience``
    enables early stopping on a seeded 10% validation split when set. With full
    batches one epoch is one optimizer iteration.

    The fields are the whole schema: ``CONFIG_TYPES``, the CLI flags and the
    config-file keys derive from them. A value of the wrong type is a ValueError.
    """

    max_depth: int = 4
    min_leaf: int = 1
    deep: bool = False
    epochs: int = 200
    batch_size: int | None = None
    learning_rate: float = 0.01
    l2: float = 0.0
    seed: int = 0
    max_rules: int | None = None
    early_stop_patience: int | None = None

    def __post_init__(self):
        for f in fields(self):
            value, kind = getattr(self, f.name), CONFIG_TYPES[f.name]
            if kind is float:  # an int is a float here, and np.float64 is a float subclass
                ok = isinstance(value, (int, float)) and not isinstance(value, bool)
            else:
                ok = type(value) is kind
            if not (ok or value is None and f.default is None):
                raise ValueError(f"{f.name} must be of type {kind.__name__}, got {value!r}")
        if not (1 <= self.max_depth <= MAX_DEPTH and self.min_leaf >= 1):
            raise ValueError(f"max_depth must be between 1 and {MAX_DEPTH} and min_leaf >= 1")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.batch_size is not None and self.batch_size < 1:
            raise ValueError("batch_size must be >= 1 when given")
        if not 0 < self.learning_rate < np.inf:
            raise ValueError("learning_rate must be finite and > 0")
        if not 0 <= self.l2 < np.inf:
            raise ValueError("l2 must be finite and >= 0")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if self.max_rules is not None and self.max_rules < 1:
            raise ValueError("max_rules must be >= 1 when given")
        if self.early_stop_patience is not None and self.early_stop_patience < 1:
            raise ValueError("early_stop_patience must be >= 1 when given")


# TrainConfig's schema: field name -> int, float or bool (X for an ``X | None`` field)
_HINTS = typing.get_type_hints(TrainConfig)
CONFIG_TYPES = {f.name: (typing.get_args(_HINTS[f.name]) or (_HINTS[f.name],))[0]
                for f in fields(TrainConfig)}


@dataclass
class NREModel:
    """Deployable artifact: standardizer + trained neural rules + provenance.

    The model computes with a :class:`RuleBank` built from the given rules;
    ``rules`` then holds the bank's view rules, which always show its current
    parameters. The standardizer is fixed after construction: scoring reads
    the means and stds of the tree features as gathered then, and a changed
    standardizer takes a new model (``dataclasses.replace`` builds one).
    """

    standardization: StandardizationParams
    rules: list[NeuralRule]
    config: TrainConfig
    source_tree: DecisionTree
    history: list[tuple[int, float, float]] = field(default_factory=list, repr=False)
    bank: RuleBank = field(init=False, repr=False, compare=False)
    # the tree features as an index array, and their means and stds; not saved
    _tf: np.ndarray = field(init=False, repr=False, compare=False)
    _mu: np.ndarray = field(init=False, repr=False, compare=False)
    _sd: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.bank = RuleBank(self.rules)
        self.rules = self.bank.rules
        self._tf = np.array(self.bank.tree_features, dtype=np.intp)
        self._mu = self.standardization.means[self._tf]
        self._sd = self.standardization.stds[self._tf]

    @property
    def degenerate(self) -> bool:
        """A rule-less model: its tree is a single leaf and it scores a constant."""
        return not self.rules

    @property
    def tree_features(self) -> tuple[int, ...]:
        return self.bank.tree_features

    @property
    def constant_score(self) -> float:
        """Score of a rule-less (single-leaf) model: the root's signed class margin."""
        root = self.source_tree.root
        return (root.n_pos - root.n_neg) / max(1, root.n_pos + root.n_neg)


def _sigmoid(z: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(-z)) without overflow: exp(-|z|) / (1 + exp(-|z|)) for z < 0."""
    t = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0, t) / (1.0 + t)


def logistic_loss(u, y):
    """Stable elementwise logistic loss log(1 + exp(-u*y)) and its u-derivative."""
    u = np.asarray(u, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    z = u * y
    loss = np.logaddexp(0.0, -z)
    dloss = -y * _sigmoid(-z)
    return loss, dloss


def model_loss_and_grad(bank: RuleBank, X_t: np.ndarray, labels: np.ndarray, l2: float = 0.0,
                        work: dict | None = None, grad: bool = True):
    """Mean logistic loss and error rate of the summed rule outputs on the rows
    of X_t, the tree-feature columns, and with ``grad`` the loss's gradient.

    The rows run in passes of ``bank.pass_rows`` drawn from ``work``, a fresh
    pool for the call when None; only the scores outlive a pass. With
    ``grad`` each pass's backward adds into a new gradient vector over
    ``bank.params``; without, no backward runs and the gradient is None. The
    loss and error are of the data alone; with shrinkage l2=rho the gradient
    adds 2*rho*params. Returns ``(loss, error, grad)``.
    """
    work = {} if work is None else work
    n, rows = labels.size, bank.pass_rows
    scores = np.empty(n)
    total = np.zeros_like(bank.params) if grad else None
    for start in range(0, n, rows):
        fp = bank.forward(X_t[start : start + rows], work)
        scores[start : start + rows] = fp.scores
        if grad:
            _, dscores = logistic_loss(fp.scores, labels[start : start + rows])
            total += bank.backward(fp, dscores / n)
    if grad and l2 > 0.0:
        total += 2.0 * l2 * bank.params
    loss = np.logaddexp(0.0, -(scores * labels)).mean()
    return float(loss), float(np.mean(np.where(scores >= 0.0, 1, -1) != labels)), total


def nre_train(d: Dataset, cfg: TrainConfig, trace=None) -> NREModel:
    """Run the full training pipeline on a dataset.

    The optional ``trace(stage, payload)`` hook fires at every stage boundary
    ("standardize", "tree", "rules", "neural_init", one "train_epoch" per epoch
    from the epoch-0 baseline on, then "done"), so callers can observe the
    pipeline and write checkpoints. It must not modify the model: with full
    batches, an epoch's history row and the next step's gradient come from
    one loop over the training rows. With early stopping, payloads of epochs
    1 on also carry ``val_loss``.

    The stage list holds for every model. A tree that is a single leaf gives
    no rules and warns: its rule-less model scores the root's margin, and its
    run is epoch 0 alone, with one history row over all rows.

    One epoch loop serves both batch modes, and epoch 0 takes no step. A
    minibatch epoch steps through batch-sized slices of a permutation it draws
    first; a full batch is one step on the rows in training order, so ``seed``
    reaches it only through the validation split. Every step, validation loss
    and history row is one ``model_loss_and_grad`` call, which runs its rows in
    passes of ``bank.pass_rows`` drawn from one ``work`` pool, so no pass
    grows with the rows.

    A non-finite training loss raises FloatingPointError naming the epoch.
    Early stopping restores the epoch with the lowest validation loss and cuts
    ``history`` after it; the hook has still seen every epoch.
    """
    emit = trace if trace is not None else (lambda stage, payload: None)
    if len(np.unique(d.labels)) < 2:
        raise DataError("training needs both classes present")

    params = standardize_fit(d)
    ds = standardize_apply(d, params)
    emit("standardize", params)

    tree = build_tree(ds, cfg.max_depth, cfg.min_leaf)
    emit("tree", tree)

    rules = [] if tree.root.is_leaf else extract_rules(tree)
    if not rules:
        warnings.warn("tree degenerated to a single leaf; returning a constant model")
    if cfg.max_rules is not None and cfg.max_rules < len(rules):
        keep = rank_rules(rules)[: cfg.max_rules]
        rules = [rules[i] for i in keep]
    emit("rules", rules)

    make = init_deep_from_rule if cfg.deep else init_from_rule
    nrules = [make(r, tree.feature_set) for r in rules]
    emit("neural_init", nrules)

    model = NREModel(params, nrules, cfg, tree)
    bank = model.bank
    X_t, y = ds.features[:, list(bank.tree_features)], ds.labels
    N = X_t.shape[0]
    rng = np.random.default_rng(cfg.seed)

    # the validation rows lead a seeded permutation; without early stopping or rules, none
    n_val = 0 if cfg.early_stop_patience is None or not rules else max(1, int(round(0.10 * N)))
    perm = rng.permutation(N) if n_val else np.arange(N)
    X_val, y_val = X_t[perm[:n_val]], y[perm[:n_val]]
    X_train, y_train = X_t[perm[n_val:]], y[perm[n_val:]]
    n_train = N - n_val
    batch = min(cfg.batch_size or (n_train if n_train <= FULL_BATCH_LIMIT else 256), n_train)
    full = batch == n_train  # one step per epoch, on the gradient of the history row before it

    state = AdamState.for_params(bank.params.size, alpha=cfg.learning_rate)
    work = {}  # the run's one buffer pool
    # without early stopping the last epoch is the best, and best_params is the bank's own
    best_val, best_params, best_epoch, stale = np.inf, bank.params, cfg.epochs, 0
    # epoch 0 takes no step: the baseline row, and a rule-less model's only one
    for epoch in range(cfg.epochs + 1 if rules else 1):
        if full and epoch:  # the gradient of the previous epoch's history row
            adam_step(bank.params, grad, state)
        elif epoch:
            order = rng.permutation(n_train)
            for start in range(0, n_train, batch):
                idx = order[start : start + batch]  # take is several times faster than X_train[idx]
                grad = model_loss_and_grad(bank, X_train.take(idx, axis=0), y_train[idx], cfg.l2, work)[2]
                adam_step(bank.params, grad, state)
        val = ({"val_loss": model_loss_and_grad(bank, X_val, y_val, work=work, grad=False)[0]}
               if n_val and epoch else {})
        if rules:  # with full batches, the history row's loop also gives the next step
            loss, err, grad = model_loss_and_grad(bank, X_train, y_train, cfg.l2, work,
                                                  grad=full and epoch < cfg.epochs)
        else:  # the rule-less model's one row, of its constant score on every row
            s = model.constant_score
            loss = float(np.logaddexp(0.0, -(s * y_train)).mean())
            err = float(np.mean((1 if s >= 0.0 else -1) != y_train))
        if not np.isfinite(loss):
            raise FloatingPointError(f"training diverged at epoch {epoch}: loss {loss}")
        model.history.append((epoch, loss, err))
        emit("train_epoch", {"epoch": epoch, "loss": loss, "error": err, "model": model, **val})
        if not val:
            continue
        if val["val_loss"] < best_val:
            best_val, best_params, best_epoch, stale = val["val_loss"], bank.params.copy(), epoch, 0
        else:
            stale += 1
            if stale >= cfg.early_stop_patience:
                break
    bank.params[:] = best_params
    del model.history[best_epoch + 1 :]
    emit("done", model)
    return model


def _real_array(x, what: str) -> np.ndarray:
    """``x`` as a float64 array; input numpy does not hold as bools, integers
    or floats (text, complex, objects), or ragged rows, is a DataError."""
    try:
        a = np.asarray(x)
    except ValueError as e:  # ragged rows
        raise DataError(f"{what} are not an array of numbers: {e}") from e
    if a.dtype.kind not in "biuf":
        raise DataError(f"{what} have dtype {a.dtype}, expected real numbers")
    return a.astype(np.float64, copy=False)


def nre_score(m: NREModel, x) -> float:
    """Ensemble score of one raw point: one bank pass over one row.

    The score has the bits of ``nre_score_batch`` on that one row. A point
    holding a NaN or an infinity, in any column, or values numpy does not hold
    as bools, integers or floats (text, complex), is rejected with DataError.
    """
    x = _real_array(x, "point values")
    if x.shape != m.standardization.means.shape:
        raise DataError(f"point has shape {x.shape}, model expects {m.standardization.means.shape}")
    if not np.isfinite(x).all():
        raise DataError("row 0 has a non-finite value")
    if not m.rules:
        return m.constant_score
    z = x.take(m._tf)  # a copy, standardized in place
    z -= m._mu
    z /= m._sd
    return float(m.bank.forward(z[None, :]).scores[0])


def nre_score_batch(m: NREModel, features: np.ndarray) -> np.ndarray:
    """Ensemble scores of raw rows: standardize, then sum all rule outputs.

    A row holding a NaN or an infinity, rows of unequal length, or values
    numpy does not hold as bools, integers or floats (text, complex), is
    rejected with DataError.
    """
    X = np.atleast_2d(_real_array(features, "features"))
    std = m.standardization
    if X.ndim != 2 or X.shape[1] != std.means.shape[0]:
        raise DataError(f"features have shape {X.shape}, model expects {std.means.size} columns")
    finite = np.isfinite(X).all(axis=1)
    if not finite.all():
        raise DataError(f"row {np.flatnonzero(~finite)[0]} has a non-finite value")
    if not m.rules:
        return np.full(X.shape[0], m.constant_score)
    # a copy, standardized in place. Not X.take(m._tf, axis=1): on 20000 x 2
    # it took 200 us against 17 us (2-vCPU Xeon) and gives a C-ordered copy
    X_t = X[:, m._tf]
    X_t -= m._mu
    X_t /= m._sd
    return m.bank.scores(X_t)


def nre_predict(m: NREModel, x) -> int:
    """Label from the score's sign; an exact zero counts as +1."""
    return 1 if nre_score(m, x) >= 0.0 else -1


def evaluate(m: NREModel, d: Dataset) -> float:
    """Fraction of misclassified samples in [0, 1]."""
    scores = nre_score_batch(m, d.features)
    preds = np.where(scores >= 0.0, 1, -1)
    return float(np.mean(preds != d.labels))


def _rule_payload(r: NeuralRule) -> dict:
    out = {
        "layer1": [{"w": w.tolist(), "b": float(b)} for w, b in zip(r.w1, r.b1)],
        "c": float(r.c),
    }
    if r.deep:
        out["layer2"] = [{"w": w.tolist(), "b": float(b)} for w, b in zip(r.w2, r.b2)]
    return out


def _model_payload(m: NREModel) -> dict:
    return {
        "version": SCHEMA_VERSION,
        "standardization": {
            "means": m.standardization.means.tolist(),
            "stds": m.standardization.stds.tolist(),
        },
        "tree_features": list(m.tree_features),
        "rules": [_rule_payload(r) for r in m.rules],
        "source_tree": m.source_tree.to_dict(),
        "config": asdict(m.config),
    }


def _canonical(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"), allow_nan=False)


def _reject_constant(token: str):
    raise ModelFormatError(f"not a valid model file: non-finite number {token}")


def save_model(m: NREModel, path: str) -> None:
    """Write the model as canonical JSON with an embedded content checksum.

    Floats serialize at full round-trip precision, so save -> load -> save is
    byte-identical and loaded models score exactly like the originals. A
    non-finite parameter has no JSON form: it raises ValueError naming the
    parameters and nothing is written.
    """
    if not np.isfinite(m.bank.params).all():
        bad = [
            f"rule {i} {name}"
            for i, r in enumerate(m.rules)
            for name in ("w1", "b1", "w2", "b2", "c")
            if getattr(r, name) is not None and not np.all(np.isfinite(getattr(r, name)))
        ]
        raise ValueError(f"cannot save a model with non-finite parameters: {', '.join(bad)}")
    body = _canonical(_model_payload(m))
    checksum = hashlib.sha256(body.encode("utf-8")).hexdigest()
    # "checksum" sorts before every other key: this is the canonical dump with it
    with open(path, "w", encoding="utf-8") as fh:
        fh.write('{"checksum":"' + checksum + '",' + body[1:])


def load_model(path: str) -> NREModel:
    """Read a model file written by save_model; any malformed content, a source
    tree nested past the recursion limit included, is a ModelFormatError."""
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        payload = json.loads(raw.decode("utf-8"), parse_constant=_reject_constant)
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as e:
        raise ModelFormatError(f"not a valid model file: {e}") from e
    if not isinstance(payload, dict):
        raise ModelFormatError("model file must contain a JSON object")
    try:
        checksum = payload.pop("checksum")
        version = payload["version"]
        if version != SCHEMA_VERSION:
            raise ModelFormatError(f"unsupported schema version {version}")
        expected = hashlib.sha256(_canonical(payload).encode("utf-8")).hexdigest()
        if checksum != expected:
            raise ModelFormatError("checksum mismatch; file corrupted or edited")
        std = StandardizationParams(
            np.array(payload["standardization"]["means"], dtype=np.float64),
            np.array(payload["standardization"]["stds"], dtype=np.float64),
        )
        tf = tuple(payload["tree_features"])
        if not all(type(f) is int and 0 <= f < std.means.size for f in tf):
            raise ValueError(f"tree features {tf} do not index the {std.means.size} columns")
        rules = []
        for rp in payload["rules"]:
            w1 = np.array([u["w"] for u in rp["layer1"]], dtype=np.float64)
            b1 = np.array([u["b"] for u in rp["layer1"]], dtype=np.float64)
            if "layer2" in rp:
                w2 = np.array([u["w"] for u in rp["layer2"]], dtype=np.float64)
                b2 = np.array([u["b"] for u in rp["layer2"]], dtype=np.float64)
            else:
                w2 = b2 = None
            rules.append(NeuralRule(tf, w1, b1, w2, b2, float(rp["c"])))
        tree = DecisionTree.from_dict(payload["source_tree"])
        cfg = TrainConfig(**payload["config"])
        model = NREModel(std, rules, cfg, tree)
        # numpy reads a string such as "nan" as a number
        if not np.isfinite(model.bank.params).all():
            raise ValueError("non-finite rule parameter")
        return model
    except (DataError, LookupError, TypeError, ValueError, OverflowError, RecursionError) as e:
        raise ModelFormatError(f"malformed model file: {e}") from e
