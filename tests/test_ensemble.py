import copy
import gc
import hashlib
import json
import math
import os
import sys
import tempfile
import tracemalloc
import warnings
import weakref
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import (
    fd_loss_gradient,
    kink_distant_points,
    make_random_rule,
    oracle_gradient,
    random_dataset,
)
from nre.cli import _write_dataset_csv, main
from nre.data import (
    Dataset,
    StandardizationParams,
    gen_rotated_xor,
    standardize_apply,
    standardize_fit,
)
from nre.ensemble import (
    NREModel,
    TrainConfig,
    _canonical,
    _model_payload,
    _sigmoid,
    evaluate,
    load_model,
    logistic_loss,
    model_loss_and_grad,
    nre_predict,
    nre_score,
    nre_score_batch,
    nre_train,
    save_model,
)
from nre.errors import DataError, ModelFormatError
from nre.neural import SCORE_PASS_BYTES, NeuralRule, RuleBank
from nre.tree import MAX_DEPTH, DecisionTree, TreeNode, build_tree
from reference_oracle import forward, reference_sigmoid

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


def easy_dataset(rng, n=120):
    """Separable on feature 0 with a margin, so trees and training behave."""
    X = rng.normal(size=(n, 2))
    y = np.where(X[:, 0] > 0, 1, -1)
    X[:, 0] += y * 0.3
    return Dataset(X, y, ("x0", "x1"))


class TestLogisticLoss:
    def test_symmetry_at_zero(self):
        for y in (-1, 1):
            loss, _ = logistic_loss(0.0, y)
            assert float(loss) == pytest.approx(math.log(2.0), rel=1e-15)

    def test_large_margin_stable(self):
        loss, _ = logistic_loss(50.0, 1)
        assert 0.0 <= float(loss) < 1e-20
        loss, _ = logistic_loss(-50.0, -1)
        assert 0.0 <= float(loss) < 1e-20

    def test_large_wrong_margin_no_overflow(self):
        loss, d = logistic_loss(-800.0, 1)
        assert float(loss) == pytest.approx(800.0)
        assert float(d) == pytest.approx(-1.0)

    def test_derivative_matches_finite_differences(self):
        h = 1e-6
        for u in (-2.0, 0.0, 3.0):
            for y in (-1, 1):
                _, d = logistic_loss(u, y)
                lp, _ = logistic_loss(u + h, y)
                lm, _ = logistic_loss(u - h, y)
                fd = (float(lp) - float(lm)) / (2 * h)
                assert float(d) == pytest.approx(fd, abs=1e-8)

    def test_vectorized(self):
        u = np.array([-1.0, 0.0, 2.0])
        y = np.array([1, -1, 1])
        loss, d = logistic_loss(u, y)
        assert loss.shape == (3,) and d.shape == (3,)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(z=arrays(np.float64, st.integers(0, 40), elements=st.floats()))
    @example(z=np.array([0.0, -0.0, np.inf, -np.inf, 5e-324, -5e-324, 1e308, -1e308, np.nan]))
    @example(z=np.array([-745.2, -709.8, -37.0, 36.9, 709.8, 745.2]))
    def test_sigmoid_matches_masked_reference(self, z):
        got, want = _sigmoid(z), reference_sigmoid(z)
        nan = np.isnan(z)
        assert np.array_equal(np.isnan(got), nan)  # NaN in, NaN out, and only there
        assert got[~nan].tobytes() == want[~nan].tobytes()


class TestTrainConfig:
    def test_defaults_valid(self):
        cfg = TrainConfig()
        assert cfg.epochs == 200 and cfg.learning_rate == 0.01

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"epochs": 0},
            {"batch_size": 0},
            {"learning_rate": 0.0},
            {"l2": -1.0},
            {"max_depth": 0},
            {"min_leaf": 0},
            {"max_rules": 0},
            {"early_stop_patience": 0},
            {"learning_rate": math.nan},
            {"learning_rate": math.inf},
            {"l2": math.nan},
            {"l2": math.inf},
            {"seed": -1},
            {"max_depth": MAX_DEPTH + 1},
            {"max_depth": 3.5},
            {"deep": "no"},
            {"epochs": True},
            {"seed": 0.5},
            {"learning_rate": True},
        ],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ValueError):
            TrainConfig(**kwargs)


class TestTrainPipeline:
    def test_single_class_rejected(self):
        d = Dataset(np.random.default_rng(0).normal(size=(10, 2)), np.ones(10), ("a", "b"))
        with pytest.raises(DataError, match="both classes"):
            nre_train(d, TrainConfig(epochs=1))

    def test_stage_order_via_trace_hook(self):
        rng = np.random.default_rng(1)
        d = easy_dataset(rng)
        stages = []
        nre_train(d, TrainConfig(max_depth=2, epochs=3), trace=lambda s, p: stages.append(s))
        assert stages[:4] == ["standardize", "tree", "rules", "neural_init"]
        assert stages[4:-1] == ["train_epoch"] * 4  # epoch 0 baseline + 3 epochs
        assert stages[-1] == "done"

    def test_epoch0_matches_tree_votes(self):
        rng = np.random.default_rng(2)
        d = random_dataset(rng, 150, 3)
        cfg = TrainConfig(max_depth=3, epochs=1, seed=5)
        model = nre_train(d, cfg)
        ds = standardize_apply(d, standardize_fit(d))
        tree = build_tree(ds, cfg.max_depth, cfg.min_leaf)
        tree_error = float(np.mean(tree.predict(ds.features) != ds.labels))
        assert model.history[0][2] == pytest.approx(tree_error)

    def test_loss_non_increasing_on_separable_data(self):
        rng = np.random.default_rng(3)
        d = easy_dataset(rng, n=200)
        model = nre_train(d, TrainConfig(max_depth=2, epochs=60, seed=0))
        losses = [row[1] for row in model.history]
        for prev, cur in zip(losses[:-1], losses[1:]):
            assert cur <= prev * 1.05  # small Adam transients allowed
        assert losses[-1] < losses[0]

    def test_deterministic_serialized_models(self, tmp_path):
        rng = np.random.default_rng(4)
        d = random_dataset(rng, 100, 3)
        cfg = TrainConfig(max_depth=3, epochs=20, seed=7, batch_size=32)
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        save_model(nre_train(d, cfg), p1)
        save_model(nre_train(d, cfg), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_single_leaf_degenerate_model(self):
        """A rule-less model passes every stage; its run is epoch 0, scored over all rows."""
        X = np.array([[1.0], [1.0], [1.0], [1.0]])
        y = np.array([1, 1, 1, -1])
        d = Dataset(X, y, ("f",))  # constant feature: no split possible
        loss = np.mean(np.logaddexp(0.0, -0.5 * y))  # the constant 0.5 on all four rows
        for patience in (None, 2):
            stages = []
            with pytest.warns(UserWarning, match="single leaf"):
                model = nre_train(d, TrainConfig(epochs=5, early_stop_patience=patience),
                                  trace=lambda stage, payload: stages.append((stage, payload)))
            assert [stage for stage, _ in stages] == [
                "standardize", "tree", "rules", "neural_init", "train_epoch", "done"
            ]
            assert stages[2][1] == stages[3][1] == []
            epoch = stages[4][1]
            assert (epoch["epoch"], epoch["model"]) == (0, model) and "val_loss" not in epoch
            assert stages[5][1] is model
            assert model.history == [(0, pytest.approx(loss), 0.25)]
        assert model.degenerate and model.rules == []
        assert model.constant_score == pytest.approx(0.5)
        assert nre_predict(model, [1.0]) == 1
        assert nre_score(model, [99.0]) == pytest.approx(0.5)

    def test_max_rules_caps_ensemble(self):
        rng = np.random.default_rng(5)
        d = random_dataset(rng, 200, 3)
        full = nre_train(d, TrainConfig(max_depth=3, epochs=1))
        capped = nre_train(d, TrainConfig(max_depth=3, epochs=1, max_rules=2))
        assert len(full.rules) > 2
        assert len(capped.rules) == 2

    def test_deep_flag_builds_second_layer(self):
        rng = np.random.default_rng(6)
        d = easy_dataset(rng)
        model = nre_train(d, TrainConfig(max_depth=2, epochs=1, deep=True))
        assert all(r.deep for r in model.rules)
        H = model.rules[0].n_units
        assert model.rules[0].w2.shape == (H, H)

    def test_early_stopping_truncates_history(self):
        rng = np.random.default_rng(7)
        d = random_dataset(rng, 150, 2)  # noisy labels: validation loss plateaus
        cfg = TrainConfig(max_depth=3, epochs=400, early_stop_patience=1, seed=1)
        model = nre_train(d, cfg)
        assert len(model.history) < 401

    def test_early_stopping_history_ends_at_returned_model(self):
        d = gen_rotated_xor(600, 30, 0.6, 0)
        snapshots = {}

        def hook(stage, payload):
            if stage == "train_epoch":
                snapshots[payload["epoch"]] = payload["model"].bank.params.copy()

        cfg = TrainConfig(max_depth=6, learning_rate=0.05, early_stop_patience=5)
        model = nre_train(d, cfg, trace=hook)
        last = model.history[-1][0]
        assert last < max(snapshots)  # training went on past the restored epoch
        assert [row[0] for row in model.history] == list(range(last + 1))
        np.testing.assert_array_equal(model.bank.params, snapshots[last])

    def test_padding_stays_zero_and_rules_view_the_bank(self):
        rng = np.random.default_rng(17)
        d = random_dataset(rng, 300, 3)
        c_seen = []

        def hook(stage, payload):
            if stage == "train_epoch":
                c_seen.append(float(payload["model"].rules[0].c))

        cfg = TrainConfig(max_depth=3, epochs=60, deep=True, l2=0.01, early_stop_patience=3)
        model = nre_train(d, cfg, trace=hook)
        bank = model.bank
        assert len({r.n_units for r in model.rules}) > 1  # some rules are padded
        # copying the rules into a fresh bank pads with zeros: the vectors agree
        np.testing.assert_array_equal(RuleBank(model.rules).params, bank.params)
        assert all(np.shares_memory(r.w1, bank.params) for r in model.rules)
        assert len(set(c_seen)) > 1  # checkpoints saw the parameters move

    def test_history_has_epochs_plus_one_rows(self):
        rng = np.random.default_rng(8)
        d = easy_dataset(rng)
        model = nre_train(d, TrainConfig(max_depth=2, epochs=17))
        assert len(model.history) == 18
        assert [row[0] for row in model.history] == list(range(18))

    @pytest.mark.parametrize("batch_size", [None, 64])
    def test_forward_passes_per_run(self, monkeypatch, batch_size):
        rows = []
        real_forward = RuleBank.forward

        def counted(bank, X_t, work=None):
            rows.append(X_t.shape[0])
            return real_forward(bank, X_t, work)

        monkeypatch.setattr(RuleBank, "forward", counted)
        d = easy_dataset(np.random.default_rng(3), n=300)
        epochs = 7
        model = nre_train(d, TrainConfig(max_depth=3, epochs=epochs, batch_size=batch_size))
        assert 300 <= model.bank.pass_rows  # history scoring is one pass
        if batch_size is None:
            # the history pass of each epoch is the next step's forward pass
            assert rows == [300] * (epochs + 1)
        else:
            # one pass per step, then the history pass of the epoch
            assert rows == [300] + epochs * ([64] * 4 + [44] + [300])

    def test_default_batch_switches_above_the_full_batch_limit(self, monkeypatch):
        """batch_size=None: one step per epoch up to FULL_BATCH_LIMIT rows, 256 a step above."""
        steps = []

        def counted(bank, X_t, labels, l2=0.0, work=None, grad=True):
            if grad:  # a full batch's step gradient comes with the history row before it
                steps.append(labels.size)
            return model_loss_and_grad(bank, X_t, labels, l2, work, grad)

        limit, epochs = 300, 3  # above 256, so a minibatch epoch takes two steps
        monkeypatch.setattr("nre.ensemble.FULL_BATCH_LIMIT", limit)
        monkeypatch.setattr("nre.ensemble.model_loss_and_grad", counted)
        rng = np.random.default_rng(31)
        # limit rows: one full batch; limit + 1 rows: ceil(301 / 256) = 2 steps
        for n, per_epoch in [(limit, [limit]), (limit + 1, [256, limit + 1 - 256])]:
            steps.clear()
            nre_train(easy_dataset(rng, n=n), TrainConfig(max_depth=2, epochs=epochs))
            assert steps == epochs * per_epoch

    @pytest.mark.parametrize("deep", [False, True])
    def test_full_batch_step_runs_on_its_history_pass_rows(self, monkeypatch, deep):
        """No gather in a full-batch epoch: every pass runs on a view of the one
        training rows array, and backward runs on every history pass but the
        last epoch's, whose gradient no step would use."""
        gathered, stepped = [], []
        real_forward, real_backward = RuleBank.forward, RuleBank.backward

        def forward(bank, X_t, work=None):
            gathered.append(X_t)
            return real_forward(bank, X_t, work)

        def backward(bank, fp, upstream):
            stepped.append(fp.X_t)
            return real_backward(bank, fp, upstream)

        monkeypatch.setattr(RuleBank, "forward", forward)
        monkeypatch.setattr(RuleBank, "backward", backward)
        monkeypatch.setattr("nre.neural.SCORE_PASS_BYTES", 0)
        monkeypatch.setattr("nre.neural.MIN_PASS_ROWS", 128)  # 300 rows: 128 + 128 + 44
        epochs = 7
        nre_train(easy_dataset(np.random.default_rng(3), n=300),
                  TrainConfig(max_depth=3, epochs=epochs, deep=deep))
        assert [g.shape[0] for g in gathered] == [128, 128, 44] * (epochs + 1)
        assert len(stepped) == 3 * epochs
        assert all(s is g for s, g in zip(stepped, gathered))
        assert gathered[0].base is not None
        assert all(g.base is gathered[0].base for g in gathered)

    @pytest.mark.parametrize("deep", [False, True])
    @pytest.mark.parametrize("depth, epochs", [(4, 20), (10, 10)])
    def test_full_batch_training_ignores_seed(self, depth, epochs, deep):
        """Without early stopping, a full batch draws nothing from ``seed``;
        minibatches still step through a seeded permutation."""
        d = gen_rotated_xor(300, 30.0, 0.8, 5)

        def train(seed, **kw):
            cfg = TrainConfig(max_depth=depth, epochs=epochs, deep=deep, seed=seed, **kw)
            m = nre_train(d, cfg)
            return m.bank.params.tobytes(), m.history

        assert train(0) == train(1)
        assert train(0, batch_size=64) != train(1, batch_size=64)

    @pytest.mark.parametrize("deep", [False, True])
    @pytest.mark.parametrize("batch_size", [None, 64])
    def test_steps_reuse_one_set_of_buffers(self, monkeypatch, batch_size, deep):
        """Every step, validation and history pass of a run draws its arrays
        from one pool, and so does each step's backward. No buffer outlives
        the run."""
        train, val, held = [], [], []  # the pool of every training and validation pass
        real_forward, real_backward = RuleBank.forward, RuleBank.backward

        def forward(bank, X_t, work=None):
            (val if X_t.shape[0] == 30 else train).append(work)
            return real_forward(bank, X_t, work)

        def backward(bank, fp, upstream):
            assert fp.work is train[0]
            grad = real_backward(bank, fp, upstream)
            held.append(dict(fp.work))
            return grad

        monkeypatch.setattr(RuleBank, "forward", forward)
        monkeypatch.setattr(RuleBank, "backward", backward)
        d = easy_dataset(np.random.default_rng(3), n=300)  # 30 validation rows, 270 training
        epochs = 7
        cfg = TrainConfig(max_depth=3, epochs=epochs, batch_size=batch_size, deep=deep,
                          early_stop_patience=epochs)
        nre_train(d, cfg)
        steps = 1 if batch_size is None else 5  # 270 rows: four steps of 64 and one of 14
        assert len(train) == (epochs + 1 if batch_size is None else 1 + epochs * (steps + 1))
        assert len(val) == epochs
        pool = train[0]
        assert isinstance(pool, dict) and "route" in pool
        assert all(w is pool for w in train + val)
        # the run's first pass is its largest (validation chunks are smaller),
        # so no buffer is ever replaced
        assert all(h.keys() == pool.keys() and all(h[k] is pool[k] for k in h) for h in held)
        # and none of them outlives the run: the model holds no step buffers
        refs = [weakref.ref(buf) for buf in pool.values()]
        train.clear()
        val.clear()
        held.clear()
        del pool
        gc.collect()
        assert not any(r() is not None for r in refs)

    @pytest.mark.parametrize("batch_size", [None, 64])
    def test_val_loss_in_epoch_payloads(self, batch_size):
        d = gen_rotated_xor(600, 30, 0.6, 0)
        cfg = TrainConfig(max_depth=6, epochs=60, batch_size=batch_size, learning_rate=0.05,
                          early_stop_patience=5)
        seen = {}

        def hook(stage, payload):
            if stage == "train_epoch":
                seen[payload["epoch"]] = payload.get("val_loss"), payload["model"].bank.params.copy()

        model = nre_train(d, cfg, trace=hook)
        assert seen[0][0] is None  # the baseline is not a candidate for the restored epoch
        # the validation rows are the first draw of the run's generator
        val_idx = np.random.default_rng(cfg.seed).permutation(600)[:60]
        X_val = standardize_apply(d, model.standardization).features[val_idx]
        val = {}
        for epoch, (val_loss, params) in seen.items():
            if epoch:
                model.bank.params[:] = params
                scores = model.bank.scores(X_val[:, list(model.tree_features)])
                assert val_loss == logistic_loss(scores, d.labels[val_idx])[0].mean()
                val[epoch] = val_loss
        assert model.history[-1][0] == min(val, key=val.get) < max(val)

        payloads = []
        nre_train(d, TrainConfig(max_depth=3, epochs=3, batch_size=batch_size),
                  trace=lambda stage, payload: payloads.append(payload))
        assert not any("val_loss" in p for p in payloads if isinstance(p, dict))

    @pytest.mark.parametrize("deep", [False, True])
    @pytest.mark.parametrize("batch_size", [None, 64])
    def test_history_rows_match_snapshot_parameters(self, batch_size, deep):
        d = random_dataset(np.random.default_rng(4), 300, 3)
        snapshots = {}

        def hook(stage, payload):
            if stage == "train_epoch":
                snapshots[payload["epoch"]] = payload["model"].bank.params.copy()

        cfg = TrainConfig(max_depth=4, epochs=12, deep=deep, batch_size=batch_size,
                          learning_rate=0.05, l2=1e-3)
        model = nre_train(d, cfg, trace=hook)
        assert len(model.history) == 13
        X_t = standardize_apply(d, model.standardization).features[:, list(model.tree_features)]
        for epoch, loss, error in model.history:
            model.bank.params[:] = snapshots[epoch]
            scores = model.bank.forward(X_t).scores
            assert abs(loss - logistic_loss(scores, d.labels)[0].mean()) <= 1e-12
            assert abs(error - np.mean(np.where(scores >= 0.0, 1, -1) != d.labels)) <= 1e-12


def oracle_loss_and_grad(rules, X, y):
    """Loss, error rate and gradient vector summed from single-point oracle passes."""
    scores = np.array([sum(forward(r, x).value for r in rules) for x in X])
    losses, dscores = logistic_loss(scores, y)
    error = float(np.mean(np.where(scores >= 0.0, 1, -1) != y))
    return float(losses.mean()), error, oracle_gradient(rules, X, dscores / len(X))


class TestWholeModelGradient:
    def random_model_rules(self, rng, deep):
        tf = (0, 1, 2)
        return [
            make_random_rule(rng, deep, H=int(rng.integers(1, 4)), q=3, tree_features=tf)
            for _ in range(2)
        ]

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(9)
        for deep in (False, True):
            for _ in range(5):
                rules = self.random_model_rules(rng, deep)
                X = kink_distant_points(rng, rules, count=5, p=3)
                y = np.where(rng.random(5) > 0.5, 1, -1)
                bank = RuleBank(rules)
                grad = model_loss_and_grad(bank, X, y)[2]
                fd = fd_loss_gradient(bank, X, y)
                scale = np.maximum(np.abs(fd), 1e-8)
                assert np.max(np.abs(grad - fd) / scale) < 1e-4

    def test_l2_adds_shrinkage_gradient(self):
        rng = np.random.default_rng(10)
        bank = RuleBank(self.random_model_rules(rng, deep=False))
        X = rng.normal(size=(20, 3))
        y = np.where(rng.random(20) > 0.5, 1, -1)
        rho = 0.37
        g0 = model_loss_and_grad(bank, X, y, l2=0.0)[2]
        g1 = model_loss_and_grad(bank, X, y, l2=rho)[2]
        np.testing.assert_allclose(g1 - g0, 2 * rho * bank.params, atol=1e-12)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1), deep=st.booleans())
    def test_matches_reference_oracle_sums(self, seed, deep):
        """The sums over passes of a few rows: N spans several, often with a short last one."""
        rng = np.random.default_rng(seed)
        q = int(rng.integers(1, 4))
        tf = tuple(sorted(rng.choice(4, size=q, replace=False).tolist()))
        rules = [
            make_random_rule(rng, deep, H=int(rng.integers(1, 5)), q=q, tree_features=tf)
            for _ in range(int(rng.integers(1, 6)))
        ]
        X = rng.normal(0.0, 1.5, size=(int(rng.integers(1, 30)), 4))
        y = np.where(rng.random(X.shape[0]) > 0.5, 1, -1)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr("nre.neural.SCORE_PASS_BYTES", 0)
            mp.setattr("nre.neural.MIN_PASS_ROWS", int(rng.integers(1, 8)))
            bank = RuleBank(rules)
        loss, error, grad = model_loss_and_grad(bank, X[:, list(tf)], y)
        ref_loss, ref_error, ref_grad = oracle_loss_and_grad(rules, X, y)
        assert abs(loss - ref_loss) <= 1e-12
        assert error == ref_error
        np.testing.assert_allclose(grad, ref_grad, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("deep", [False, True])
    def test_peak_memory_does_not_grow_with_rows(self, deep):
        """A depth-10 bank of 185 rules of 10 units: the loss and gradient over
        4000 rows peak no higher than over 2000 plus a few float64s per added
        row (the scores and the loss's temporaries), and within a few passes'
        arrays. One pass over 4000 rows would hold (R, H, N) arrays of 59 MB each."""
        d = gen_rotated_xor(2000, 30.0, 0.8, 11)
        model = nre_train(d, TrainConfig(max_depth=10, epochs=1, deep=deep))
        bank = model.bank
        X = standardize_apply(d, model.standardization).features[:, list(bank.tree_features)]
        X2, y2 = np.vstack([X, X]), np.concatenate([d.labels, d.labels])
        fp = bank.forward(X[: bank.pass_rows])
        pass_bytes = sum(a.nbytes for a in fp[:4] if a is not None)
        peaks = []
        for rows, labels in [(X, d.labels), (X2, y2)]:
            gc.collect()
            tracemalloc.start()
            try:
                model_loss_and_grad(bank, rows, labels)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert bank.B1.shape == (185, 10)
        per_row = 4 * 8 * (X2.shape[0] - X.shape[0])
        assert peaks[1] <= peaks[0] + per_row + (16 << 10)  # and 16 KiB of small objects
        assert peaks[1] <= 3 * pass_bytes


class TestScoring:
    def identity_model(self, rules):
        p = 2
        std = StandardizationParams(np.zeros(p), np.ones(p))
        X = np.array([[0.1, 0.0], [1.0, 1.0]])
        tree = build_tree(
            Dataset(X, np.array([1, -1]), ("x0", "x1")), max_depth=1
        )
        return NREModel(std, rules, TrainConfig(), tree)

    def test_point_outside_single_rule_support_scores_zero(self):
        rule = NeuralRule((0, 1), np.array([[1.0, 0.0]]), np.array([0.0]), None, None, 2.0)
        m = self.identity_model([rule])
        assert nre_score(m, [-1.0, 0.0]) == 0.0
        assert nre_predict(m, [-1.0, 0.0]) == 1  # documented zero-score tie rule

    def test_two_rule_scores_sum(self):
        r1 = NeuralRule((0, 1), np.array([[1.0, 0.0]]), np.array([0.0]), None, None, 1.0)
        r2 = NeuralRule((0, 1), np.array([[0.0, 1.0]]), np.array([0.0]), None, None, -1.0)
        m = self.identity_model([r1, r2])
        assert nre_score(m, [0.3, 0.1]) == pytest.approx(0.2)

    def test_predict_signs(self):
        r1 = NeuralRule((0, 1), np.array([[1.0, 0.0]]), np.array([0.0]), None, None, 1.0)
        m = self.identity_model([r1])
        assert nre_predict(m, [0.2, 0.0]) == 1
        assert nre_predict(m, [-0.7, 0.0]) == 1  # outside support -> 0 -> +1

    def test_standardizer_clone_invariance(self):
        rng = np.random.default_rng(11)
        d = easy_dataset(rng)
        model = nre_train(d, TrainConfig(max_depth=2, epochs=10, seed=2))
        clone = NREModel(
            StandardizationParams(np.zeros(2), np.ones(2)),
            model.rules,
            model.config,
            model.source_tree,
        )
        for x in d.features[:20]:
            xs = (x - model.standardization.means) / model.standardization.stds
            assert nre_score(clone, xs) == nre_score(model, x)

    def test_point_score_equals_batch_row(self):
        rng = np.random.default_rng(18)
        d = random_dataset(rng, 200, 3)
        model = nre_train(d, TrainConfig(max_depth=3, epochs=10, deep=True, seed=1))
        n = 2 * model.bank.pass_rows + 7  # spans three score chunks
        probes = rng.normal(0.0, 2.0, size=(n, 3))
        batch = nre_score_batch(model, probes)
        points = [nre_score(model, x) for x in probes]
        np.testing.assert_allclose(points, batch, rtol=0, atol=1e-12)

    def test_non_finite_rows_rejected(self):
        rng = np.random.default_rng(19)
        model = nre_train(easy_dataset(rng), TrainConfig(max_depth=2, epochs=1))
        X = rng.normal(size=(5, 2))
        X[3, 1] = np.nan
        with pytest.raises(DataError, match="row 3"):
            nre_score_batch(model, X)
        with pytest.raises(DataError, match="non-finite"):
            nre_score(model, [np.inf, 0.0])
        with pytest.raises(DataError, match="non-finite"):
            nre_predict(model, [np.nan, np.nan])

    def test_dimension_mismatch(self):
        rng = np.random.default_rng(12)
        model = nre_train(easy_dataset(rng), TrainConfig(max_depth=1, epochs=1))
        with pytest.raises(DataError):
            nre_score(model, [1.0, 2.0, 3.0])


def leaf_model(rules, p):
    """A model of the given rules over p raw columns, standardized by the identity."""
    std = StandardizationParams(np.zeros(p), np.ones(p))
    return NREModel(std, rules, TrainConfig(deep=rules[0].deep), DecisionTree(TreeNode(1, 0), 1))


class TestScorePasses:
    def test_peak_memory_is_one_pass_plus_output_and_copy(self):
        rng = np.random.default_rng(29)  # xor-fullbatch's shape: 8 deep rules of 4 units, q = 2
        rules = [make_random_rule(rng, True, H=4, q=2, tree_features=(0, 1)) for _ in range(8)]
        model = leaf_model(rules, 2)
        X = rng.normal(size=(5 * model.bank.pass_rows + 7, 2))  # five passes, a short one
        want = nre_score_batch(model, X)
        gc.collect()
        tracemalloc.start()
        try:
            got = nre_score_batch(model, X)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got.tobytes() == want.tobytes()
        # the output, the standardized tree-feature copy and one pass; then one
        # ufunc buffer (the bias add broadcasts) and 16 KiB of small objects
        slack = 8 * np.getbufsize() + (16 << 10)
        assert peak <= got.nbytes + X.nbytes + SCORE_PASS_BYTES + slack

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1), deep=st.booleans(), data=st.data())
    def test_scores_equal_fresh_passes_and_points(self, seed, deep, data):
        rng = np.random.default_rng(seed)
        q = int(rng.integers(1, 4))
        # ragged widths: 160 to 3971 rows a pass
        widths = rng.integers(1, 9, size=int(rng.integers(16, 49)))
        rules = [make_random_rule(rng, deep, H=int(h), q=q, tree_features=range(q)) for h in widths]
        model = leaf_model(rules, q)
        rows = model.bank.pass_rows
        edges = st.sampled_from([rows, rows + 1, 2 * rows, 3 * rows + 7])
        X = rng.normal(0.0, 2.0, size=(data.draw(st.integers(1, 3 * rows + 7) | edges, "N"), q))
        got = model.bank.scores(X)
        fresh = [model.bank.forward(X[s : s + rows]).scores for s in range(0, X.shape[0], rows)]
        assert got.tobytes() == np.concatenate(fresh).tobytes()
        assert nre_score_batch(model, X).tobytes() == got.tobytes()
        points = [nre_score(model, x) for x in X]
        np.testing.assert_allclose(points, got, rtol=0, atol=1e-12)


class TestPointScore:
    """nre_score's one-row path: one bank pass with the bits of a one-row batch."""

    @staticmethod
    def assert_points_are_one_row_batches(model, X):
        for x in X:
            want = nre_score_batch(model, x[None, :])[0]
            assert np.float64(nre_score(model, x)).tobytes() == want.tobytes()

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1), deep=st.booleans())
    def test_random_banks(self, seed, deep):
        rng = np.random.default_rng(seed)
        p = int(rng.integers(1, 7))
        q = int(rng.integers(1, p + 1))
        tf = tuple(sorted(int(f) for f in rng.choice(p, size=q, replace=False)))
        widths = rng.integers(1, 9, size=int(rng.integers(1, 17)))  # ragged
        rules = [make_random_rule(rng, deep, H=int(h), q=q, tree_features=tf) for h in widths]
        std = StandardizationParams(rng.normal(size=p), rng.uniform(0.1, 3.0, size=p))
        model = replace(leaf_model(rules, p), standardization=std)
        self.assert_points_are_one_row_batches(model, rng.normal(0.0, 2.0, size=(12, p)))

    def test_trained_model(self):
        rng = np.random.default_rng(33)
        d = random_dataset(rng, 300, 5)
        d = Dataset(d.features * 3.0 + 1.0, d.labels, d.feature_names)  # a real standardizer
        model = nre_train(d, TrainConfig(max_depth=3, epochs=10, deep=True, seed=4))
        self.assert_points_are_one_row_batches(model, rng.normal(1.0, 4.0, size=(200, 5)))

    @pytest.mark.parametrize("column, value", [(1, np.nan), (3, np.inf), (3, -np.inf)])
    def test_non_finite_value_outside_the_tree_features(self, column, value):
        rng = np.random.default_rng(34)
        model = leaf_model([make_random_rule(rng, False)], 4)  # tree features 0 and 2
        x = rng.normal(size=4)
        x[column] = value
        with pytest.raises(DataError, match="row 0 has a non-finite value"):
            nre_score(model, x)

    def test_rule_less_model_scores_its_constant(self):
        std = StandardizationParams(np.zeros(3), np.ones(3))
        model = NREModel(std, [], TrainConfig(), DecisionTree(TreeNode(3, 1), 1))
        assert model.constant_score == 0.5
        assert nre_score(model, [1.0, -2.0, 3.0]) == 0.5

    @pytest.mark.parametrize("shape", [(3,), (5,), (1, 4), ()])
    def test_wrong_shape_is_data_error(self, shape):
        model = leaf_model([make_random_rule(np.random.default_rng(35), True)], 4)
        with pytest.raises(DataError, match="point has shape"):
            nre_score(model, np.zeros(shape))

    @staticmethod
    def two_column_model():
        rule = make_random_rule(np.random.default_rng(37), True, tree_features=(0, 1))
        return leaf_model([rule], 2)

    @pytest.mark.parametrize("x, match", [
        (["a", "b"], "dtype <U1"),
        ([1 + 2j, 3], "dtype complex128"),
        (np.array([1.0, 2.0], dtype=np.complex128), "dtype complex128"),
        ([None, 1.0], "dtype object"),
        ([2**70, 0], "dtype object"),  # an int beyond 64 bits
    ])
    def test_value_that_is_not_a_real_number_is_data_error(self, x, match):
        model = self.two_column_model()
        with pytest.raises(DataError, match=match):
            nre_score(model, x)
        with pytest.raises(DataError, match=match):
            nre_score_batch(model, [x])

    def test_ragged_rows_are_data_error(self):
        model = self.two_column_model()
        with pytest.raises(DataError, match="not an array of numbers"):
            nre_score_batch(model, [[1.0, 2.0], [3.0]])

    def test_bool_and_int_points_score_as_floats(self):
        model = self.two_column_model()
        assert nre_score(model, [True, False]) == nre_score(model, [1.0, 0.0])
        assert nre_score(model, np.array([2, -1], dtype=np.int8)) == nre_score(model, [2.0, -1.0])

    def test_one_forward_and_no_scores_call(self, monkeypatch):
        calls = []
        real_forward, real_scores = RuleBank.forward, RuleBank.scores

        def forward(bank, X_t, work=None):
            calls.append(("forward", X_t.shape))
            return real_forward(bank, X_t, work)

        def scores(bank, X_t, work=None):
            calls.append(("scores", X_t.shape))
            return real_scores(bank, X_t, work)

        model = leaf_model([make_random_rule(np.random.default_rng(36), True)], 4)
        monkeypatch.setattr(RuleBank, "forward", forward)
        monkeypatch.setattr(RuleBank, "scores", scores)
        nre_score(model, np.ones(4))
        assert calls == [("forward", (1, 2))]


class TestEvaluate:
    def test_perfect_and_all_wrong(self):
        rng = np.random.default_rng(13)
        d = easy_dataset(rng, n=80)
        model = nre_train(d, TrainConfig(max_depth=2, epochs=40, seed=0))
        assert evaluate(model, d) == 0.0
        flipped = Dataset(d.features, -d.labels, d.feature_names)
        assert evaluate(model, flipped) == 1.0

    def test_matches_confusion_matrix_oracle(self):
        rng = np.random.default_rng(14)
        d = random_dataset(rng, 60, 2)
        model = nre_train(d, TrainConfig(max_depth=2, epochs=5))
        probe = random_dataset(rng, 40, 2)
        wrong = sum(1 for x, y in zip(probe.features, probe.labels) if nre_predict(model, x) != y)
        assert evaluate(model, probe) == pytest.approx(wrong / probe.n_samples)


def random_saved_model(seed, deep, path):
    """Train a small random model, scatter its parameters over many magnitudes, save it."""
    rng = np.random.default_rng(seed)
    d = random_dataset(rng, int(rng.integers(20, 100)), int(rng.integers(1, 5)))
    cfg = TrainConfig(
        max_depth=int(rng.integers(1, 5)),
        deep=deep,
        epochs=2,
        batch_size=[None, 8][int(rng.integers(2))],
        l2=float(rng.choice([0.0, 1e-3])),
        seed=int(rng.integers(1000)),
    )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # a single-leaf tree is a valid model too
        model = nre_train(d, cfg)
    params = model.bank.params
    params *= rng.normal(size=params.size) * 10.0 ** rng.integers(-30, 31, size=params.size)
    save_model(model, path)
    return d, rng


def mutate_bytes(rng, raw):
    """One to three random byte edits: replace, delete, insert or truncate."""
    raw = bytearray(raw)
    for _ in range(int(rng.integers(1, 4))):
        i = int(rng.integers(len(raw) + 1))
        kind = int(rng.integers(4))
        if kind == 0 and i < len(raw):
            raw[i] = (raw[i] + int(rng.integers(1, 256))) % 256
        elif kind == 1:
            del raw[i : i + int(rng.integers(1, 9))]
        elif kind == 2:
            raw[i:i] = bytes(rng.choice(list(b'0123456789.-+eE,:[]{}" \\\xc3\xff'),
                                        size=int(rng.integers(1, 4))).tolist())
        else:
            del raw[i:]
    return bytes(raw)


JSON_VALUES = [None, True, False, 0, -1, 3, 0.5, -2.5, 1e300, "", "leaf", [], [0.5], [[1.0]], {},
               {"kind": "leaf", "n_pos": 1, "n_neg": 0}]


def json_slots(payload):
    """Every (container, key) pair of a JSON tree."""
    slots = []
    stack = [payload]
    while stack:
        node = stack.pop()
        keys = node.keys() if isinstance(node, dict) else range(len(node))
        for k in keys:
            slots.append((node, k))
            if isinstance(node[k], (dict, list)):
                stack.append(node[k])
    return slots


def mutate_payload(rng, payload):
    """Replace one random node of the JSON tree by a constant or another node, or delete it."""
    slots = json_slots(payload)
    container, key = slots[int(rng.integers(len(slots)))]
    kind = int(rng.integers(3))
    if kind == 0:
        container[key] = copy.deepcopy(JSON_VALUES[int(rng.integers(len(JSON_VALUES)))])
    elif kind == 1:
        other, other_key = slots[int(rng.integers(len(slots)))]
        container[key] = copy.deepcopy(other[other_key])
    else:
        del container[key]


FINITE = st.floats(allow_nan=False, allow_infinity=False)
JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | FINITE | st.text(max_size=4),
    lambda kids: st.lists(kids, max_size=3) | st.dictionaries(st.text(max_size=4), kids, max_size=3),
    max_leaves=5,
)
# numpy reads these strings as numbers, and no float holds the int
NUMBER_LIKE = st.sampled_from(["nan", "-inf", "1e999", 2**1100])


def tree_nodes(p, depth):
    counts = st.integers(0, 10**6)
    leaf = st.builds(TreeNode, counts, counts)
    if depth == 0:
        return leaf
    child = tree_nodes(p, depth - 1)
    return leaf | st.builds(TreeNode, counts, counts, st.integers(0, p - 1), FINITE, child, child)


@st.composite
def random_models(draw):
    """Models built field by field: a random standardizer, config and tree, and
    shallow or deep rules of ragged widths whose parameters span many magnitudes."""
    p = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def scattered(*shape):
        return rng.normal(size=shape) * 10.0 ** rng.integers(-30, 31, size=shape)

    deep = draw(st.booleans())
    tf = tuple(draw(st.lists(st.integers(0, p - 1), min_size=1, max_size=4, unique=True)))
    rules = []
    for h in draw(st.lists(st.integers(1, 4), max_size=5)):
        w2, b2 = (scattered(h, h), scattered(h)) if deep else (None, None)
        rules.append(NeuralRule(tf, scattered(h, len(tf)), scattered(h), w2, b2,
                                float(scattered(1)[0])))
    for value in draw(st.lists(FINITE, max_size=3)):  # subnormals, -0.0, 1e308 and the like
        if rules:
            w1 = rules[int(rng.integers(len(rules)))].w1
            w1.flat[int(rng.integers(w1.size))] = value
    cfg = TrainConfig(
        max_depth=draw(st.integers(1, 12)),
        min_leaf=draw(st.integers(1, 50)),
        deep=deep,
        epochs=draw(st.integers(1, 10**6)),
        batch_size=draw(st.none() | st.integers(1, 4096)),
        learning_rate=draw(st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)),
        l2=draw(st.floats(min_value=0.0, allow_infinity=False)),
        seed=draw(st.integers(0, 2**64)),
        max_rules=draw(st.none() | st.integers(1, 100)),
        early_stop_patience=draw(st.none() | st.integers(1, 100)),
    )
    std = StandardizationParams(scattered(p), np.abs(scattered(p)) + 5e-324)
    tree = DecisionTree(draw(tree_nodes(p, min(4, cfg.max_depth))), max_depth=cfg.max_depth)
    return NREModel(std, rules, cfg, tree)


def probes_for(model, seed):
    rng = np.random.default_rng(seed)
    p = model.standardization.means.size
    return rng.normal(size=(20, p)) * 10.0 ** rng.integers(-3, 31, size=(20, 1))


class TestPersistence:
    def trained(self, tmp_path, deep=False):
        rng = np.random.default_rng(15)
        d = random_dataset(rng, 120, 3)
        model = nre_train(d, TrainConfig(max_depth=3, epochs=15, deep=deep, seed=3))
        path = tmp_path / "model.json"
        save_model(model, path)
        return model, path, rng

    @pytest.mark.parametrize("deep", [False, True])
    def test_scores_survive_round_trip_exactly(self, tmp_path, deep):
        model, path, rng = self.trained(tmp_path, deep=deep)
        loaded = load_model(path)
        probes = rng.normal(size=(100, 3))
        np.testing.assert_array_equal(
            nre_score_batch(model, probes), nre_score_batch(loaded, probes)
        )

    def test_resave_is_byte_identical(self, tmp_path):
        model, path, _ = self.trained(tmp_path)
        loaded = load_model(path)
        path2 = tmp_path / "again.json"
        save_model(loaded, path2)
        assert path.read_bytes() == path2.read_bytes()

    @pytest.mark.parametrize("deep", [False, True])
    def test_file_is_the_canonical_payload_with_its_checksum(self, tmp_path, deep):
        model, path, _ = self.trained(tmp_path, deep=deep)
        payload = _model_payload(model)
        payload["checksum"] = hashlib.sha256(_canonical(payload).encode()).hexdigest()
        assert path.read_text(encoding="utf-8") == _canonical(payload)

    def test_truncated_file_is_schema_error(self, tmp_path):
        _, path, _ = self.trained(tmp_path)
        raw = path.read_text()
        path.write_text(raw[: len(raw) // 2])
        with pytest.raises(ModelFormatError, match="not a valid model file"):
            load_model(path)

    def test_version_mismatch_rejected(self, tmp_path):
        _, path, _ = self.trained(tmp_path)
        payload = json.loads(path.read_text())
        payload.pop("checksum")
        payload["version"] = 999
        payload["checksum"] = hashlib.sha256(_canonical(payload).encode()).hexdigest()
        path.write_text(_canonical(payload))
        with pytest.raises(ModelFormatError, match="version"):
            load_model(path)

    def test_checksum_mismatch_rejected(self, tmp_path):
        _, path, _ = self.trained(tmp_path)
        payload = json.loads(path.read_text())
        payload["rules"][0]["c"] += 1.0
        path.write_text(_canonical(payload))
        with pytest.raises(ModelFormatError, match="checksum"):
            load_model(path)

    def test_degenerate_model_round_trips(self, tmp_path):
        X = np.ones((4, 1))
        d = Dataset(X, np.array([1, 1, 1, -1]), ("f",))
        with pytest.warns(UserWarning):
            model = nre_train(d, TrainConfig(epochs=1))
        path = tmp_path / "deg.json"
        save_model(model, path)
        loaded = load_model(path)
        assert loaded.degenerate
        assert nre_score(loaded, [3.0]) == nre_score(model, [3.0])

    @pytest.mark.parametrize(
        "mutate",
        [
            pytest.param(lambda p, r: r["layer1"][0]["w"].append(0.5), id="ragged_layer"),
            pytest.param(lambda p, r: [u["w"].append(0.5) for u in r["layer1"]], id="wide_layer"),
            pytest.param(lambda p, r: [u["w"].pop() for u in r["layer2"]], id="non_square_layer2"),
            pytest.param(lambda p, r: r.pop("layer2"), id="layer2_on_some_rules"),
            pytest.param(lambda p, r: r.update(layer1=[], layer2=[]), id="no_units"),
            pytest.param(
                lambda p, r: p["tree_features"].append(len(p["standardization"]["means"])),
                id="feature_outside_standardizer",
            ),
            pytest.param(lambda p, r: p["config"].update(epochs=0), id="invalid_config"),
            pytest.param(lambda p, r: p["tree_features"].__setitem__(0, True), id="bool_feature"),
            pytest.param(
                lambda p, r: p["standardization"]["stds"].__setitem__(0, 0.0), id="zero_std"
            ),
            pytest.param(lambda p, r: p["source_tree"]["root"].update(n_pos="7"), id="str_count"),
            pytest.param(
                lambda p, r: p["source_tree"]["root"].update(threshold=None), id="no_threshold"
            ),
            pytest.param(lambda p, r: r.update(c="nan"), id="nan_string"),
            pytest.param(
                lambda p, r: p["standardization"]["stds"].__setitem__(0, "inf"), id="inf_string"
            ),
            pytest.param(lambda p, r: r["layer1"][0]["w"].__setitem__(0, 2**1100), id="huge_int"),
            pytest.param(
                lambda p, r: p["source_tree"]["root"].update(threshold=2**1100),
                id="huge_threshold",
            ),
            pytest.param(lambda p, r: p["config"].update(max_depth=3.5), id="float_depth"),
            pytest.param(lambda p, r: p["config"].update(deep="no"), id="str_deep"),
            pytest.param(lambda p, r: p["config"].update(epochs=True), id="bool_epochs"),
            pytest.param(lambda p, r: p["source_tree"].update(max_depth="abc"), id="str_tree_depth"),
            pytest.param(lambda p, r: p["source_tree"].update(max_depth=0), id="zero_tree_depth"),
            pytest.param(
                lambda p, r: p["source_tree"].update(max_depth=MAX_DEPTH + 1),
                id="tree_depth_past_bound",
            ),
            # the widest rule has two or more conditions, so the tree is at least 2 deep
            pytest.param(lambda p, r: p["source_tree"].update(max_depth=1), id="tree_too_deep"),
        ],
    )
    def test_malformed_rules_rejected(self, tmp_path, capsys, mutate):
        _, path, _ = self.trained(tmp_path, deep=True)
        payload = json.loads(path.read_text())
        payload.pop("checksum")
        widest = max(payload["rules"], key=lambda r: len(r["layer1"]))
        assert len(widest["layer1"]) > 1
        mutate(payload, widest)
        payload["checksum"] = hashlib.sha256(_canonical(payload).encode()).hexdigest()
        path.write_text(_canonical(payload))
        with pytest.raises(ModelFormatError, match="malformed"):
            load_model(path)
        assert main(["eval", "--model", str(path), "--data", str(path)]) == 2

    def test_deep_source_tree_is_a_format_error(self, tmp_path):
        """A chain of splits nested past the recursion limit, written as text."""
        _, path, _ = self.trained(tmp_path)
        payload = json.loads(path.read_text())
        payload.pop("checksum")
        payload["source_tree"]["root"] = "ROOT"
        body = _canonical(payload)
        leaf = '{"kind":"leaf","n_neg":0,"n_pos":1}'

        def write(depth):
            closes = "".join(
                f',"n_neg":0,"n_pos":{i + 2},"right":{leaf},"threshold":0.5}}' for i in range(depth)
            )
            text = body.replace('"ROOT"', '{"feature":0,"kind":"internal","left":' * depth
                                + leaf + closes)
            digest = hashlib.sha256(text.encode()).hexdigest()
            path.write_text(f'{{"checksum":"{digest}",{text[1:]}')

        stages = set()
        for depth in range(sys.getrecursionlimit(), 0, -1):  # down to the tree's depth check
            write(depth)
            with pytest.raises(ModelFormatError) as caught:
                load_model(path)
            stages.add(str(caught.value).split(":")[0])
            if "deeper than its max_depth" in str(caught.value):
                break
        # decoding fails near the limit; a little short of it, the re-checksum does; below
        # that the chain reaches the check against the source tree's max_depth (3)
        assert stages == {"not a valid model file", "malformed model file"}
        assert "deeper than its max_depth" in str(caught.value)
        write(3)
        load_model(path)
        write(5000)
        with pytest.raises(ModelFormatError, match="recursion"):
            load_model(path)
        assert main(["eval", "--model", str(path), "--data", str(path)]) == 2

    def test_model_written_by_per_rule_code_loads(self, tmp_path):
        # written, with these scores, by the per-rule implementation the rule bank replaced
        original = os.path.join(FIXTURES, "per_rule_model.json")
        model = load_model(original)
        again = tmp_path / "again.json"
        save_model(model, again)
        with open(original, "rb") as fh:
            assert again.read_bytes() == fh.read()
        with open(os.path.join(FIXTURES, "per_rule_scores.json"), encoding="utf-8") as fh:
            expected = json.load(fh)
        scores = nre_score_batch(model, np.array(expected["probes"]))
        np.testing.assert_allclose(scores, expected["scores"], rtol=0, atol=1e-12)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_token_rejected(self, tmp_path, capsys, value):
        with open(os.path.join(FIXTURES, "per_rule_model.json"), encoding="utf-8") as fh:
            payload = json.load(fh)
        payload.pop("checksum")
        payload["rules"][0]["c"] = value
        # Python's json writes NaN/Infinity tokens unless told not to
        text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        payload["checksum"] = hashlib.sha256(text.encode()).hexdigest()
        path = tmp_path / "nan.json"
        path.write_text(json.dumps(payload, sort_keys=True, separators=(",", ":")))
        with pytest.raises(ModelFormatError, match="non-finite"):
            load_model(path)
        assert main(["eval", "--model", str(path), "--data", str(path)]) == 2

    def test_non_finite_parameters_not_saved(self, tmp_path):
        model = load_model(os.path.join(FIXTURES, "per_rule_model.json"))
        model.rules[0].c[...] = math.nan
        model.rules[1].w1[0, 0] = math.inf
        path = tmp_path / "nan.json"
        with pytest.raises(ValueError, match="non-finite parameters: rule 0 c, rule 1 w1$"):
            save_model(model, path)
        assert not path.exists()
        with pytest.raises(ValueError):
            _canonical({"c": math.nan})

    def test_diverged_training_is_numeric_error(self, tmp_path, capsys):
        data = tmp_path / "xor.csv"
        assert main(["gen", "xor", "--n", "200", "--seed", "3", "--out", str(data)]) == 0
        out = tmp_path / "model.json"
        with np.errstate(all="ignore"):
            code = main(["train", "--data", str(data), "--out", str(out), "--max-depth", "3",
                         "--epochs", "3", "--learning-rate", "1e308"])
        assert code == 3
        assert "training diverged at epoch" in capsys.readouterr().err
        assert not out.exists()

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1), deep=st.booleans())
    def test_save_load_save_is_byte_identical(self, seed, deep):
        with tempfile.TemporaryDirectory() as tmp:
            path, again = os.path.join(tmp, "m.json"), os.path.join(tmp, "again.json")
            random_saved_model(seed, deep, path)
            save_model(load_model(path), again)
            with open(path, "rb") as a, open(again, "rb") as b:
                assert a.read() == b.read()

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1), deep=st.booleans(), rechecksum=st.booleans())
    def test_mutated_file_is_rejected_or_unchanged(self, seed, deep, rechecksum):
        """Raw byte edits, or JSON edits carrying a fresh checksum: only ModelFormatError.

        A file that loads must also score: ``nre predict`` exits 0 on it, and 2
        on every file the loader rejects.
        """
        with tempfile.TemporaryDirectory() as tmp:
            path, again = os.path.join(tmp, "m.json"), os.path.join(tmp, "again.json")
            data, out = os.path.join(tmp, "d.csv"), os.path.join(tmp, "out.csv")
            d, rng = random_saved_model(seed, deep, path)
            _write_dataset_csv(d, data)
            with open(path, "rb") as fh:
                original = fh.read()
            if rechecksum:
                payload = json.loads(original)
                payload.pop("checksum")
                mutate_payload(rng, payload)
                payload["checksum"] = hashlib.sha256(_canonical(payload).encode()).hexdigest()
                mutated = _canonical(payload).encode()
            else:
                mutated = mutate_bytes(rng, original)
            with open(path, "wb") as fh:
                fh.write(mutated)
            predict = ["predict", "--model", path, "--data", data, "--out", out]
            try:
                loaded = load_model(path)
            except ModelFormatError:
                assert main(predict) == 2
                return
            assert main(predict) == 0
            if not rechecksum:  # the checksum held, so the payload is the original one
                save_model(loaded, again)
                with open(again, "rb") as fh:
                    assert fh.read() == original

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(model=random_models(), probe_seed=st.integers(0, 2**32 - 1))
    def test_random_model_round_trips_exactly(self, model, probe_seed):
        with tempfile.TemporaryDirectory() as tmp:
            path, again = os.path.join(tmp, "m.json"), os.path.join(tmp, "again.json")
            save_model(model, path)
            loaded = load_model(path)
            save_model(loaded, again)
            with open(path, "rb") as a, open(again, "rb") as b:
                assert a.read() == b.read()
        assert loaded.bank.params.tobytes() == model.bank.params.tobytes()
        assert loaded.config == model.config and loaded.degenerate == model.degenerate
        probes = probes_for(model, probe_seed)
        with np.errstate(all="ignore"):  # huge parameters may overflow to inf or NaN
            np.testing.assert_array_equal(
                nre_score_batch(loaded, probes), nre_score_batch(model, probes)
            )

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(model=random_models(), data=st.data())
    def test_single_field_mutation_loads_or_is_a_format_error(self, model, data):
        """One field replaced by any JSON value, deleted, or a value inserted next to
        it, under a fresh checksum: loading raises only ModelFormatError, and a
        model that loads scores and saves again."""
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "m.json")
            save_model(model, path)
            with open(path, "rb") as fh:
                payload = json.loads(fh.read())
            payload.pop("checksum")
            container, key = data.draw(st.sampled_from(json_slots(payload)))
            kind = data.draw(st.sampled_from(["replace", "delete", "insert"]))
            value = data.draw(NUMBER_LIKE | JSON)
            if kind == "replace":
                container[key] = value
            elif kind == "delete":
                del container[key]
            elif isinstance(container, list):
                container.insert(key, value)
            else:
                container[data.draw(st.text(max_size=8))] = value
            payload["checksum"] = hashlib.sha256(_canonical(payload).encode()).hexdigest()
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(_canonical(payload))
            try:
                loaded = load_model(path)
            except ModelFormatError:
                return
            with np.errstate(all="ignore"):
                nre_score_batch(loaded, probes_for(loaded, 0))
            save_model(loaded, os.path.join(tmp, "again.json"))

    def test_config_round_trips(self, tmp_path):
        rng = np.random.default_rng(16)
        d = random_dataset(rng, 60, 2)
        cfg = TrainConfig(max_depth=2, epochs=4, deep=True, batch_size=16, l2=0.01, seed=9)
        model = nre_train(d, cfg)
        path = tmp_path / "m.json"
        save_model(model, path)
        assert load_model(path).config == cfg
