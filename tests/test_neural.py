import numpy as np
import pytest
from hypothesis import assume, event, given, settings
from hypothesis import strategies as st

from conftest import (
    gridded_datasets,
    make_random_rule,
    oracle_gradient,
    random_tree,
    rule_kink_distance,
    rule_pass,
)
from nre.neural import (
    MIN_PASS_ROWS,
    SCORE_PASS_BYTES,
    AdamState,
    NeuralRule,
    RuleBank,
    adam_step,
    init_deep_from_rule,
    init_from_rule,
)
from nre.rules import ConjunctiveRule, Literal, extract_rules, rule_activations
from nre.tree import build_tree
from reference_oracle import backward, forward, reference_bank_backward, reference_bank_forward


def kink_distant_probe(rng, n, p=3, delta=1e-3):
    for _ in range(500):
        x = rng.normal(0.0, 1.5, size=p)
        if rule_kink_distance(n, x) > delta:
            return x
    raise AssertionError("could not find a kink-distant probe")


def point_gradient(n, x, upstream):
    """The bank's gradient of upstream * (rule output at x) over its parameter vector."""
    bank = RuleBank([n])
    X_t = np.asarray(x, dtype=np.float64)[None, list(n.tree_features)]
    return bank, bank.backward(bank.forward(X_t), np.array([upstream]))


def fd_param_gradient(bank, x, upstream, h=1e-5):
    """Central differences of upstream * (rule output at x), bumping the bank vector."""
    X_t = np.asarray(x, dtype=np.float64)[None, list(bank.tree_features)]
    grad = np.zeros_like(bank.params)
    for i in range(bank.params.size):
        saved = bank.params[i]
        for sign in (+1, -1):
            bank.params[i] = saved + sign * h
            grad[i] += sign * bank.forward(X_t).scores[0]
        bank.params[i] = saved
    return upstream * grad / (2 * h)


class TestInit:
    def test_shallow_mapping_example(self):
        rule = ConjunctiveRule((Literal(0, -1, 2.5),), c=0.7, n_pos=3, n_neg=1)
        n = init_from_rule(rule, (0, 3))
        assert n.w1.tolist() == [[-1.0, 0.0]]
        assert n.b1.tolist() == [2.5]
        assert n.c == 0.7 and not n.deep

    def test_sparse_pattern_from_tree_rule(self):
        rule = ConjunctiveRule(
            (Literal(2, -1, 0.4), Literal(0, 1, -1.1), Literal(2, 1, -0.9)),
            c=-0.5,
            n_pos=1,
            n_neg=3,
        )
        n = init_from_rule(rule, (0, 1, 2))
        expected = np.array([[0, 0, -1], [1, 0, 0], [0, 0, 1]], dtype=float)
        np.testing.assert_array_equal(n.w1, expected)
        np.testing.assert_array_equal(n.b1, [0.4, -1.1, -0.9])
        # one nonzero weight per unit, value +-1, everything else starts at 0
        assert all(np.count_nonzero(row) == 1 for row in n.w1)

    def test_deep_identity_layer(self):
        rule = ConjunctiveRule((Literal(0, -1, 1.0), Literal(1, 1, 0.0)), c=1.0, n_pos=1, n_neg=0)
        n = init_deep_from_rule(rule, (0, 1))
        np.testing.assert_array_equal(n.w2, np.eye(2))
        np.testing.assert_array_equal(n.b2, np.zeros(2))

    def test_single_unit_deep_identity(self):
        rule = ConjunctiveRule((Literal(0, -1, 1.0),), c=1.0, n_pos=1, n_neg=0)
        n = init_deep_from_rule(rule, (0,))
        assert n.w2.tolist() == [[1.0]] and n.b2.tolist() == [0.0]

    def test_missing_feature_rejected(self):
        rule = ConjunctiveRule((Literal(5, -1, 1.0),), c=1.0, n_pos=1, n_neg=0)
        with pytest.raises(ValueError, match="not among"):
            init_from_rule(rule, (0, 1))

    def test_empty_rule_rejected(self):
        rule = ConjunctiveRule((), c=1.0, n_pos=1, n_neg=0)
        with pytest.raises(ValueError, match="no literals"):
            init_from_rule(rule, (0,))

    def test_support_equivalence_at_init(self):
        rng = np.random.default_rng(10)
        tree, d = random_tree(rng, n=150, p=4, max_depth=3)
        probes = rng.uniform(-3, 3, size=(10_000, 4))
        for rule in extract_rules(tree):
            acts = rule_activations(rule, probes)
            for make in (init_from_rule, init_deep_from_rule):
                n = make(rule, tree.feature_set)
                vals = rule_pass(n, probes).scores
                np.testing.assert_array_equal(vals != 0.0, acts != 0.0)

    def test_deep_equals_shallow_at_init(self):
        rng = np.random.default_rng(11)
        tree, _ = random_tree(rng, n=100, p=3, max_depth=3)
        probes = rng.uniform(-3, 3, size=(500, 3))
        for rule in extract_rules(tree):
            shallow = init_from_rule(rule, tree.feature_set)
            deep = init_deep_from_rule(rule, tree.feature_set)
            vs = rule_pass(shallow, probes).scores
            vd = rule_pass(deep, probes).scores
            np.testing.assert_allclose(vs, vd, atol=1e-12)

    def test_orthogonal_initial_activations(self):
        rng = np.random.default_rng(12)
        tree, d = random_tree(rng, n=140, p=3, max_depth=4)
        rules = extract_rules(tree)
        outputs = [
            rule_pass(init_from_rule(r, tree.feature_set), d.features).scores
            for r in rules
        ]
        for i in range(len(outputs)):
            for j in range(i + 1, len(outputs)):
                assert float(outputs[i] @ outputs[j]) == 0.0

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        d=gridded_datasets(),
        max_depth=st.integers(1, 6),
        min_leaf=st.integers(1, 4),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_init_supports_tile_the_space(self, d, max_depth, min_leaf, seed):
        tree = build_tree(d, max_depth=max_depth, min_leaf=min_leaf)
        assume(tree.n_leaves() > 1)
        rng = np.random.default_rng(seed)
        X, (n, p) = d.features, d.features.shape
        probes = np.vstack(
            [
                X,
                rng.uniform(-0.5, 3.5, size=(200, p)),
                X[rng.integers(n, size=(200, p)), np.arange(p)],  # columns mixed across rows
            ]
        )
        off_thresholds = np.ones(len(probes), dtype=bool)
        for node, _ in tree.walk():
            if not node.is_leaf:
                off_thresholds &= probes[:, node.feature] != node.threshold
        probes = probes[off_thresholds]
        rules, tf = extract_rules(tree), tree.feature_set
        for make in (init_from_rule, init_deep_from_rule):
            pooled = RuleBank([make(r, tf) for r in rules]).forward(probes[:, list(tf)]).pooled
            assert np.array_equal(np.count_nonzero(pooled > 0.0, axis=0), np.ones(len(probes)))


class TestForward:
    def test_single_unit_inside(self):
        n = NeuralRule((0,), np.array([[-1.0]]), np.array([0.5]), None, None, 1.0)
        assert rule_pass(n, [0.2]).scores[0] == pytest.approx(0.3)

    def test_single_unit_outside(self):
        n = NeuralRule((0,), np.array([[-1.0]]), np.array([0.5]), None, None, 1.0)
        assert rule_pass(n, [0.7]).scores[0] == 0.0

    def test_min_pool_selects_smallest(self):
        n = NeuralRule(
            (0, 1),
            np.array([[1.0, 0.0], [0.0, 1.0]]),
            np.array([0.0, 0.0]),
            None,
            None,
            -2.0,
        )
        fp = rule_pass(n, [0.4, 0.1])
        assert fp.scores[0] == pytest.approx(-0.2)
        assert np.argmin(fp.final[0, :, 0]) == 1

    def test_argmin_tie_takes_smallest_index(self):
        n = NeuralRule(
            (0, 1),
            np.array([[1.0, 0.0], [0.0, 1.0]]),
            np.array([0.0, 0.0]),
            None,
            None,
            1.0,
        )
        _, grad = point_gradient(n, [0.3, 0.3], upstream=1.0)
        layout = RuleBank([n])  # reads the gradient vector rule by rule
        layout.params[:] = grad
        assert layout.rules[0].b1.tolist() == [1.0, 0.0]  # the tie routes to unit 0 only

    def test_gathers_tree_features_from_full_point(self):
        n = NeuralRule((2,), np.array([[1.0]]), np.array([0.0]), None, None, 1.0)
        assert rule_pass(n, [9.0, 9.0, 0.25]).scores[0] == pytest.approx(0.25)

    def test_batch_matches_single(self):
        rng = np.random.default_rng(13)
        for deep in (False, True):
            n = make_random_rule(rng, deep)
            X = rng.normal(size=(50, 3))
            fp = rule_pass(n, X)
            for i, x in enumerate(X):
                tr = forward(n, x)
                # the bank uses matrix-matrix BLAS, the oracle matrix-vector;
                # last-ulp summation differences are expected
                assert fp.scores[i] == pytest.approx(tr.value, rel=1e-12, abs=1e-12)
                pooled = (tr.acts2 if deep else tr.acts1)[tr.argmin_index]
                assert fp.pooled[0, i] == pytest.approx(pooled, rel=1e-12, abs=1e-12)
                # final holds pre-activations; off the support (pooled == 0,
                # whatever c's sign) the oracle's post-ReLU units tie at 0
                if pooled > 0:
                    assert np.argmin(fp.final[0, :, i]) == tr.argmin_index
            assert fp.pooled.any()


class TestBackward:
    def test_outside_support_all_zero(self):
        rng = np.random.default_rng(14)
        for deep in (False, True):
            count = 0
            n = make_random_rule(rng, deep)
            for _ in range(300):
                x = rng.normal(0.0, 2.0, size=3)
                tr = forward(n, x)
                final = tr.acts2 if deep else tr.acts1
                if final[tr.argmin_index] <= 0.0:
                    count += 1
                    _, grad = point_gradient(n, x, upstream=1.7)
                    assert not grad.any()
                    g = backward(n, tr, upstream=1.7)
                    assert g.c == 0.0 and not g.dx_t.any()
            assert count > 0

    def test_shallow_bias_routing(self):
        n = NeuralRule(
            (0, 1),
            np.array([[1.0, 0.0], [0.0, 1.0]]),
            np.array([0.0, 0.0]),
            None,
            None,
            2.0,
        )
        _, grad = point_gradient(n, [0.5, 0.2], upstream=3.0)  # argmin unit 1
        layout = RuleBank([n])  # reads the gradient vector rule by rule
        layout.params[:] = grad
        g = layout.rules[0]
        assert g.b1.tolist() == [0.0, 3.0 * 2.0]
        assert g.w1[0].tolist() == [0.0, 0.0]
        assert g.c == pytest.approx(3.0 * 0.2)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(15)
        for deep in (False, True):
            for _ in range(10):
                n = make_random_rule(rng, deep)
                x = kink_distant_probe(rng, n)
                upstream = float(rng.normal()) or 1.0
                bank, grad = point_gradient(n, x, upstream)
                fd = fd_param_gradient(bank, x, upstream)
                scale = np.maximum(np.abs(fd), 1e-8)
                assert np.max(np.abs(grad - fd) / scale) < 1e-4

    def test_input_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(16)
        h = 1e-5
        for deep in (False, True):
            n = make_random_rule(rng, deep)
            x = kink_distant_probe(rng, n)
            tr = forward(n, x)
            g = backward(n, tr, upstream=1.0)
            for pos, j in enumerate(n.tree_features):
                xp, xm = x.copy(), x.copy()
                xp[j] += h
                xm[j] -= h
                fd = (forward(n, xp).value - forward(n, xm).value) / (2 * h)
                assert g.dx_t[pos] == pytest.approx(fd, abs=1e-6, rel=1e-5)

    def test_batch_gradient_sums_single_gradients(self):
        rng = np.random.default_rng(17)
        for deep in (False, True):
            n = make_random_rule(rng, deep)
            X = rng.normal(size=(40, 3))
            upstream = rng.normal(size=40)
            bank = RuleBank([n])
            X_t = X[:, list(n.tree_features)]
            batch = bank.backward(bank.forward(X_t), upstream)
            np.testing.assert_allclose(batch, oracle_gradient([n], X, upstream), atol=1e-12)

    def test_min_routing_shields_other_units(self):
        rng = np.random.default_rng(18)
        checked = 0
        while checked < 20:
            n = make_random_rule(rng, deep=False, H=4, q=3, tree_features=(0, 1, 2))
            probes = rng.normal(0.0, 1.5, size=(200, 3))
            for x in probes:
                tr = forward(n, x)
                final = np.sort(tr.acts1)
                gap = final[1] - final[0]
                if tr.acts1[tr.argmin_index] <= 0.0 or gap <= 1e-6:
                    continue
                checked += 1
                j = (tr.argmin_index + 1) % n.n_units
                bumped = NeuralRule(
                    n.tree_features, n.w1.copy(), n.b1.copy(), None, None, n.c
                )
                bumped.b1[j] -= gap / 4  # unit j stays above the pooled minimum
                assert rule_pass(bumped, x).scores[0] == rule_pass(n, x).scores[0]
                break


def tie_prone_rules(rng, deep, n_rules, q, dyadic):
    """Random rules of 1-4 units, some with a unit copied onto another.

    A copied last-layer row and bias make two units tie wherever either one
    pools. With ``dyadic`` weights every sum is exact, so units also tie by
    chance.
    """
    def draw(*shape):
        if dyadic:
            return rng.integers(-4, 5, size=shape) / 2.0
        return rng.normal(size=shape)

    rules = []
    for _ in range(n_rules):
        H = int(rng.integers(1, 5))
        w1, b1 = draw(H, q), draw(H) + 1.0
        w2, b2 = (draw(H, H), draw(H) + 1.0) if deep else (None, None)
        if H > 1 and rng.random() < 0.7:
            i, j = rng.choice(H, size=2, replace=False)
            w, b = (w2, b2) if deep else (w1, b1)
            w[j], b[j] = w[i], b[i]
        rules.append(NeuralRule(tuple(range(q)), w1, b1, w2, b2, float(draw(1)[0]) or 1.0))
    return rules


def tie_prone_bank(rng, deep, n_rules, n_rows, dyadic):
    """A bank of ``tie_prone_rules`` over 1-3 features and rows to run it on."""
    q = int(rng.integers(1, 4))
    bank = RuleBank(tie_prone_rules(rng, deep, n_rules, q, dyadic))
    X = rng.integers(-6, 7, size=(n_rows, q)) / 4.0 if dyadic else rng.normal(size=(n_rows, q))
    X[rng.random(n_rows) < 0.2] *= 40.0  # far rows, mostly outside every support
    return bank, X


class TestMaskRouting:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 2**32 - 1),
        deep=st.booleans(),
        dyadic=st.booleans(),
        n_rules=st.integers(1, 6),
        n_rows=st.integers(1, 300),
        broken_columns=st.booleans(),
        reuse=st.booleans(),
    )
    def test_matches_argmin_reference_bit_for_bit(
        self, seed, deep, dyadic, n_rules, n_rows, broken_columns, reuse
    ):
        rng = np.random.default_rng(seed)
        bank, X = tie_prone_bank(rng, deep, n_rules, n_rows, dyadic)
        q = X.shape[1]
        work = dirty = None
        if reuse:  # a pool left by a pass over another row count, then scribbled over
            n_other = int(rng.integers(1, 300))
            n_other += n_other >= n_rows
            work = {}
            bank.backward(bank.forward(rng.normal(size=(n_other, q)) * 2.0, work),
                          rng.normal(size=n_other))
            for buf in work.values():
                buf.fill(True if buf.dtype == bool else np.nan)
            dirty = dict(work)
        fp = bank.forward(X, work)
        if broken_columns:  # an all-inf column and a NaN unit, as overflowing rows give
            final, H = fp.final.copy(), bank.B1.shape[1]
            final[rng.integers(n_rules), :, rng.integers(n_rows)] = np.inf
            final[rng.integers(n_rules), rng.integers(H), rng.integers(n_rows)] = np.nan
            fp = fp._replace(pooled=np.maximum(final.min(axis=1), 0.0), final=final)
        support = fp.pooled > 0.0
        if (np.count_nonzero(fp.final == fp.pooled[:, None, :], axis=1)[support] > 1).any():
            event("tie on a support row")
        if not support.any(axis=0).all():
            event("row outside every support")
        upstream = rng.normal(size=n_rows)
        got = bank.backward(fp, upstream).copy()
        want = reference_bank_backward(bank, fp, upstream).copy()
        assert np.array_equal(got, want, equal_nan=True)
        assert fp.X_t is X
        if reuse:  # every array came from the pool, a buffer replaced only when too small
            assert fp.work is work and work.keys() == dirty.keys()
            assert all(work[k] is dirty[k] or work[k].size > dirty[k].size for k in dirty)


class TestPoolBeforeReLU:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 2**32 - 1),
        deep=st.booleans(),
        dyadic=st.booleans(),
        n_rules=st.integers(1, 6),
        n_rows=st.integers(1, 300),
    )
    def test_matches_relu_then_pool_reference(self, seed, deep, dyadic, n_rules, n_rows):
        """Pooling before the last ReLU gives the values and gradient of ReLU, then pool.

        ``np.array_equal`` takes -0.0 and +0.0 as equal: where every unit of a
        rule is at or below 0 on a row, that row's pooled value, and a gradient
        entry whose every term is zero, may be a zero of the other sign.
        """
        rng = np.random.default_rng(seed)
        bank, X = tie_prone_bank(rng, deep, n_rules, n_rows, dyadic)
        got, want = bank.forward(X), reference_bank_forward(bank, X)
        if not (want.pooled > 0.0).any(axis=0).all():
            event("row outside every support")
        assert np.array_equal(got.pooled, want.pooled)
        assert np.array_equal(got.scores, want.scores)
        assert np.array_equal(got.scores >= 0, want.scores >= 0)
        upstream = rng.normal(size=n_rows)
        grad = bank.backward(got, upstream).copy()
        assert np.array_equal(grad, reference_bank_backward(bank, want, upstream))


class TestWorkPool:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 2**32 - 1),
        deep=st.booleans(),
        n_rules=st.integers(1, 6),
        # repeats are likely: larger, smaller and equal row counts all follow each other
        row_counts=st.lists(
            st.sampled_from([1, 7, 64]) | st.integers(1, 300), min_size=1, max_size=6
        ),
    )
    def test_passes_match_fresh_ones_and_buffers_only_grow(self, seed, deep, n_rules, row_counts):
        """Passes of any row counts, each then run backward, through one pool."""
        rng = np.random.default_rng(seed)
        q = int(rng.integers(1, 4))
        bank = RuleBank(tie_prone_rules(rng, deep, n_rules, q, dyadic=False))
        work, fields = {}, ("scores", "pooled", "final", "act1")
        for n_rows in row_counts:
            before = dict(work)
            X, upstream = rng.normal(size=(n_rows, q)), rng.normal(size=n_rows)
            got = bank.forward(X, work)
            got_grad = bank.backward(got, upstream).copy()
            want = bank.forward(X)
            want_grad = bank.backward(want, upstream)
            assert got.work is work and want.work is None
            assert (got.act1 is None) == (want.act1 is None) == (not deep)
            for name, g, w in zip(fields, got[:4], want[:4]):
                if w is not None:
                    assert g.flags.c_contiguous and g.tobytes() == w.tobytes()
                    assert np.shares_memory(g, work[name])
            assert got.X_t is want.X_t is X
            assert got_grad.tobytes() == want_grad.tobytes()
            for name, buf in before.items():
                assert work[name] is buf or work[name].size > buf.size


class TestScoreChunks:
    @pytest.mark.parametrize("deep", [False, True])
    def test_full_chunks_share_the_first_chunks_arrays(self, monkeypatch, deep):
        """Every chunk's pass, the short last one too, is drawn from one pool."""
        rng = np.random.default_rng(23)
        bank = RuleBank([make_random_rule(rng, deep, H=3, q=2) for _ in range(4)])
        rows = bank.pass_rows
        X = rng.normal(size=(3 * rows + 5, 2))  # three full chunks and a short one
        passes, real_forward = [], RuleBank.forward

        def forward(bank, X_t, work=None):
            passes.append(real_forward(bank, X_t, work))
            return passes[-1]

        monkeypatch.setattr(RuleBank, "forward", forward)
        got = bank.scores(X)
        monkeypatch.undo()
        fresh = [bank.forward(X[s : s + rows]).scores for s in range(0, X.shape[0], rows)]
        assert got.tobytes() == np.concatenate(fresh).tobytes()
        assert [fp.scores.size for fp in passes] == [rows] * 3 + [5]
        first = passes[0]
        row_bytes = sum(a.nbytes for a in first[:4] if a is not None) // rows
        assert rows * row_bytes <= SCORE_PASS_BYTES < (rows + 1) * row_bytes
        assert all(fp.work is first.work for fp in passes)
        for fp in passes[1:]:  # the pass's four arrays
            assert all(a is None or np.shares_memory(a, b) for a, b in zip(fp[:4], first[:4]))

    def test_small_passes_take_the_floor(self, monkeypatch):
        """A 626-rule, 16-unit deep bank (a depth-16 tree's) has 6 rows of
        SCORE_PASS_BYTES: its passes take MIN_PASS_ROWS instead."""
        rng = np.random.default_rng(24)
        bank = RuleBank([make_random_rule(rng, True, H=16, q=2) for _ in range(626)])
        one = bank.forward(rng.normal(size=(1, 2)))
        row_bytes = sum(a.nbytes for a in one[:4] if a is not None)
        assert SCORE_PASS_BYTES // row_bytes == 6
        assert bank.pass_rows == MIN_PASS_ROWS
        X = rng.normal(size=(MIN_PASS_ROWS + 3, 2))
        passes, real_forward = [], RuleBank.forward

        def forward(bank, X_t, work=None):
            passes.append(X_t.shape[0])
            return real_forward(bank, X_t, work)

        monkeypatch.setattr(RuleBank, "forward", forward)
        bank.scores(X)
        assert passes == [MIN_PASS_ROWS, 3]


class TestConvexSupport:
    def test_shallow_support_closed_under_segments(self):
        rng = np.random.default_rng(19)
        checked = 0
        while checked < 30:
            n = make_random_rule(rng, deep=False, H=int(rng.integers(1, 5)))
            pts = rng.normal(0.0, 2.0, size=(400, 3))
            vals = rule_pass(n, pts).scores
            support = pts[vals != 0.0]
            if support.shape[0] < 2:
                continue
            checked += 1
            for _ in range(20):
                i, j = rng.integers(0, support.shape[0], size=2)
                theta = float(rng.random())
                mid = theta * support[i] + (1 - theta) * support[j]
                assert rule_pass(n, mid).scores[0] != 0.0


class TestAdam:
    def test_zero_gradient_keeps_params(self):
        state = AdamState.for_params(3)
        params = np.array([1.0, -2.0, 0.5])
        out = adam_step(params, np.zeros(3), state)
        assert out is params  # updated in place
        np.testing.assert_array_equal(out, [1.0, -2.0, 0.5])
        assert state.step == 1

    def test_first_step_magnitude_is_learning_rate(self):
        state = AdamState.for_params(2, alpha=0.01)
        params = np.zeros(2)
        out = adam_step(params, np.array([3.7, -0.002]), state)
        np.testing.assert_allclose(np.abs(out), 0.01, rtol=1e-4)
        assert out[0] < 0 < out[1]

    def test_quadratic_convergence_and_reference_recurrence(self):
        # independent scalar recurrence for f(w) = (w - 3)^2 from w = 0
        alpha, b1, b2, eps = 0.1, 0.9, 0.999, 1e-8
        w_ref, m, v = 0.0, 0.0, 0.0
        ref_path = []
        for t in range(1, 101):
            g = 2 * (w_ref - 3.0)
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g * g
            m_hat = m / (1 - b1**t)
            v_hat = v / (1 - b2**t)
            w_ref = w_ref - alpha * m_hat / (v_hat**0.5 + eps)
            ref_path.append(w_ref)

        state = AdamState.for_params(1, alpha=alpha)
        params = np.zeros(1)
        for t in range(100):
            grads = 2 * (params - 3.0)
            params = adam_step(params, grads, state)
            assert params[0] == pytest.approx(ref_path[t], rel=1e-12)
        assert abs(params[0] - 3.0) < 0.5

    def test_shape_mismatch_rejected(self):
        state = AdamState.for_params(2)
        with pytest.raises(ValueError):
            adam_step(np.zeros(3), np.zeros(3), state)


class TestPacking:
    def test_round_trip_and_order(self):
        rng = np.random.default_rng(20)
        for deep in (False, True):
            rules = [
                make_random_rule(rng, deep, H=h, q=3, tree_features=(0, 1, 2)) for h in (2, 1, 3)
            ]
            bank = RuleBank(rules)
            R, H, q = 3, 3, 3
            assert bank.params.size == R * H * q + R * H + (R * H * H + R * H if deep else 0) + R
            # W1 (R, H, q) row-major first, then B1, W2 and B2 (deep only), then c
            n1 = R * H * q
            np.testing.assert_array_equal(bank.params[:n1], bank.W1.ravel())
            np.testing.assert_array_equal(bank.params[n1 : n1 + R * H], bank.B1.ravel())
            np.testing.assert_array_equal(bank.params[-R:], [r.c for r in rules])
            for i, (r, view) in enumerate(zip(rules, bank.rules)):
                np.testing.assert_array_equal(view.w1, r.w1)
                np.testing.assert_array_equal(view.b1, r.b1)
                assert np.shares_memory(view.w1, bank.params)
                assert not bank.W1[i, r.n_units :].any()  # padding
                if deep:
                    np.testing.assert_array_equal(view.w2, r.w2)
                    np.testing.assert_array_equal(view.b2, r.b2)
                assert view.c == r.c
            bank.params[-R:] = [7.0, 8.0, 9.0]  # a rule shows the vector's current values
            assert [float(v.c) for v in bank.rules] == [7.0, 8.0, 9.0]
            assert rules[0].c != 7.0  # the given rules were copied, not adopted

    def test_wrong_size_rejected(self):
        rng = np.random.default_rng(21)
        n = make_random_rule(rng, deep=False)
        wide = NeuralRule(n.tree_features, np.zeros((3, 3)), n.b1, None, None, 1.0)
        other = make_random_rule(rng, deep=False, tree_features=(0, 1))
        deep = make_random_rule(rng, deep=True)
        skewed = NeuralRule(n.tree_features, n.w1, n.b1, np.zeros((3, 2)), np.zeros(3), 1.0)
        for rules in ([n, wide], [n, other], [n, deep], [skewed]):
            with pytest.raises(ValueError):
                RuleBank(rules)
