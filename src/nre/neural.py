"""Neural rules: trainable min-pool ReLU relaxations of conjunctive rules.

A rule's output is c * min_j relu(w_j . x_T + a_j) over one hidden unit per
original decision node, where x_T gathers the features used anywhere in the
source tree. A deep rule stacks a second, identity-initialized hidden layer of
the same width, which lets the support grow non-convex during training. The
min pool routes each sample's gradient through its least confident unit only,
and samples outside the support contribute exactly zero gradient.

Since min_j relu(a_j) = relu(min_j a_j) exactly, the forward pass pools the
last layer's pre-activations and applies that layer's ReLU to the pooled
minimum only: a shallow rule computes no ReLU over its units, and a deep rule
only the first layer's, which its second layer reads.

The backward pass finds the pooled unit by an equality mask, ``final ==
pooled``, instead of an argmin over the unit axis. It reads the mask on support
rows only, where the pooled minimum is positive and so equals the minimum
pre-activation. Where two units tie for the minimum on a support row the mask
holds both; the mask then has more nonzero gradient entries than there are
support rows with nonzero gradient, and only then does the backward pass fall
back to the argmin, so a tie still routes to the lowest unit index exactly as
before.

All rules of a model are computed together by a :class:`RuleBank`, which lays
them out as fixed-width padded layers over one flat parameter vector, the way
Neural Random Forests (Biau, Scornet & Welbl 2019) lay out tree-derived units.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .rules import ConjunctiveRule

# Bytes of one bank pass, counted per row over its arrays: the (R, H) unit
# activations (twice for deep rules), the R pooled minima and the score. Scoring
# and training run their rows in passes of ``RuleBank.pass_rows``, drawn from
# one pool. On a 2-vCPU Xeon, 20k-row score calls on an 8-rule, 4-slot deep
# model (1795 rows a pass) took 0 minor faults on 370 of 372 calls and 2.43 ms
# (best call), against 411-1021 faults on every call and 3.54 ms when each
# array had 1 MiB and a short last chunk its own pass. On a 48-rule, 8-slot
# model the best call took 37.8, 34.8 and 37.0 ms at 512 KiB, 1 MiB and 2 MiB.
SCORE_PASS_BYTES = 1 << 20
MIN_PASS_ROWS = 64  # at 6 rows a pass, a 626-rule, 16-unit deep bank trained 2.0-2.5x slower

# Adam's moment decay rates and denominator guard (Kingma & Ba 2015 defaults).
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class NeuralRule:
    """One rule's unpadded parameters.

    In a :class:`RuleBank` (and so in every ``NREModel.rules``) the arrays are
    views into the bank's parameter vector and ``c`` is a 0-d array view, so
    the rule always shows the bank's current values.
    """

    tree_features: tuple[int, ...]
    w1: np.ndarray  # (H, q)
    b1: np.ndarray  # (H,)
    w2: np.ndarray | None  # (H, H) for deep rules
    b2: np.ndarray | None  # (H,)
    c: float | np.ndarray

    @property
    def deep(self) -> bool:
        return self.w2 is not None

    @property
    def n_units(self) -> int:
        return self.w1.shape[0]


@dataclass
class AdamState:
    """First/second moment accumulators for one flat parameter vector."""

    m: np.ndarray
    v: np.ndarray
    step: int = 0
    alpha: float = 0.01

    @staticmethod
    def for_params(n: int, alpha: float = 0.01) -> "AdamState":
        return AdamState(m=np.zeros(n), v=np.zeros(n), alpha=alpha)


def _layer1_init(rule: ConjunctiveRule, tree_features) -> tuple[np.ndarray, np.ndarray]:
    tf = tuple(tree_features)
    if not rule.literals:
        raise ValueError("cannot map a rule with no literals into a neural rule")
    position = {f: i for i, f in enumerate(tf)}
    H, q = len(rule.literals), len(tf)
    w1 = np.zeros((H, q))
    b1 = np.zeros(H)
    for j, (f, w, a) in enumerate(rule.literals):
        if f not in position:
            raise ValueError(f"rule feature {f} is not among the tree features {tf}")
        w1[j, position[f]] = float(w)
        b1[j] = a
    return w1, b1


def init_from_rule(rule: ConjunctiveRule, tree_features) -> NeuralRule:
    """Shallow neural rule whose support at init equals the rule's hyper-rectangle.

    Unit j corresponds to literal j: its weight row is zero except for ±1 at
    that literal's feature, and its bias is the literal's bias, so the
    connections mirroring the tree start at their tree values and every other
    connection starts at zero.
    """
    w1, b1 = _layer1_init(rule, tree_features)
    return NeuralRule(tuple(tree_features), w1, b1, None, None, c=rule.c)


def init_deep_from_rule(rule: ConjunctiveRule, tree_features) -> NeuralRule:
    """Deep neural rule: identity-initialized second layer preserves the support."""
    w1, b1 = _layer1_init(rule, tree_features)
    H = w1.shape[0]
    return NeuralRule(tuple(tree_features), w1, b1, np.eye(H), np.zeros(H), c=rule.c)


class BankPass(NamedTuple):
    """One bank forward pass over N rows: everything its backward pass needs."""

    scores: np.ndarray  # (N,) summed rule outputs
    pooled: np.ndarray  # (R, N) ReLU of final's minimum over units; 0 outside the support
    final: np.ndarray  # (R, H, N) last layer before its ReLU, +inf at padded units
    act1: np.ndarray | None  # (R, H, N) first-layer activations of deep rules
    X_t: np.ndarray  # (N, q) the rows the pass ran on
    work: dict | None  # the pool the arrays came from, for backward's temporaries too


class RuleBank:
    """The rules of one model as padded layers over one flat float64 vector.

    The rules share their tree features (q of them). Rule r's h_r units fill
    the first h_r of H = max h_r unit slots. ``params`` holds, as views, W1
    (R, H, q), B1 (R, H), then for deep rules W2 (R, H, H) and B2 (R, H), then
    c (R); ``grad`` has the same layout. Padded entries are zero and padded
    units are set to +inf before the min pool, so they never win it: they get
    exactly zero gradient, zero L2 and a zero Adam step, and stay zero. Rows
    run in passes of ``pass_rows``: SCORE_PASS_BYTES over a row's bytes, at
    least MIN_PASS_ROWS.

    The bank copies the given rules; ``rules`` holds new rules whose arrays are
    views into ``params``. A deep and a shallow rule cannot share a bank.
    """

    def __init__(self, rules):
        rules = list(rules)
        self.tree_features = tuple(rules[0].tree_features) if rules else ()
        self.deep = bool(rules) and rules[0].deep
        q = len(self.tree_features)
        widths = [r.n_units for r in rules]
        for r, h in zip(rules, widths):
            if tuple(r.tree_features) != self.tree_features:
                raise ValueError("all rules of a bank must share their tree features")
            if r.deep != self.deep:
                raise ValueError("a bank cannot mix shallow and deep rules")
            if h < 1:
                raise ValueError("a rule needs at least one unit")
            if r.w1.shape != (h, q) or r.b1.shape != (h,):
                raise ValueError(f"first layer must be {h} x {q} weights and {h} biases")
            if self.deep and (r.w2.shape != (h, h) or r.b2.shape != (h,)):
                raise ValueError(f"second layer must be {h} x {h} weights and {h} biases")
        R, H = len(rules), max(widths, default=0)
        self.pass_rows = max(MIN_PASS_ROWS, SCORE_PASS_BYTES // (8 * (R * H * (1 + self.deep) + R + 1)))
        shapes = [(R, H, q), (R, H)] + ([(R, H, H), (R, H)] if self.deep else []) + [(R,)]
        size = sum(math.prod(s) for s in shapes)
        self.params = np.zeros(size)
        self.grad = np.zeros(size)
        self.W1, self.B1, *W2B2, self.c = _views(self.params, shapes)
        self.W2, self.B2 = W2B2 or (None, None)
        self._gW1, self._gB1, *self._gW2B2, self._gc = _views(self.grad, shapes)
        self._pad = np.nonzero(np.arange(H) >= np.array(widths, dtype=int)[:, None])
        self.rules = []
        for i, (r, h) in enumerate(zip(rules, widths)):
            w2 = b2 = None
            if self.deep:
                w2, b2 = self.W2[i, :h, :h], self.B2[i, :h]
                w2[...], b2[...] = r.w2, r.b2
            view = NeuralRule(
                self.tree_features, self.W1[i, :h], self.B1[i, :h], w2, b2, self.c[i, ...]
            )
            view.w1[...], view.b1[...], view.c[...] = r.w1, r.b1, r.c
            self.rules.append(view)

    def forward(self, X_t: np.ndarray, work: dict | None = None) -> BankPass:
        """Every rule on every row of X_t, the (N, q) tree-feature columns.

        With a ``work`` pool the pass's arrays are the starts of its buffers
        (see ``_temp``), which the pass then hands its backward; a pass drawn
        from a pool is overwritten by the next one drawn from it. Without
        one, numpy allocates.
        """
        act1_out = final_out = pooled_out = scores_out = None  # numpy allocates
        if work is not None:
            cells = self.B1.shape + (X_t.shape[0],)
            final_out = _temp(work, "final", cells)
            act1_out = _temp(work, "act1", cells) if self.deep else final_out
            pooled_out = _temp(work, "pooled", cells[::2])
            scores_out = _temp(work, "scores", cells[2:])
        act1 = np.matmul(self.W1, X_t.T, out=act1_out)
        act1 += self.B1[:, :, None]
        final = act1
        if self.deep:
            np.maximum(act1, 0.0, out=act1)
            final = np.matmul(self.W2, act1, out=final_out)
            final += self.B2[:, :, None]
        final[self._pad] = np.inf
        pooled = final.min(axis=1, out=pooled_out)
        np.maximum(pooled, 0.0, out=pooled)  # min_j relu(a_j) = relu(min_j a_j)
        scores = np.matmul(self.c, pooled, out=scores_out)
        return BankPass(scores, pooled, final, act1 if self.deep else None, X_t, work)

    def backward(self, fp: BankPass, upstream: np.ndarray) -> np.ndarray:
        """Gradient of sum_n upstream[n] * (summed rule outputs of row n of fp).

        Writes into and returns ``grad``. Outside a rule's support its
        gradient is exactly zero; inside, only the pooled unit carries
        gradient, and in deep rules it fans out to the first-layer units with
        positive activation. The temporaries come from the pass's pool, a
        fresh one for a pass without.
        """
        cells, rows, work = fp.final.shape, fp.pooled.shape, {} if fp.work is None else fp.work
        np.matmul(fp.pooled, upstream, out=self._gc)
        inside = np.greater(fp.pooled, 0.0, out=_temp(work, "inside", rows, bool))
        g = np.multiply(upstream, self.c[:, None], out=_temp(work, "g", rows))
        g *= inside  # upstream * c on support rows, a zero of either sign elsewhere
        live = np.not_equal(g, 0.0, out=_temp(work, "live", rows, bool))
        route = np.equal(fp.final, fp.pooled[:, None, :], out=_temp(work, "route", cells, bool))
        route &= live[:, None, :]
        G = _temp(work, "G", cells)
        if np.count_nonzero(route) == np.count_nonzero(live):
            np.multiply(route, g[:, None, :], out=G)
        else:
            # a tie on a support row (or a NaN or all-inf column): lowest index wins
            G.fill(0.0)
            argmin = np.argmin(fp.final, axis=1)
            np.put_along_axis(G, argmin[:, None, :], g[:, None, :], axis=1)
        if self.deep:
            gW2, gB2 = self._gW2B2
            np.matmul(G, fp.act1.transpose(0, 2, 1), out=gW2)
            G.sum(axis=2, out=gB2)
            G = np.matmul(self.W2.transpose(0, 2, 1), G, out=_temp(work, "W2tG", cells))
            G *= np.greater(fp.act1, 0.0, out=_temp(work, "act1_pos", cells, bool))
        np.matmul(G, fp.X_t, out=self._gW1)
        G.sum(axis=2, out=self._gB1)
        return self.grad

    def scores(self, X_t: np.ndarray, work: dict | None = None) -> np.ndarray:
        """Summed rule outputs of each row of X_t, in passes of ``pass_rows``.

        Every chunk's pass is drawn from ``work``, a fresh pool for the call
        when None, so a call allocates at most one pass.
        """
        work = {} if work is None else work
        out, rows = np.empty(X_t.shape[0]), self.pass_rows
        for start in range(0, X_t.shape[0], rows):
            out[start : start + rows] = self.forward(X_t[start : start + rows], work).scores
        return out


def _temp(work: dict, name: str, shape: tuple, dtype=np.float64) -> np.ndarray:
    """The contiguous start of the buffer ``work[name]`` as an array of ``shape``.

    The buffer is replaced only when it is too small. A contiguous start, like
    a fresh array, computes each row to the same bits: a strided view of the
    leading columns scored a 1-row chunk in other last bits.
    """
    n = math.prod(shape)
    buf = work.get(name)
    if buf is None or buf.size < n:
        buf = work[name] = np.empty(n, dtype)
    return buf[:n].reshape(shape)


def _views(flat: np.ndarray, shapes) -> list[np.ndarray]:
    out, i = [], 0
    for shape in shapes:
        n = math.prod(shape)
        out.append(flat[i : i + n].reshape(shape))
        i += n
    return out


def adam_step(params: np.ndarray, grads: np.ndarray, state: AdamState) -> np.ndarray:
    """One bias-corrected Adam update of ``params`` in place; mutates the state, returns params."""
    if params.shape != grads.shape or params.shape != state.m.shape:
        raise ValueError("parameter, gradient and state shapes must agree")
    state.step += 1
    state.m = ADAM_BETA1 * state.m + (1.0 - ADAM_BETA1) * grads
    state.v = ADAM_BETA2 * state.v + (1.0 - ADAM_BETA2) * grads**2
    m_hat = state.m / (1.0 - ADAM_BETA1**state.step)
    v_hat = state.v / (1.0 - ADAM_BETA2**state.step)
    params -= state.alpha * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
    return params
