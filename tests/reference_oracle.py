"""Single-point forward and backward passes of one neural rule: the test oracle.

This is the per-rule, per-point math written out plainly. The rule bank in
``nre.neural`` computes the same values and gradients for all rules and rows at
once; the tests compare the two, and check this oracle against finite
differences, including its gradient with respect to the input point.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from nre.neural import NeuralRule


@dataclass
class ForwardTrace:
    """Intermediates of one forward pass, kept for backpropagation."""

    x_t: np.ndarray
    preacts1: np.ndarray
    acts1: np.ndarray
    preacts2: np.ndarray | None
    acts2: np.ndarray | None
    argmin_index: int
    value: float


@dataclass
class RuleGradients:
    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray | None
    b2: np.ndarray | None
    c: float
    dx_t: np.ndarray | None = None  # gradient w.r.t. the gathered input, tests only


def forward(n: NeuralRule, x) -> ForwardTrace:
    """Evaluate the rule at one point; the trace carries everything backward needs."""
    x_t = np.asarray(x, dtype=np.float64)[list(n.tree_features)]
    pre1 = n.w1 @ x_t + n.b1
    act1 = np.maximum(0.0, pre1)
    if n.deep:
        pre2 = n.w2 @ act1 + n.b2
        act2 = np.maximum(0.0, pre2)
        final = act2
    else:
        pre2 = act2 = None
        final = act1
    k = int(np.argmin(final))  # first occurrence = smallest index on ties
    return ForwardTrace(x_t, pre1, act1, pre2, act2, k, float(n.c * final[k]))


def backward(n: NeuralRule, trace: ForwardTrace, upstream: float) -> RuleGradients:
    """Gradients of ``upstream * value`` for every parameter plus the input.

    Outside the support (pooled minimum <= 0) everything is exactly zero.
    Inside, only the argmin unit carries gradient; for deep rules it fans out
    to first-layer units with positive preactivation.
    """
    gw1 = np.zeros_like(n.w1)
    gb1 = np.zeros_like(n.b1)
    gw2 = np.zeros_like(n.w2) if n.deep else None
    gb2 = np.zeros_like(n.b2) if n.deep else None
    dx_t = np.zeros_like(trace.x_t)
    final = trace.acts2 if n.deep else trace.acts1
    k = trace.argmin_index
    a_min = final[k]
    if a_min <= 0.0:
        return RuleGradients(gw1, gb1, gw2, gb2, 0.0, dx_t)
    dc = upstream * a_min
    g = upstream * n.c  # d(upstream * value) / d(final act of unit k)
    if n.deep:
        gw2[k] = g * trace.acts1
        gb2[k] = g
        dpre1 = g * n.w2[k] * (trace.preacts1 > 0.0)
        gw1 += dpre1[:, None] * trace.x_t
        gb1 += dpre1
        dx_t = n.w1.T @ dpre1
    else:
        gw1[k] = g * trace.x_t
        gb1[k] = g
        dx_t = g * n.w1[k]
    return RuleGradients(gw1, gb1, gw2, gb2, dc, dx_t)
