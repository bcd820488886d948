import functools
import gzip
import http.server
import threading

import numpy as np
import pytest
from hypothesis import strategies as st

from nre.data import Dataset
from nre.ensemble import model_loss_and_grad
from nre.neural import NeuralRule, RuleBank
from nre.tree import build_tree
from reference_oracle import backward, forward


def random_dataset(rng, n, p, label_rule=None):
    """Random continuous dataset; labels from a rule or a noisy linear score."""
    X = rng.normal(0.0, 1.0, size=(n, p))
    if label_rule is None:
        w = rng.normal(size=p)
        y = np.where(X @ w + 0.3 * rng.normal(size=n) > 0, 1, -1)
    else:
        y = label_rule(X)
    if np.all(y == y[0]):  # ensure both classes
        y = y.copy()
        y[0] = -y[0]
    return Dataset(X, y, tuple(f"x{j}" for j in range(p)))


def chain_dataset(n):
    """One feature 0..n-1 with labels alternating +1, -1, +1, ...

    Every split of it peels off the lowest row, so its tree is a chain of
    splits as deep as max_depth allows (up to n - 1).
    """
    X = np.arange(n, dtype=float)[:, None]
    return Dataset(X, np.where(np.arange(n) % 2 == 0, 1, -1), ("x0",))


def random_tree(rng, n=80, p=4, max_depth=3):
    d = random_dataset(rng, n, p)
    return build_tree(d, max_depth=max_depth), d


ULP = np.finfo(np.float64).eps


@st.composite
def gridded_datasets(draw):
    """Small datasets whose columns repeat values: integer grids, constants, adjacent
    doubles and copies of the first column.

    On the adjacent-doubles column a midpoint threshold can round to the upper
    value, so x <= t sends rows on both sides of the scanned boundary left.
    """
    n = draw(st.integers(1, 40))
    kinds = draw(
        st.lists(st.sampled_from(["grid", "constant", "ulp", "copy"]), min_size=1, max_size=5)
    )
    cols = []
    for kind in kinds:
        k = np.array(draw(st.lists(st.integers(0, 3), min_size=n, max_size=n)), dtype=float)
        if kind == "copy":  # ties every gain of an earlier column
            cols.append(cols[0] if cols else k)
        else:
            cols.append({"grid": k, "constant": np.full(n, 2.0), "ulp": 1.0 + k * ULP}[kind])
    y = np.array(draw(st.lists(st.sampled_from([-1, 1]), min_size=n, max_size=n)))
    return Dataset(np.column_stack(cols), y, tuple(f"x{j}" for j in range(len(cols))))


def make_random_rule(rng, deep, H=3, q=2, tree_features=(0, 2)):
    w1 = rng.normal(size=(H, q))
    b1 = rng.normal(size=H)
    if deep:
        w2 = rng.normal(size=(H, H))
        b2 = rng.normal(size=H)
    else:
        w2 = b2 = None
    c = float(rng.normal()) or 1.0
    return NeuralRule(tuple(tree_features), w1, b1, w2, b2, c)


def rule_pass(n, X):
    """One rule's bank forward pass over the rows of X (all features, tree features gathered)."""
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    return RuleBank([n]).forward(X[:, list(n.tree_features)])


def oracle_gradient(rules, X, upstream):
    """Sum over rows of the oracle's gradients of upstream[n] * (rule outputs at row n).

    Returned in the layout of a bank of the same rules, padding included.
    """
    total = RuleBank(rules)
    total.params[:] = 0.0
    for x, u in zip(X, upstream):
        for r, view in zip(rules, total.rules):
            g = backward(r, forward(r, x), float(u))
            view.w1 += g.w1
            view.b1 += g.b1
            if r.deep:
                view.w2 += g.w2
                view.b2 += g.b2
            view.c += g.c
    return total.params


def fd_loss_gradient(bank, X_t, y, h=1e-5):
    """Central differences of the training loss, bumping the bank vector in place."""
    fd = np.zeros_like(bank.params)
    for i in range(bank.params.size):
        saved = bank.params[i]
        for sign in (+1, -1):
            bank.params[i] = saved + sign * h
            fd[i] += sign * model_loss_and_grad(bank, X_t, y, grad=False)[0]
        bank.params[i] = saved
    return fd / (2 * h)


def rule_kink_distance(n, x):
    """Distance of one forward pass to the nearest ReLU kink or min-pool tie.

    Ties among activations clamped at exactly zero are ignored: those units'
    preactivations are strictly negative and parameter-insensitive there, so
    they cannot move under a finite-difference bump (their |preact| is already
    counted).
    """
    tr = forward(n, x)
    final = tr.acts2 if n.deep else tr.acts1
    dists = [abs(v) for v in tr.preacts1]
    if n.deep:
        dists += [abs(v) for v in tr.preacts2]
    srt = np.sort(final)
    if len(srt) > 1 and srt[0] > 0.0:
        dists.append(srt[1] - srt[0])
    return min(dists)


def kink_distant_points(rng, rules, count, p, delta=1e-3, scale=1.5, max_tries=20000):
    """Probes where every rule's forward pass sits away from kinks and ties."""
    out = []
    for _ in range(max_tries):
        x = rng.normal(0.0, scale, size=p)
        if all(rule_kink_distance(r, x) > delta for r in rules):
            out.append(x)
            if len(out) == count:
                return np.array(out)
    raise AssertionError(f"found only {len(out)} kink-distant probes")


@pytest.fixture
def local_http_dataset_server(tmp_path):
    """Serve a tiny PMLB-style directory tree over a local HTTP port."""
    root = tmp_path / "pmlb"
    root.mkdir()

    tsv = "a\tb\ttarget\n"
    rows = [(0.5, 1.0, 0), (1.5, -1.0, 1), (2.5, 0.25, 0), (3.5, 2.0, 1)]
    for a, b, t in rows:
        tsv += f"{a}\t{b}\t{t}\n"
    ds_dir = root / "toyset"
    ds_dir.mkdir()
    (ds_dir / "toyset.tsv.gz").write_bytes(gzip.compress(tsv.encode()))

    handler = functools.partial(
        http.server.SimpleHTTPRequestHandler, directory=str(root)
    )
    handler.log_message = lambda *a, **k: None
    server = http.server.ThreadingHTTPServer(("127.0.0.1", 0), handler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    base_url = f"http://127.0.0.1:{server.server_address[1]}"
    try:
        yield base_url, tsv
    finally:
        server.shutdown()
        thread.join()
