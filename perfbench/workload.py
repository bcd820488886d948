"""Run one workload in this process and print its metrics; started by run.py.

The measured run (``--trace 0``) calls the public API the way a user does,
with tracing off, in ``rounds`` rounds. Each round sets up (generates its own
training and held-out data from ``seed * rounds + round`` and writes the
training CSV), runs ``load_table`` ``loads_per_round`` times and ``nre_train``
once, then spends ``--seconds / rounds`` seconds on alternating blocks of about
0.1 s each: ``nre_score_batch`` on the held-out matrix, ``nre_score`` on
held-out points one at a time (one caller, closed loop), and ``save_model`` +
``load_model`` round trips. Drawing data per round spreads a run over several
tree shapes, which vary with the seed, instead of one.

Every timing but ``setup_s`` (a median over rounds) is the fastest of its
samples, because on a 2-vCPU Intel Xeon VM a process switches between two
speeds about 1.7x apart every second or so, and a median measures the share of
slow time instead of the code (README.md has the measurements).
``score_p50_us`` is the p50 of one block of 100 ``nre_score`` calls, from the
block where it is lowest. ``score_p90_us`` is the p90 over every call of the
run: the slow state took at least 18% of every 5 s window seen, so this p90
reads the latency under contention, steadily.

The traced run (``--trace 1``) instead wraps the functions of each module and
reports the per-layer numbers.
"""
from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from collections import Counter

import numpy as np

import nre
from tracing import SpanStats, Tracer
from workloads import WORKLOADS, Workload

BLOCK_S = 0.1
# 100 calls last 6-70 ms, short enough to fall inside one of the machine's
# speed states.
POINT_BLOCK_CALLS = 100
SCORE_TOLERANCE = 1e-9
# The held-out rows of the XOR workloads come from this seed offset.
HOLDOUT_SEED_OFFSET = 1_000_003
TRACE_SCORE_BATCH_CALLS = 5
TRACE_POINT_CALLS = 200
TRACE_IO_CALLS = 5

_now = time.perf_counter


class Checks:
    """Output checks; each ``add`` is one attempted check."""

    def __init__(self):
        self.attempted = Counter()
        self.failed = Counter()

    def add(self, name: str, ok: bool) -> None:
        self.attempted[name] += 1
        if not ok:
            self.failed[name] += 1

    @property
    def n_attempted(self) -> int:
        return sum(self.attempted.values())

    @property
    def n_failed(self) -> int:
        return sum(self.failed.values())

    def report(self) -> None:
        for name in sorted(self.attempted):
            print(f"check {name}: {self.attempted[name] - self.failed[name]}/{self.attempted[name]} passed")


def generate(w: Workload, seed: int):
    """Training Dataset plus held-out raw features and labels."""
    if w.generator == "rotated_xor":
        train = nre.gen_rotated_xor(w.n_train, 30.0, 0.3, seed)
        held = nre.gen_rotated_xor(w.n_holdout, 30.0, 0.3, seed + HOLDOUT_SEED_OFFSET)
        return train, held.features, held.labels
    # The seed also draws the cluster labels and the column order, so another
    # seed would be another problem: hold out the tail of one draw instead.
    d, _ = nre.gen_madelon_like(w.n_train + w.n_holdout, 5, 15, 480, seed)
    return d.subset(np.arange(w.n_train)), d.features[w.n_train :], d.labels[w.n_train :]


def write_csv(d, path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join([*d.feature_names, "label"]) + "\n")
        for row, label in zip(d.features.tolist(), d.labels.tolist()):
            fh.write(",".join(map(repr, row)) + f",{label}\n")


def set_up(w: Workload, seed: int, csv_path: str):
    train, held_x, held_y = generate(w, seed)
    write_csv(train, csv_path)
    return train, held_x, held_y


def train_config(w: Workload, seed: int):
    return nre.TrainConfig(
        max_depth=w.max_depth, deep=True, epochs=w.epochs, seed=seed, max_rules=w.max_rules
    )


def timed(fn, *args, **kwargs):
    gc.collect()
    t0 = _now()
    out = fn(*args, **kwargs)
    return out, _now() - t0


def accuracy(scores: np.ndarray, labels: np.ndarray) -> float:
    return float(np.mean(np.where(scores >= 0.0, 1, -1) == labels))


def file_bytes(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def check_model(checks: Checks, w: Workload, ref: np.ndarray, held_y: np.ndarray) -> float:
    checks.add("scores_finite", bool(np.all(np.isfinite(ref))))
    acc = accuracy(ref, held_y)
    checks.add("accuracy_above_floor", acc > w.accuracy_floor)
    return acc


def check_round_trip(checks: Checks, loaded, path_a: str, path_b: str) -> None:
    """save -> load -> save must reproduce the first file byte for byte."""
    nre.save_model(loaded, path_b)
    checks.add("save_load_save_identical", file_bytes(path_a) == file_bytes(path_b))


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    k = max(0, min(len(sorted_values) - 1, int(np.ceil(q * len(sorted_values))) - 1))
    return sorted_values[k]


def run_measured(w: Workload, seed: int, seconds: float, work: str):
    checks = Checks()
    csv_path = os.path.join(work, "train.csv")
    path_a, path_b = os.path.join(work, "model_a.json"), os.path.join(work, "model_b.json")
    setup_times, load_times, train_times, accuracies = [], [], [], []
    batch_times, io_times, point_us, block_p50s = [], [], [], []
    for r in range(w.rounds):
        data_seed = seed * w.rounds + r
        (train, held_x, held_y), dt = timed(set_up, w, data_seed, csv_path)
        setup_times.append(dt)
        for _ in range(w.loads_per_round):
            d, dt = timed(nre.load_table, csv_path, "label")
            load_times.append(dt)
            checks.add(
                "load_matches_generated",
                np.array_equal(d.features, train.features) and np.array_equal(d.labels, train.labels),
            )
        model, dt = timed(nre.nre_train, d, train_config(w, data_seed))
        train_times.append(dt)
        ref = nre.nre_score_batch(model, held_x)
        accuracies.append(check_model(checks, w, ref, held_y))

        point_i = 0
        round_end = _now() + seconds / w.rounds
        while True:
            gc.collect()
            block_end = _now() + BLOCK_S
            while _now() < block_end:
                t0 = _now()
                out = nre.nre_score_batch(model, held_x)
                batch_times.append(_now() - t0)
            checks.add("batch_repeatable", np.array_equal(out, ref))

            block_end = _now() + BLOCK_S
            while _now() < block_end:
                block_us = []
                gc.collect()
                for _ in range(POINT_BLOCK_CALLS):
                    i = point_i % held_x.shape[0]
                    point_i += 1
                    x = held_x[i]
                    t0 = time.perf_counter_ns()
                    s = nre.nre_score(model, x)
                    block_us.append((time.perf_counter_ns() - t0) / 1e3)
                    checks.add("point_matches_batch", abs(s - ref[i]) <= SCORE_TOLERANCE and np.isfinite(s))
                point_us.extend(block_us)
                block_p50s.append(percentile(sorted(block_us), 0.5))

            gc.collect()
            block_end = _now() + BLOCK_S
            while _now() < block_end:
                t0 = _now()
                nre.save_model(model, path_a)
                loaded = nre.load_model(path_a)
                io_times.append(_now() - t0)
                check_round_trip(checks, loaded, path_a, path_b)
            if _now() >= round_end:
                break
        checks.add("loaded_scores_equal", np.array_equal(nre.nre_score_batch(loaded, held_x), ref))

    point_us.sort()
    n_calls = len(point_us)
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "load_s": (min(load_times), "s"),
        "train_s": (min(train_times), "s"),
        "score_rows_per_s": (held_x.shape[0] / min(batch_times), "rows/s"),
        "score_p50_us": (min(block_p50s), "us"),
        "score_p90_us": (percentile(point_us, 0.9), "us"),
        "model_io_s": (min(io_times), "s"),
        "test_accuracy": (statistics.mean(accuracies), "fraction"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    notes = {
        "setup_s": f"median of {len(setup_times)}",
        "load_s": f"best of {len(load_times)}; {d.n_samples} rows x {d.n_features + 1} columns",
        "train_s": f"best of {len(train_times)}; {w.epochs} epochs",
        "score_rows_per_s": f"best of {len(batch_times)} calls; matrix {held_x.shape[0]} x {held_x.shape[1]}",
        "score_p50_us": f"best of {len(block_p50s)} blocks of {POINT_BLOCK_CALLS} calls",
        "score_p90_us": f"all {n_calls} calls, {n_calls - int(np.ceil(0.9 * n_calls))} beyond p90",
        "model_io_s": f"best of {len(io_times)} round trips",
        "test_accuracy": f"mean of {len(accuracies)} models, {held_x.shape[0]} held-out rows each",
    }
    return metrics, notes, checks


# (module attribute as its caller looks it up, span name)
TRACED = [
    ("nre.load_table", "data.load_table"),
    ("nre.ensemble.standardize_fit", "data.standardize"),
    ("nre.ensemble.standardize_apply", "data.standardize"),
    ("nre.ensemble.build_tree", "tree.build_tree"),
    ("nre.tree.best_split", "tree.best_split"),
    ("nre.ensemble.extract_rules", "rules.extract_rules"),
    ("nre.ensemble.init_from_rule", "neural.init"),
    ("nre.ensemble.init_deep_from_rule", "neural.init"),
    ("nre.ensemble.forward_batch", "neural.forward_batch"),
    ("nre.ensemble.backward_batch", "neural.backward_batch"),
    ("nre.ensemble.adam_step", "neural.adam_step"),
    ("nre.ensemble.forward", "neural.forward"),
    ("nre.ensemble.model_loss_and_grad", "ensemble.loss_and_grad"),
    ("nre.ensemble.logistic_loss", "ensemble.logistic_loss"),
    ("nre.ensemble.model_pack", "ensemble.pack_unpack"),
    ("nre.ensemble.model_unpack", "ensemble.pack_unpack"),
    ("nre.ensemble.pack_grads", "ensemble.pack_unpack"),
    ("nre.ensemble.ensemble_scores", "ensemble.ensemble_scores"),
    ("nre.nre_train", "ensemble.train"),
    ("nre.nre_score_batch", "ensemble.score_batch"),
    ("nre.nre_score", "ensemble.score"),
    ("nre.save_model", "ensemble.save_model"),
    ("nre.load_model", "ensemble.load_model"),
]
ROWS_ARG = {"nre.ensemble.forward_batch": 1}


def count_leaves(node: dict) -> int:
    if "left" not in node:
        return 1
    return count_leaves(node["left"]) + count_leaves(node["right"])


def median_or_zero(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def run_traced(w: Workload, seed: int, work: str, spans_path: str):
    """Untraced training, then every phase again with each module's functions wrapped."""
    checks = Checks()
    csv_path = os.path.join(work, "train.csv")
    data_seed = seed * w.rounds  # the data of the measured run's first round
    _, held_x, held_y = set_up(w, data_seed, csv_path)
    cfg = train_config(w, data_seed)
    d = nre.load_table(csv_path, "label")
    timed(nre.nre_train, d, cfg)  # warm-up, so both timed trainings start warm
    untraced, untraced_s = timed(nre.nre_train, d, cfg)
    ref = nre.nre_score_batch(untraced, held_x)
    check_model(checks, w, ref, held_y)

    tracer = Tracer()
    for target, name in TRACED:
        tracer.patch(target, name, ROWS_ARG.get(target))
    epoch_marks = []

    def hook(stage, payload):
        if stage == "train_epoch":
            epoch_marks.append(_now())

    path_a, path_b = os.path.join(work, "model_a.json"), os.path.join(work, "model_b.json")
    try:
        gc.collect()
        with tracer.span("load"):
            d = nre.load_table(csv_path, "label")
        gc.collect()
        with tracer.span("train"):
            model = nre.nre_train(d, cfg, trace=hook)
        with tracer.span("score_batch"):
            for _ in range(TRACE_SCORE_BATCH_CALLS):
                scores = nre.nre_score_batch(model, held_x)
        with tracer.span("score"):
            points = [nre.nre_score(model, held_x[i]) for i in range(TRACE_POINT_CALLS)]
        with tracer.span("io"):
            for _ in range(TRACE_IO_CALLS):
                nre.save_model(model, path_a)
                loaded = nre.load_model(path_a)
    finally:
        tracer.unpatch()
    tracer.write(spans_path)

    checks.add("traced_scores_equal_untraced", np.array_equal(scores, ref))
    for i, s in enumerate(points):
        checks.add("point_matches_batch", abs(s - ref[i]) <= SCORE_TOLERANCE)
    check_round_trip(checks, loaded, path_a, path_b)
    with open(path_a, encoding="utf-8") as fh:
        saved = json.load(fh)

    st = SpanStats(tracer.spans)
    train_s = st.seconds("train", "ensemble.train")
    score_batch_calls = st.calls("score_batch", "ensemble.score_batch")
    metrics = {
        "data.load_table_s": (st.seconds("load", "data.load_table"), "s"),
        "data.cells_parsed": (d.n_samples * (d.n_features + 1), "count"),
        "data.standardize_s": (st.seconds("train", "data.standardize"), "s"),
        "tree.build_tree_s": (st.seconds("train", "tree.build_tree"), "s"),
        "tree.best_split_calls": (st.calls("train", "tree.best_split"), "count"),
        "tree.best_split_s": (st.seconds("train", "tree.best_split"), "s"),
        "tree.leaves": (count_leaves(saved["source_tree"]["root"]), "count"),
        "rules.extract_rules_s": (st.seconds("train", "rules.extract_rules"), "s"),
        "rules.count": (len(saved["rules"]), "count"),
        "neural.init_s": (st.seconds("train", "neural.init"), "s"),
        "neural.forward_batch_calls": (st.calls("train", "neural.forward_batch"), "count"),
        "neural.forward_batch_rows": (st.rows("train", "neural.forward_batch"), "count"),
        "neural.forward_batch_s": (st.seconds("train", "neural.forward_batch"), "s"),
        "neural.backward_batch_calls": (st.calls("train", "neural.backward_batch"), "count"),
        "neural.backward_batch_s": (st.seconds("train", "neural.backward_batch"), "s"),
        "neural.adam_step_calls": (st.calls("train", "neural.adam_step"), "count"),
        "neural.adam_step_s": (st.seconds("train", "neural.adam_step"), "s"),
        "neural.forward_calls": (st.calls("score", "neural.forward"), "count"),
        "neural.forward_s": (st.seconds("score", "neural.forward"), "s"),
        "ensemble.epoch_ms": (median_or_zero(list(np.diff(epoch_marks) * 1e3)), "ms"),
        "ensemble.steps": (st.calls("train", "ensemble.loss_and_grad"), "count"),
        "ensemble.loss_and_grad_s": (st.seconds("train", "ensemble.loss_and_grad"), "s"),
        "ensemble.loss_and_grad_self_s": (st.self_seconds("train", "ensemble.loss_and_grad"), "s"),
        "ensemble.logistic_loss_s": (st.seconds("train", "ensemble.logistic_loss"), "s"),
        "ensemble.pack_unpack_s": (st.seconds("train", "ensemble.pack_unpack"), "s"),
        "ensemble.history_eval_s": (st.seconds("train", "ensemble.ensemble_scores"), "s"),
        "ensemble.score_batch_s": (
            st.seconds("score_batch", "ensemble.score_batch") / max(1, score_batch_calls), "s"),
        "ensemble.score_batch_self_s": (
            st.self_seconds("score_batch", "ensemble.score_batch") / max(1, score_batch_calls), "s"),
        "ensemble.save_model_s": (median_or_zero(st.durations("io", "ensemble.save_model")), "s"),
        "ensemble.load_model_s": (median_or_zero(st.durations("io", "ensemble.load_model")), "s"),
        "ensemble.train_self_s": (st.self_seconds("train", "ensemble.train"), "s"),
        "trace.overhead_frac": (train_s / untraced_s - 1.0, "fraction"),
    }
    notes = {
        "ensemble.epoch_ms": f"median of {max(0, len(epoch_marks) - 1)} epochs",
        "ensemble.score_batch_s": f"per call, {score_batch_calls} calls on {held_x.shape[0]} rows",
        "neural.forward_s": f"{TRACE_POINT_CALLS} nre_score calls",
        "trace.overhead_frac": f"traced nre_train {train_s:.4f} s / untraced {untraced_s:.4f} s - 1",
    }
    print(f"trace: {len(tracer.spans)} spans written to {os.path.relpath(spans_path)}")
    print("trace: absent names: " + (", ".join(tracer.absent) if tracer.absent else "none"))
    return metrics, notes, checks


def openblas_version() -> str:
    try:
        return np.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
    except (KeyError, TypeError):
        return "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "openblas": openblas_version(),
        "openblas_num_threads": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu_model(),
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--tiny", action="store_true", help="run at self-check size")
    p.add_argument("--out-dir", required=True, help="directory for scratch files and spans")
    args = p.parse_args(argv)

    w = WORKLOADS[args.workload]
    if args.tiny:
        w = w.tiny()
    print("env: " + json.dumps(environment(), sort_keys=True))
    print(f"workload: {w.name} seed={args.seed} trace={args.trace} config={w}")
    os.makedirs(args.out_dir, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{w.name}-", dir=args.out_dir)
    try:
        if args.trace:
            spans_path = os.path.join(args.out_dir, f"spans-{w.name}.json.gz")
            metrics, notes, checks = run_traced(w, args.seed, work, spans_path)
        else:
            metrics, notes, checks = run_measured(w, args.seed, args.seconds, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    checks.report()
    failed_frac = checks.n_failed / checks.n_attempted
    for name, (value, unit) in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"metric {name} = {value:.6g} {unit}{note}")
    print(f"metric failed_frac = {failed_frac:.6g} fraction  ({checks.n_failed} of {checks.n_attempted} checks)")
    result = {
        "correct": checks.n_failed == 0,
        "attempted": checks.n_attempted,
        "failed": checks.n_failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if checks.n_failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
