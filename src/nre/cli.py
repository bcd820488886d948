"""Command-line surface: gen, fetch, train, predict, eval, cv, compare, plot.

Exit codes: 0 success, 1 usage error, 2 data error, 3 runtime/numeric error.
Option precedence is CLI flag > config file > built-in default; the config
file is flat ``key = value`` text with ``#`` comments.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
import time
import warnings
from dataclasses import asdict, replace

import numpy as np

from .data import (
    LINEAR_MIN_ROWS,
    MAX_INFORMATIVE,
    XOR_MIN_ROWS,
    Dataset,
    fetch_pmlb,
    gen_linear_separable,
    gen_madelon_like,
    gen_rotated_xor,
    load_table,
    read_text,
    stratified_kfold,
)
from .ensemble import (
    CONFIG_TYPES,
    TrainConfig,
    evaluate,
    load_model,
    nre_score_batch,
    nre_train,
    save_model,
)
from .errors import DataError, ModelFormatError, UsageError
from .plotting import checked_bounds, render_decision_regions
from .stats import (
    format_comparison_report,
    read_comparison_csv,
    sign_test,
    wilcoxon_signed_rank,
)

CACHE_DIR_ENV = "NRE_CACHE_DIR"


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):  # an abbreviated flag is unrecognized
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def error(self, message):
        raise UsageError(message)


def _read_config_file(path: str) -> dict:
    """TrainConfig fields, cast to their types, and the fetch keys of a config file."""
    out = {}
    with read_text(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, _, value = line.partition("=" if "=" in line else " ")
            key = key.strip().replace("-", "_")
            value = value.strip()
            if not key or not value:
                raise DataError(f"bad config line {lineno}: {line!r}")
            if key in _CONFIG_CASTS:
                try:
                    value = _CONFIG_CASTS[key](value)
                except ValueError:
                    raise DataError(
                        f"config line {lineno}: bad value for {key}: {value!r}"
                    ) from None
            elif key not in ("pmlb_base_url", "cache_dir"):
                raise DataError(f"config line {lineno}: unknown key {key!r}")
            out[key] = value
    return out


def _parse_bool(s: str) -> bool:
    if s.lower() in ("1", "true", "yes", "on"):
        return True
    if s.lower() in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {s!r}")


# TrainConfig field -> the cast of its flag and config-file value
_CONFIG_CASTS = {name: _parse_bool if kind is bool else kind for name, kind in CONFIG_TYPES.items()}


def _epoch_set(text: str) -> frozenset[int]:
    """--checkpoint-at: comma-separated epochs, each an integer >= 0."""
    epochs = frozenset(int(s) for s in text.split(",") if s.strip())
    if min(epochs, default=0) < 0:
        raise argparse.ArgumentTypeError(f"epochs must be >= 0, got {text!r}")
    return epochs


def _bounds(text: str) -> tuple[float, ...]:
    """--bounds: xmin,xmax,ymin,ymax as plotting's ``checked_bounds`` accepts them."""
    try:
        return checked_bounds(tuple(map(float, text.split(","))))
    except (ValueError, DataError):
        raise argparse.ArgumentTypeError(f"needs xmin,xmax,ymin,ymax, finite spans > 0: {text!r}")


def _number(cast, lo=None, hi=None):
    """The argparse type of a finite ``cast`` (int or float) value in lo..hi; None: unbounded."""
    noun = "an integer" if cast is int else "a finite number"
    span = "" if lo is None else f" >= {lo}" if hi is None else f" in {lo}..{hi}"

    def number(text: str):
        value = cast(text)
        in_range = (lo is None or lo <= value) and (hi is None or value <= hi)
        if not (in_range and -np.inf < value < np.inf):  # an int is never refused as infinite
            raise argparse.ArgumentTypeError(f"must be {noun}{span}, got {text!r}")
        return value

    number.__name__ = cast.__name__  # argparse's "invalid int value" names the cast
    return number


def _train_config(args) -> TrainConfig:
    """The TrainConfig of the flags over the ``--config`` file over the defaults."""
    config = _read_config_file(args.config) if args.config else {}
    kwargs = {key: value for key, value in config.items() if key in _CONFIG_CASTS}
    kwargs.update((k, getattr(args, k)) for k in _CONFIG_CASTS if getattr(args, k) is not None)
    try:
        return TrainConfig(**kwargs)
    except ValueError as e:
        raise UsageError(str(e)) from e


def _add_train_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="flat key = value config file")
    for name, cast in _CONFIG_CASTS.items():
        flag = "--" + name.replace("_", "-")
        if cast is _parse_bool:
            p.add_argument(flag, dest=name, action="store_const", const=True)
        else:
            p.add_argument(flag, dest=name, type=cast)


def _add_data_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--label-column", default="label")
    p.add_argument("--positive-label", default=None)


def _load_dataset(args) -> Dataset:
    label = args.label_column
    if isinstance(label, str) and label.lstrip("-").isdigit():
        label = int(label)
    return load_table(args.data, label_column=label, positive_label=args.positive_label)


def _write_dataset_csv(d: Dataset, path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(list(d.feature_names) + ["label"]) + "\n")
        for row, lab in zip(d.features.tolist(), d.labels.tolist()):
            fh.write(",".join(map(repr, row)) + f",{lab}\n")


def _checkpoint_path(model_path: str, iteration: int) -> str:
    stem, ext = os.path.splitext(model_path)
    return f"{stem}.iter{iteration}{ext or '.json'}"


# gen kind -> its default and its fewest rows; a one-class madelon draw is a data error
_GEN_ROWS = {"xor": (4000, XOR_MIN_ROWS), "linear": (2000, LINEAR_MIN_ROWS), "madelon": (2600, 1)}


def cmd_gen(args) -> int:
    seed = args.seed if args.seed is not None else 0
    if seed < 0:
        raise UsageError("--seed must be >= 0")
    meta = {"kind": args.kind, "seed": seed}
    default, fewest = _GEN_ROWS[args.kind]
    n = args.n if args.n is not None else default
    if n < fewest:
        raise UsageError(f"argument --n: must be an integer >= {fewest} for {args.kind}, got {n}")
    if args.kind == "xor":
        dataset = gen_rotated_xor(n, args.angle, args.noise_std, seed)
        meta.update(n=n, angle_deg=args.angle, noise_std=args.noise_std)
    elif args.kind == "linear":
        dataset = gen_linear_separable(n, args.angle, args.margin, seed)
        meta.update(n=n, angle_deg=args.angle, margin=args.margin)
    else:
        dataset, origin_map = gen_madelon_like(
            n, args.informative, args.redundant, args.distractors, seed
        )
        meta.update(
            n=n,
            informative=args.informative,
            redundant=args.redundant,
            distractors=args.distractors,
            origin_map=[list(o) for o in origin_map],
        )
    _write_dataset_csv(dataset, args.out)
    meta.update(n_rows=dataset.n_samples, n_features=dataset.n_features)
    with open(args.out + ".meta.json", "w", encoding="utf-8") as fh:
        fh.write(json.dumps(meta, sort_keys=True, indent=2) + "\n")
    print(f"wrote {dataset.n_samples} rows x {dataset.n_features} features to {args.out}")
    return 0


def cmd_fetch(args) -> int:
    config_file = _read_config_file(args.config) if args.config else {}
    base_url = args.base_url or config_file.get("pmlb_base_url")
    cache_dir = (
        args.cache_dir
        or config_file.get("cache_dir")
        or os.environ.get(
            CACHE_DIR_ENV, os.path.join(os.path.expanduser("~"), ".cache", "nre-pmlb")
        )
    )
    dataset = fetch_pmlb(args.name, cache_dir, base_url=base_url)
    print(f"{args.name}: N={dataset.n_samples}, p={dataset.n_features}")
    if args.out:
        _write_dataset_csv(dataset, args.out)
        print(f"wrote {args.out}")
    return 0


def cmd_train(args) -> int:
    cfg = _train_config(args)
    last = max(args.checkpoint_at, default=0)
    if last > cfg.epochs:
        raise UsageError(f"--checkpoint-at {last} is past the last epoch, {cfg.epochs}")
    dataset = _load_dataset(args)
    saved = set()

    def trace(stage, payload):
        if stage == "train_epoch" and payload["epoch"] in args.checkpoint_at:
            save_model(payload["model"], _checkpoint_path(args.out, payload["epoch"]))
            saved.add(payload["epoch"])

    model = nre_train(dataset, cfg, trace=trace if args.checkpoint_at else None)
    save_model(model, args.out)
    unsaved = sorted(args.checkpoint_at - saved)
    if unsaved:
        print(f"warning: training ended before checkpoint epochs {','.join(map(str, unsaved))}; "
              "not written", file=sys.stderr)
    if args.log:
        with open(args.log, "w", encoding="utf-8") as fh:
            fh.write("epoch,loss,error\n")
            for epoch, loss, err in model.history:
                fh.write(f"{epoch},{repr(loss)},{repr(err)}\n")
    print(
        f"trained {len(model.rules)} rules (deep={cfg.deep}) in {len(model.history) - 1} epochs; "
        f"training error {100 * model.history[-1][2]:.2f}%"
    )
    return 0


def cmd_predict(args) -> int:
    model = load_model(args.model)
    dataset = _load_dataset(args)
    scores = nre_score_batch(model, dataset.features)
    preds = np.where(scores >= 0.0, 1, -1)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write("score,prediction\n")
        for s, p in zip(scores, preds):
            fh.write(f"{repr(float(s))},{int(p)}\n")
    print(f"wrote {len(preds)} predictions to {args.out}")
    return 0


def cmd_eval(args) -> int:
    model = load_model(args.model)
    dataset = _load_dataset(args)
    err = evaluate(model, dataset)
    print(f"error: {100 * err:.2f}% ({dataset.n_samples} samples)")
    return 0


GRID_DEPTHS = (2, 4, 6, 8, 10)


def cmd_cv(args) -> int:
    cfg = _train_config(args)
    dataset = _load_dataset(args)
    folds = stratified_kfold(dataset, args.k, cfg.seed)
    t0 = time.perf_counter()
    sweep = {}  # depth -> its fold errors; each depth's folds train once
    for depth in GRID_DEPTHS if args.grid else (cfg.max_depth,):
        fold_cfg, errors = replace(cfg, max_depth=depth), sweep.setdefault(depth, [])
        for fold in range(folds.k):
            model = nre_train(dataset.subset(folds.train_indices(fold)), fold_cfg)
            errors.append(evaluate(model, dataset.subset(folds.test_indices(fold))))
            if not args.grid:
                print(f"fold {fold}: error {100 * errors[-1]:.2f}%")
        if args.grid:
            print(f"depth {depth:2d}: mean error {100 * float(np.mean(errors)):.2f}%")
    # the best depth, the first of a tie, reports its folds
    cfg = replace(cfg, max_depth=min(sweep, key=lambda depth: np.mean(sweep[depth])))
    errors = sweep[cfg.max_depth]
    if args.grid:
        print(f"best depth: {cfg.max_depth} (its error is over the folds that chose it, biased low)")
        for fold, err in enumerate(errors):
            print(f"fold {fold}: error {100 * err:.2f}%")
    wall = time.perf_counter() - t0
    mean, std = float(np.mean(errors)), float(np.std(errors))
    print(f"mean error {100 * mean:.2f}% +- {100 * std:.2f}% ({wall:.1f}s)")
    if args.out:
        report = {"fold_errors": errors, "mean": mean, "std": std, "wall_time_s": wall,
                  "config": asdict(cfg)}
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(report, sort_keys=True, indent=2) + "\n")
    return 0


def cmd_compare(args) -> int:
    table = read_comparison_csv(args.results)
    wil = wilcoxon_signed_rank(table) if args.test in ("wilcoxon", "both") else None
    sgn = sign_test(table) if args.test in ("sign", "both") else None
    print(
        format_comparison_report(
            table, label_a=args.label_a, label_b=args.label_b, wilcoxon=wil, sign=sgn
        )
    )
    return 0


def cmd_plot(args) -> int:
    model_path = args.model
    if args.at_iteration is not None:
        model_path = _checkpoint_path(args.model, args.at_iteration)
    model = load_model(model_path)
    dataset = _load_dataset(args)
    if dataset.n_features != 2:
        raise DataError(f"plotting needs exactly 2 features, dataset has {dataset.n_features}")

    if args.rule_index is not None:
        if args.rule_index >= len(model.rules):
            raise DataError(
                f"rule index {args.rule_index} out of range (model has {len(model.rules)} rules)"
            )
        model = replace(model, rules=[model.rules[args.rule_index]])

    svg = render_decision_regions(
        lambda pts: nre_score_batch(model, pts),
        dataset.features,
        dataset.labels,
        bounds=args.bounds,
        resolution=args.grid_resolution,
    )
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(svg)
    print(f"wrote {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="nre", description="Neural rule ensembles for tabular binary classification")
    sub = parser.add_subparsers(dest="command", parser_class=_Parser, required=True)

    p = sub.add_parser("gen", help="generate a synthetic dataset CSV")
    p.add_argument("kind", choices=["xor", "linear", "madelon"])
    p.add_argument("--n", type=_number(int, 1))
    p.add_argument("--angle", type=_number(float), default=45.0)
    p.add_argument("--noise-std", dest="noise_std", type=_number(float, 0), default=0.15)
    p.add_argument("--margin", type=_number(float, 0), default=0.05)
    p.add_argument("--informative", type=_number(int, 1, MAX_INFORMATIVE), default=5)
    p.add_argument("--redundant", type=_number(int, 0), default=15)
    p.add_argument("--distractors", type=_number(int, 0), default=480)
    p.add_argument("--seed", type=int)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("fetch", help="fetch a PMLB benchmark dataset")
    p.add_argument("name")
    p.add_argument("--cache-dir", dest="cache_dir")
    p.add_argument("--base-url", dest="base_url")
    p.add_argument("--config", help="flat key = value config file")
    p.add_argument("--out")
    p.set_defaults(func=cmd_fetch)

    p = sub.add_parser("train", help="train a neural rule ensemble")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--log")
    p.add_argument("--checkpoint-at", dest="checkpoint_at", type=_epoch_set, default=frozenset())
    _add_data_options(p)
    _add_train_options(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("predict", help="score a dataset with a trained model")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    _add_data_options(p)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("eval", help="test error of a model on a dataset")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    _add_data_options(p)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("cv", help="stratified k-fold cross-validation")
    p.add_argument("--data", required=True)
    p.add_argument("--k", type=_number(int, 2), default=5)
    p.add_argument("--grid", action="store_true",
                   help="sweep tree depth over {2,4,6,8,10} and report the best")
    p.add_argument("--out")
    _add_data_options(p)
    _add_train_options(p)
    p.set_defaults(func=cmd_cv)

    p = sub.add_parser("compare", help="statistical comparison of two classifiers")
    p.add_argument("--results", required=True, help="CSV of dataset,error_a,error_b")
    p.add_argument("--test", choices=["wilcoxon", "sign", "both"], default="both")
    p.add_argument("--label-a", dest="label_a", default="A")
    p.add_argument("--label-b", dest="label_b", default="B")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("plot", help="SVG decision regions for a 2-feature dataset")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--grid-resolution", dest="grid_resolution", type=_number(int, 1), default=200)
    p.add_argument("--bounds", type=_bounds, metavar="XMIN,XMAX,YMIN,YMAX")
    p.add_argument("--rule-index", dest="rule_index", type=_number(int, 0))
    p.add_argument("--at-iteration", dest="at_iteration", type=_number(int, 0))
    _add_data_options(p)
    p.set_defaults(func=cmd_plot)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        with warnings.catch_warnings():
            warnings.showwarning = lambda message, *_: print(f"warning: {message}", file=sys.stderr)
            args = parser.parse_args(argv)
            return args.func(args)
    except UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 1
    except (DataError, ModelFormatError, OSError) as e:
        print(f"data error: {e}", file=sys.stderr)
        return 2
    except Exception as e:  # numeric/runtime failures
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return 3


def console_entry() -> None:
    sys.exit(main())
