import dataclasses
import gzip
import hashlib
import json
import os
import re
import shlex
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from conftest import chain_dataset
from golden_tables import ANN_VS_NRE, GB_VS_NRE, RF_VS_NRE
from nre import cli
from nre.cli import _read_config_file, _write_dataset_csv, build_parser, main
from nre.data import StandardizationParams, gen_rotated_xor, load_table
from nre.ensemble import (
    NREModel,
    TrainConfig,
    _canonical,
    load_model,
    nre_predict,
    nre_score_batch,
    save_model,
)
from nre.errors import ModelFormatError
from nre.neural import NeuralRule
from nre.plotting import grid_points
from nre.stats import format_comparison_report, read_comparison_csv
from nre.tree import MAX_DEPTH, build_tree
from nre.data import Dataset
from reference_oracle import grid_convexity_check

# "### <table> <compare flags>" headers, each followed by that run's exact stdout
COMPARE_REPORTS = os.path.join(os.path.dirname(__file__), "fixtures", "compare_reports.txt")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def small_xor_csv(tmp_path, capsys):
    path = tmp_path / "xor.csv"
    code = main(["gen", "xor", "--n", "200", "--seed", "3", "--out", str(path)])
    capsys.readouterr()
    assert code == 0
    return str(path)


class TestGen:
    def test_xor_csv_and_sidecar(self, tmp_path, capsys):
        out = tmp_path / "d.csv"
        code, stdout, _ = run(
            capsys, "gen", "xor", "--n", "4000", "--angle", "45", "--seed", "1", "--out", str(out)
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "x0,x1,label"
        assert len(lines) == 4001
        meta = json.loads((tmp_path / "d.csv.meta.json").read_text())
        assert meta["seed"] == 1 and meta["kind"] == "xor"
        d = load_table(str(out), label_column="label")
        assert d.n_samples == 4000 and d.n_features == 2

    def test_madelon_column_count(self, tmp_path, capsys):
        out = tmp_path / "m.csv"
        code, _, _ = run(
            capsys,
            "gen", "madelon", "--n", "50",
            "--informative", "5", "--redundant", "15", "--distractors", "480",
            "--seed", "2", "--out", str(out),
        )
        assert code == 0
        header = out.read_text().splitlines()[0].split(",")
        assert len(header) == 501  # 500 features + label

    def test_negative_seed_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "d.csv"
        code, _, err = run(capsys, "gen", "xor", "--n", "50", "--seed", "-1", "--out", str(out))
        assert code == 1
        assert "--seed must be >= 0" in err
        assert not out.exists()

    def test_cells_are_float_reprs(self, tmp_path, capsys):
        out = tmp_path / "d.csv"
        code, _, _ = run(capsys, "gen", "xor", "--n", "50", "--seed", "4", "--out", str(out))
        assert code == 0
        d = gen_rotated_xor(50, 45.0, 0.15, 4)
        rows = (
            ",".join(repr(float(v)) for v in row) + f",{int(lab)}\n"
            for row, lab in zip(d.features, d.labels)
        )
        assert out.read_text() == "x0,x1,label\n" + "".join(rows)

    def test_same_seed_identical_bytes(self, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run(capsys, "gen", "linear", "--n", "100", "--seed", "4", "--out", str(a))
        run(capsys, "gen", "linear", "--n", "100", "--seed", "4", "--out", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_unknown_kind_is_usage_error(self, tmp_path, capsys):
        code, _, err = run(capsys, "gen", "bogus", "--out", str(tmp_path / "x.csv"))
        assert code == 1
        assert "usage error" in err

    def test_unwritable_path_is_data_error(self, tmp_path, capsys):
        code, _, err = run(
            capsys, "gen", "xor", "--n", "10", "--out", str(tmp_path / "no/dir/x.csv")
        )
        assert code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ("xor", "--n", "0"),
            ("xor", "--n", "3"),
            ("linear", "--n", "0"),
            ("linear", "--n", "1"),
            ("madelon", "--n", "-1"),
            ("madelon", "--n", "20", "--informative", "0"),
            ("madelon", "--n", "20", "--informative", "17"),
            ("madelon", "--n", "20", "--redundant", "-3"),
            ("madelon", "--n", "20", "--distractors", "-5"),
            ("xor", "--n", "20", "--noise-std", "-1"),
            ("xor", "--n", "20", "--noise-std", "nan"),
            ("xor", "--n", "20", "--noise-std", "inf"),
            ("linear", "--n", "20", "--margin", "-0.5"),
            ("linear", "--n", "20", "--margin", "nan"),
            ("linear", "--n", "20", "--margin", "inf"),
            ("xor", "--n", "20", "--angle", "nan"),
            ("linear", "--n", "20", "--angle", "inf"),
        ],
        ids=lambda argv: "_".join(argv[-2:]).lstrip("-") + "-" + argv[0],
    )
    def test_bad_value_is_usage_error(self, tmp_path, capsys, argv):
        out = tmp_path / "d.csv"
        code, _, err = run(capsys, "gen", *argv, "--out", str(out))
        assert code == 1
        assert f"usage error: argument {argv[-2]}" in err
        assert not out.exists()

    @pytest.mark.parametrize("kind, fewest", [("xor", 4), ("linear", 2)])
    def test_too_few_rows_names_the_minimum(self, tmp_path, capsys, kind, fewest):
        out = tmp_path / "d.csv"
        code, _, err = run(capsys, "gen", kind, "--n", str(fewest - 1), "--out", str(out))
        assert code == 1
        assert f"must be an integer >= {fewest} for {kind}, got {fewest - 1}" in err
        assert run(capsys, "gen", kind, "--n", str(fewest), "--out", str(out))[0] == 0

    def test_one_class_madelon_draw_is_data_error(self, tmp_path, capsys):
        out = tmp_path / "d.csv"
        code, _, err = run(
            capsys,
            "gen", "madelon", "--n", "2",
            "--informative", "5", "--redundant", "0", "--distractors", "0",
            "--seed", "3", "--out", str(out),
        )
        assert code == 2
        assert "hold one class" in err
        assert list(tmp_path.iterdir()) == []


class TestTrain:
    def test_train_writes_model_and_log(self, tmp_path, small_xor_csv, capsys):
        model_path = tmp_path / "model.json"
        log_path = tmp_path / "log.csv"
        code, stdout, _ = run(
            capsys,
            "train", "--data", small_xor_csv, "--out", str(model_path),
            "--log", str(log_path), "--max-depth", "3", "--epochs", "12", "--seed", "0",
        )
        assert code == 0
        assert "training error" in stdout
        model = load_model(model_path)
        assert model.config.epochs == 12
        log_lines = log_path.read_text().splitlines()
        assert log_lines[0] == "epoch,loss,error"
        assert len(log_lines) == 14  # header + epochs + 1 baseline row

    def test_deep_flag_toggles_layer2_in_file(self, tmp_path, small_xor_csv, capsys):
        shallow, deep = tmp_path / "s.json", tmp_path / "d.json"
        run(capsys, "train", "--data", small_xor_csv, "--out", str(shallow),
            "--max-depth", "2", "--epochs", "2")
        run(capsys, "train", "--data", small_xor_csv, "--out", str(deep),
            "--max-depth", "2", "--epochs", "2", "--deep")
        s = json.loads(shallow.read_text())
        d = json.loads(deep.read_text())
        assert all("layer2" not in r for r in s["rules"])
        assert all("layer2" in r for r in d["rules"])

    def test_checkpoints_written(self, tmp_path, small_xor_csv, capsys):
        model_path = tmp_path / "model.json"
        code, _, _ = run(
            capsys,
            "train", "--data", small_xor_csv, "--out", str(model_path),
            "--epochs", "5", "--checkpoint-at", "0,3",
        )
        assert code == 0
        assert (tmp_path / "model.iter0.json").exists()
        assert (tmp_path / "model.iter3.json").exists()
        iter0 = load_model(tmp_path / "model.iter0.json")
        final = load_model(model_path)
        assert iter0.config == final.config

    @pytest.mark.parametrize("epochs", ["1,x", "0,-1"])
    def test_bad_checkpoint_epochs_are_usage_errors(self, tmp_path, small_xor_csv, capsys, epochs):
        model_path = tmp_path / "m.json"
        code, _, err = run(capsys, "train", "--data", small_xor_csv, "--out", str(model_path),
                           "--epochs", "2", "--checkpoint-at", epochs)
        assert code == 1
        assert "--checkpoint-at" in err
        assert list(tmp_path.glob("m*.json")) == []

    def test_checkpoint_past_the_last_epoch_is_a_usage_error(self, tmp_path, capsys):
        """Exit 1 before any data is read: the data file does not exist."""
        model_path = tmp_path / "m.json"
        code, _, err = run(capsys, "train", "--data", str(tmp_path / "missing.csv"),
                           "--out", str(model_path), "--epochs", "3", "--checkpoint-at", "0,5")
        assert code == 1
        assert "--checkpoint-at 5 is past the last epoch, 3" in err
        assert list(tmp_path.iterdir()) == []

    def test_checkpoint_after_an_early_stop_is_warned(self, tmp_path, capsys):
        """Early stopping cannot be foreseen, so an epoch it never reached is
        not an error: its checkpoint is named in a warning and exit stays 0."""
        data, model_path = tmp_path / "xor.csv", tmp_path / "m.json"
        assert main(["gen", "xor", "--n", "600", "--seed", "3", "--out", str(data)]) == 0
        code, _, err = run(capsys, "train", "--data", str(data), "--out", str(model_path),
                           "--epochs", "200", "--early-stop-patience", "1",
                           "--learning-rate", "2.0", "--deep", "--checkpoint-at", "0,190")
        assert code == 0
        assert "warning: training ended before checkpoint epochs 190; not written" in err
        assert sorted(p.name for p in tmp_path.glob("m*.json")) == ["m.iter0.json", "m.json"]

    def test_rule_less_model(self, tmp_path, capsys):
        """A tree that is a single leaf trains, saves and predicts a constant model.

        Its warning is one ``warning:`` line on stderr, and its epoch 0 is a
        checkpoint like any model's: the model itself, as nothing trains after it.
        """
        data, model_path, preds = tmp_path / "flat.csv", tmp_path / "m.json", tmp_path / "p.csv"
        data.write_text("a,b,label\n1,5,1\n1,5,-1\n1,5,1\n1,5,-1\n")
        code, stdout, err = run(capsys, "train", "--data", str(data), "--out", str(model_path),
                                "--checkpoint-at", "0")
        assert code == 0
        line = "warning: tree degenerated to a single leaf; returning a constant model"
        assert err.splitlines() == [line]
        assert "UserWarning" not in err and "warnings.warn(" not in err
        assert "leaf" not in stdout
        assert load_model(model_path).degenerate
        checkpoint = tmp_path / "m.iter0.json"
        assert checkpoint.read_bytes() == model_path.read_bytes()
        code, _, _ = run(capsys, "predict", "--model", str(model_path), "--data", str(data),
                         "--out", str(preds))
        assert code == 0
        assert preds.read_text().splitlines() == ["score,prediction"] + ["0.0,1"] * 4

    def test_config_file_and_flag_precedence(self, tmp_path, small_xor_csv, capsys):
        cfg = tmp_path / "nre.cfg"
        cfg.write_text("# defaults for this experiment\nepochs = 5\nmax_depth = 2\n")
        m1 = tmp_path / "m1.json"
        run(capsys, "train", "--data", small_xor_csv, "--out", str(m1), "--config", str(cfg))
        assert load_model(m1).config.epochs == 5
        m2 = tmp_path / "m2.json"
        run(capsys, "train", "--data", small_xor_csv, "--out", str(m2),
            "--config", str(cfg), "--epochs", "3")
        loaded = load_model(m2)
        assert loaded.config.epochs == 3  # flag beats config file
        assert loaded.config.max_depth == 2  # config file beats default

    @pytest.mark.parametrize(
        "line, message",
        [
            ("epochs = two", "config line 2: bad value for epochs: 'two'"),
            ("deep = maybe", "config line 2: bad value for deep: 'maybe'"),
            ("max_dept = 6", "config line 2: unknown key 'max_dept'"),
        ],
    )
    def test_bad_config_file_is_data_error(self, tmp_path, small_xor_csv, capsys, line, message):
        cfg = tmp_path / "nre.cfg"
        cfg.write_text(f"# one bad line\n{line}\n")
        model_path = tmp_path / "m.json"
        code, _, err = run(
            capsys, "train", "--data", small_xor_csv, "--out", str(model_path), "--config", str(cfg)
        )
        assert code == 2
        assert message in err
        assert not model_path.exists()

    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_non_finite_learning_rate_is_usage_error(self, tmp_path, small_xor_csv, capsys, source):
        model_path = tmp_path / "m.json"
        argv = ["train", "--data", small_xor_csv, "--out", str(model_path)]
        if source == "flag":
            argv += ["--learning-rate", "nan"]
        else:
            cfg = tmp_path / "nre.cfg"
            cfg.write_text("learning_rate = nan\n")
            argv += ["--config", str(cfg)]
        code, _, err = run(capsys, *argv)
        assert code == 1
        assert "learning_rate must be finite and > 0" in err
        assert not model_path.exists()

    @pytest.mark.parametrize("command, source", [("train", "flag"), ("train", "config"),
                                                 ("cv", "flag"), ("cv", "config")])
    def test_negative_seed_is_usage_error(self, tmp_path, small_xor_csv, capsys, command, source):
        model_path = tmp_path / "m.json"
        argv = [command, "--data", small_xor_csv, "--out", str(model_path)]
        if source == "flag":
            argv += ["--seed", "-1"]
        else:
            cfg = tmp_path / "nre.cfg"
            cfg.write_text("seed = -1\n")
            argv += ["--config", str(cfg)]
        code, _, err = run(capsys, *argv)
        assert code == 1
        assert "seed must be >= 0" in err
        assert not model_path.exists()

    def test_standardization_overflow_is_data_error(self, tmp_path, capsys):
        data, model_path = tmp_path / "wide.csv", tmp_path / "m.json"
        data.write_text("x0,x1,label\n1e308,0,1\n-1e308,1,-1\n0,2,1\n")
        code, _, err = run(capsys, "train", "--data", str(data), "--out", str(model_path))
        assert code == 2
        assert "column 'x0' overflows: mean 0.0, std inf" in err
        assert not model_path.exists()

    def test_missing_data_file(self, tmp_path, capsys):
        code, _, err = run(
            capsys, "train", "--data", str(tmp_path / "none.csv"), "--out", str(tmp_path / "m.json")
        )
        assert code == 2

    @pytest.mark.parametrize(
        "reader, name, payload",
        [
            ("data", "bad_utf8.csv", b"x0,label\n1,1\n\xff,-1\n"),
            ("data", "long_field.csv", b'x0,label\n"' + b"1" * 200_000 + b'",1\n2,-1\n'),
            ("data", "truncated.csv.gz", gzip.compress(b"x0,label\n" + b"1,1\n2,-1\n" * 500)[:-40]),
            ("data", "directory", None),
            ("compare", "bad_utf8.csv", b"wilt,1,2\n\xff,3,4\n"),
            ("compare", "long_field.csv", b'wilt,1,2\n"' + b"1" * 200_000 + b'",3,4\n'),
            ("compare", "truncated.csv.gz", gzip.compress(b"wilt,1,2\n" * 500)[:-40]),
            ("compare", "directory", None),
            ("config", "bad_utf8.cfg", b"epochs = 2\n\xff = 1\n"),
            ("config", "truncated.cfg.gz", gzip.compress(b"epochs = 2\n" * 500)[:-40]),
            ("config", "directory", None),
        ],
        ids=["bad_utf8", "long_field", "truncated_gz", "directory",
             "compare_bad_utf8", "compare_long_field", "compare_truncated_gz", "compare_directory",
             "config_bad_utf8", "config_truncated_gz", "config_directory"],
    )
    def test_unreadable_data_file_is_data_error(self, tmp_path, small_xor_csv, capsys, reader,
                                                name, payload):
        path, model_path = tmp_path / name, tmp_path / "m.json"
        if payload is None:
            path.mkdir()
        else:
            path.write_bytes(payload)
        argv = {
            "data": ["train", "--data", str(path), "--out", str(model_path)],
            "compare": ["compare", "--results", str(path)],
            "config": ["train", "--data", small_xor_csv, "--out", str(model_path),
                       "--config", str(path)],
        }[reader]
        code, stdout, err = run(capsys, *argv)
        assert code == 2
        assert f"data error: cannot read {path}: " in err
        assert stdout == ""
        assert not model_path.exists()

    def test_missing_required_flag_is_usage_error(self, capsys):
        code, _, err = run(capsys, "train", "--data", "x.csv")
        assert code == 1

    @pytest.mark.parametrize("argv, unrecognized", [
        ("gen xor --out d.csv --noise 0.1", "--noise 0.1"),
        ("train --data d.csv --out m.json --epo 3 --dee", "--epo 3 --dee"),
    ])
    def test_abbreviated_flag_is_usage_error(self, tmp_path, capsys, monkeypatch, argv,
                                             unrecognized):
        """A prefix of a flag is not that flag: --noise is not --noise-std."""
        monkeypatch.chdir(tmp_path)
        code, stdout, err = run(capsys, *argv.split())
        assert code == 1
        assert err == f"usage error: unrecognized arguments: {unrecognized}\n"
        assert stdout == "" and os.listdir(tmp_path) == []


def _dataset_contents(path):
    d = load_table(path, label_column="label")
    return d.features.tolist(), d.labels.tolist(), d.feature_names


# What each text reader makes of a file: the dataset, the comparison report, the config
READ = {
    "data": _dataset_contents,
    "compare": lambda path: format_comparison_report(read_comparison_csv(path), "A", "B"),
    "config": _read_config_file,
}
TEXT = {
    "data": b"x0,x1,label\n1,2,1\n3,4,-1\n",
    "compare": b"m,1,2\nn,3,1\n",
    "config": b"max_depth = 3\ndeep = true\n",
}


@pytest.mark.parametrize("suffix", ["", ".gz"])
@pytest.mark.parametrize("reader", ["data", "compare", "config"])
def test_leading_bom_is_dropped(tmp_path, reader, suffix):
    """A file read with a UTF-8 byte-order mark reads as its copy without one; so does its .gz."""
    plain, bom = tmp_path / ("plain" + suffix), tmp_path / ("bom" + suffix)
    pack = gzip.compress if suffix else bytes
    plain.write_bytes(pack(TEXT[reader]))
    bom.write_bytes(pack(b"\xef\xbb\xbf" + TEXT[reader]))
    assert READ[reader](str(bom)) == READ[reader](str(plain))


# A value other than the default for each TrainConfig field, cheap to train with.
FIELD_VALUES = {"max_depth": 3, "min_leaf": 2, "deep": True, "epochs": 3, "batch_size": 50,
                "learning_rate": 0.02, "l2": 0.001, "seed": 5, "max_rules": 2,
                "early_stop_patience": 4}


class TestConfigFields:
    """Every TrainConfig field is a flag and a config-file key of train and cv."""

    @pytest.mark.parametrize("source", ["flag", "config"])
    @pytest.mark.parametrize("command", ["train", "cv"])
    @pytest.mark.parametrize("name", [f.name for f in dataclasses.fields(TrainConfig)])
    def test_field_reaches_the_config(self, tmp_path, small_xor_csv, capsys, name, command,
                                      source):
        value, out = FIELD_VALUES[name], tmp_path / "out.json"
        argv = [command, "--data", small_xor_csv, "--out", str(out)]
        argv += ["--k", "2"] if command == "cv" else []
        argv += [] if name == "epochs" else ["--epochs", "2"]
        if source == "flag":
            flag = "--" + name.replace("_", "-")
            argv += [flag] if value is True else [flag, str(value)]
        else:
            cfg = tmp_path / "nre.cfg"
            cfg.write_text(f"{name} = {value}\n")
            argv += ["--config", str(cfg)]
        code, _, _ = run(capsys, *argv)
        assert code == 0
        if command == "train":
            config = dataclasses.asdict(load_model(out).config)
        else:
            config = json.loads(out.read_text())["config"]
        assert config[name] == value and type(config[name]) is type(value)


class TestDepthBound:
    """Trees as deep as ``MAX_DEPTH``, grown from data whose tree is a chain of splits."""

    @pytest.fixture
    def chain_csv(self, tmp_path):
        path = tmp_path / "chain.csv"
        _write_dataset_csv(chain_dataset(300), path)
        return str(path)

    def test_deepest_tree_trains_saves_and_evaluates(self, tmp_path, chain_csv, capsys):
        model_path = tmp_path / "m.json"
        code, _, _ = run(capsys, "train", "--data", chain_csv, "--out", str(model_path),
                         "--max-depth", str(MAX_DEPTH), "--max-rules", "1", "--epochs", "1")
        assert code == 0
        assert load_model(model_path).source_tree.depth() == MAX_DEPTH
        code, stdout, _ = run(capsys, "eval", "--model", str(model_path), "--data", chain_csv)
        assert code == 0
        assert "(300 samples)" in stdout

    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_deeper_is_usage_error_before_reading_data(self, tmp_path, capsys, source):
        model_path = tmp_path / "m.json"
        argv = ["train", "--data", str(tmp_path / "none.csv"), "--out", str(model_path)]
        if source == "flag":
            argv += ["--max-depth", str(MAX_DEPTH + 1)]
        else:
            cfg = tmp_path / "nre.cfg"
            cfg.write_text(f"max_depth = {MAX_DEPTH + 1}\n")
            argv += ["--config", str(cfg)]
        code, _, err = run(capsys, *argv)
        assert code == 1
        assert f"max_depth must be between 1 and {MAX_DEPTH}" in err
        assert not model_path.exists()

    def test_model_file_past_the_bound_is_format_error(self, tmp_path, chain_csv, capsys):
        model_path = tmp_path / "m.json"
        run(capsys, "train", "--data", chain_csv, "--out", str(model_path),
            "--max-depth", "2", "--epochs", "1")
        payload = json.loads(model_path.read_text())
        payload.pop("checksum")
        payload["config"]["max_depth"] = MAX_DEPTH + 1
        payload["checksum"] = hashlib.sha256(_canonical(payload).encode()).hexdigest()
        model_path.write_text(_canonical(payload))
        with pytest.raises(ModelFormatError, match="max_depth"):
            load_model(model_path)
        code, _, err = run(capsys, "eval", "--model", str(model_path), "--data", chain_csv)
        assert code == 2


class TestPredictEval:
    @pytest.fixture
    def trained(self, tmp_path, small_xor_csv, capsys):
        model_path = tmp_path / "model.json"
        run(capsys, "train", "--data", small_xor_csv, "--out", str(model_path),
            "--max-depth", "4", "--epochs", "30", "--seed", "1")
        return str(model_path)

    def test_predict_writes_scores(self, tmp_path, small_xor_csv, trained, capsys):
        out = tmp_path / "preds.csv"
        code, _, _ = run(capsys, "predict", "--model", trained, "--data", small_xor_csv,
                         "--out", str(out))
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "score,prediction"
        assert len(lines) == 201
        assert all(ln.split(",")[1] in ("1", "-1") for ln in lines[1:])

    def test_eval_prints_percent(self, small_xor_csv, trained, capsys):
        code, stdout, _ = run(capsys, "eval", "--model", trained, "--data", small_xor_csv)
        assert code == 0
        assert re.search(r"error: \d+\.\d\d% \(200 samples\)", stdout)


class TestCv:
    def test_five_folds_and_mean(self, tmp_path, small_xor_csv, capsys):
        out = tmp_path / "report.json"
        code, stdout, _ = run(
            capsys, "cv", "--data", small_xor_csv, "--k", "5",
            "--max-depth", "2", "--epochs", "5", "--out", str(out),
        )
        assert code == 0
        fold_lines = [ln for ln in stdout.splitlines() if ln.startswith("fold")]
        assert len(fold_lines) == 5
        report = json.loads(out.read_text())
        assert len(report["fold_errors"]) == 5
        assert report["mean"] == pytest.approx(float(np.mean(report["fold_errors"])))
        assert min(report["fold_errors"]) <= report["mean"] <= max(report["fold_errors"])

    def test_deterministic_output(self, small_xor_csv, capsys):
        args = ["cv", "--data", small_xor_csv, "--k", "3", "--max-depth", "2", "--epochs", "4"]
        code1, out1, _ = run(capsys, *args)
        code2, out2, _ = run(capsys, *args)
        strip = lambda s: "\n".join(ln for ln in s.splitlines() if "s)" not in ln)
        assert code1 == code2 == 0
        assert strip(out1) == strip(out2)  # identical up to wall time

    @pytest.mark.parametrize("k", ["0", "1"])
    def test_fewer_than_two_folds_is_usage_error(self, tmp_path, capsys, k):
        # checked as it is parsed: a missing data file is not even looked for
        code, _, err = run(capsys, "cv", "--data", str(tmp_path / "none.csv"), "--k", k)
        assert code == 1
        assert "usage error: argument --k: must be an integer >= 2" in err

    def test_more_folds_than_rows_is_data_error(self, small_xor_csv, capsys):
        code, _, err = run(capsys, "cv", "--data", small_xor_csv, "--k", "100000")
        assert code == 2
        assert "folds" in err

    def test_huge_fold_count_is_not_echoed(self, small_xor_csv, capsys):
        code, _, err = run(capsys, "cv", "--data", small_xor_csv, "--k", "9" * 400)
        assert code == 2
        assert "cannot split 200 samples into more than 200 folds" in err
        assert all(len(line) < 200 for line in err.splitlines())

    @pytest.mark.parametrize("grid", [[], ["--grid"]])
    def test_rule_less_folds_warn_once(self, tmp_path, capsys, grid):
        """Every fold of a constant feature is rule-less: one warning line, no source line."""
        data = tmp_path / "flat.csv"
        data.write_text("a,label\n" + "".join(f"1,{1 - 2 * (i % 2)}\n" for i in range(12)))
        code, stdout, err = run(capsys, "cv", "--data", str(data), "--k", "3", "--epochs", "2",
                                *grid)
        assert code == 0
        assert err == "warning: tree degenerated to a single leaf; returning a constant model\n"
        assert "mean error 50.00%" in stdout

    def test_grid_sweeps_depths(self, small_xor_csv, capsys):
        code, stdout, _ = run(
            capsys, "cv", "--data", small_xor_csv, "--k", "2", "--grid", "--epochs", "2"
        )
        assert code == 0
        for depth in (2, 4, 6, 8, 10):
            assert f"depth {depth:2d}:" in stdout
        assert "best depth:" in stdout

    def test_grid_trains_each_depth_once(self, small_xor_csv, capsys, monkeypatch):
        """The best depth's fold lines come from the sweep: 5 depths x k folds,
        and the same fold lines as a plain run at that depth."""
        calls = []
        real_train = cli.nre_train

        def counting_train(d, cfg, trace=None):
            calls.append(cfg)
            return real_train(d, cfg, trace)

        monkeypatch.setattr(cli, "nre_train", counting_train)
        code, stdout, _ = run(capsys, "cv", "--data", small_xor_csv, "--k", "3", "--grid",
                              "--epochs", "2")
        assert code == 0
        assert sorted(c.max_depth for c in calls) == sorted([2, 4, 6, 8, 10] * 3)
        best = int(re.search(r"best depth: (\d+)", stdout).group(1))
        folds = lambda out: [ln for ln in out.splitlines() if ln.startswith("fold")]
        _, plain, _ = run(capsys, "cv", "--data", small_xor_csv, "--k", "3", "--epochs", "2",
                          "--max-depth", str(best))
        assert len(folds(stdout)) == 3 and folds(stdout) == folds(plain)


def test_readme_command_lines_parse():
    """Every ``nre`` line of the README's command-line block parses."""
    with open(os.path.join(os.path.dirname(__file__), "..", "README.md"), encoding="utf-8") as fh:
        readme = fh.read()
    block = readme.split("## Command line", 1)[1].split("```bash\n", 1)[1].split("```", 1)[0]
    lines = [ln.strip() for ln in block.replace("\\\n", " ").splitlines()]
    commands = [shlex.split(ln)[1:] for ln in lines if ln.startswith("nre ")]
    assert len(commands) == 11
    for argv in commands:
        build_parser().parse_args(argv)  # a flag the parser lacks raises UsageError


class TestCompare:
    def write_csv(self, tmp_path, rows):
        p = tmp_path / "results.csv"
        p.write_text(
            "dataset,error_a,error_b\n"
            + "\n".join(f"{n},{a},{b}" for n, a, b in rows)
            + "\n"
        )
        return str(p)

    def test_gb_table_report(self, tmp_path, capsys):
        path = self.write_csv(tmp_path, GB_VS_NRE)
        code, stdout, _ = run(capsys, "compare", "--results", path,
                              "--label-a", "GB", "--label-b", "NRE")
        assert code == 0
        assert "T = 81" in stdout
        assert "fail to reject" in stdout
        assert "NRE wins = 8" in stdout

    def test_rf_table_rejects(self, tmp_path, capsys):
        path = self.write_csv(tmp_path, RF_VS_NRE)
        code, stdout, _ = run(capsys, "compare", "--results", path, "--test", "wilcoxon")
        assert code == 0
        assert "T = 13.5" in stdout
        assert "-> reject" in stdout

    def test_single_row_no_rejection(self, tmp_path, capsys):
        path = self.write_csv(tmp_path, [("only", 5.0, 1.0)])
        code, stdout, _ = run(capsys, "compare", "--results", path)
        assert code == 0
        assert "critical = n/a" in stdout
        assert "fail to reject" in stdout

    def test_malformed_csv_is_data_error(self, tmp_path, capsys):
        p = tmp_path / "bad.csv"
        p.write_text("dataset,error_a,error_b\nwilt,abc,1.0\n")
        code, _, err = run(capsys, "compare", "--results", str(p))
        assert code == 2

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_error_is_data_error(self, tmp_path, capsys, value):
        rows = [(f"d{i}", 1.0 + i, 2.0) for i in range(4)] + [("wilt", value, 1.0)]
        path = self.write_csv(tmp_path, rows)
        code, stdout, err = run(capsys, "compare", "--results", path)
        assert code == 2
        assert stdout == ""
        assert "non-finite error value for dataset 'wilt'" in err

    def test_golden_reports_match_fixture(self, tmp_path, capsys):
        with open(COMPARE_REPORTS, encoding="utf-8") as fh:
            _, *sections = re.split(r"^### (.*)\n", fh.read(), flags=re.M)
        expected = dict(zip(sections[::2], sections[1::2]))
        assert len(expected) == 9
        tables = {"GB_VS_NRE": GB_VS_NRE, "RF_VS_NRE": RF_VS_NRE, "ANN_VS_NRE": ANN_VS_NRE}
        for header, report in expected.items():
            name, *flags = header.split()
            path = self.write_csv(tmp_path, tables[name])
            code, stdout, _ = run(capsys, "compare", "--results", path, *flags)
            assert code == 0
            assert stdout == report, header


class TestPlot:
    @pytest.fixture
    def trained(self, tmp_path, small_xor_csv, capsys):
        model_path = tmp_path / "model.json"
        run(capsys, "train", "--data", small_xor_csv, "--out", str(model_path),
            "--max-depth", "4", "--epochs", "20", "--seed", "1",
            "--checkpoint-at", "0")
        return str(model_path)

    def test_svg_structure(self, tmp_path, small_xor_csv, trained, capsys):
        out = tmp_path / "plot.svg"
        code, _, _ = run(capsys, "plot", "--model", trained, "--data", small_xor_csv,
                         "--out", str(out), "--grid-resolution", "40")
        assert code == 0
        root = ET.fromstring(out.read_text())
        tags = [el.tag.split("}")[-1] for el in root.iter()]
        assert tags.count("circle") == 200
        assert tags.count("rect") > 1  # background + painted cells

    def test_grid_classification_agrees_with_predict(self, small_xor_csv, trained):
        model = load_model(trained)
        d = load_table(small_xor_csv, label_column="label")
        from nre.plotting import data_bounds

        bounds = data_bounds(d.features)
        centers, _, _ = grid_points(bounds, 30)
        vals = nre_score_batch(model, centers)
        rng = np.random.default_rng(0)
        for i in rng.integers(0, centers.shape[0], size=100):
            if vals[i] != 0.0:
                assert (1 if vals[i] > 0 else -1) == nre_predict(model, centers[i])

    def test_rule_index_plot(self, tmp_path, small_xor_csv, trained, capsys):
        out = tmp_path / "rule.svg"
        code, _, _ = run(capsys, "plot", "--model", trained, "--data", small_xor_csv,
                         "--out", str(out), "--rule-index", "0", "--grid-resolution", "30")
        assert code == 0
        assert out.exists()

    def test_bad_rule_index(self, tmp_path, small_xor_csv, trained, capsys):
        code, _, err = run(capsys, "plot", "--model", trained, "--data", small_xor_csv,
                           "--out", str(tmp_path / "x.svg"), "--rule-index", "99")
        assert code == 2

    def test_at_iteration_uses_checkpoint(self, tmp_path, small_xor_csv, trained, capsys):
        out = tmp_path / "init.svg"
        code, _, _ = run(capsys, "plot", "--model", trained, "--data", small_xor_csv,
                         "--out", str(out), "--at-iteration", "0", "--grid-resolution", "20")
        assert code == 0

    def test_empty_support_gives_points_only(self, tmp_path, small_xor_csv, capsys):
        # a rule whose support sits far outside the plotted bounds paints nothing
        rule = NeuralRule((0, 1), np.array([[1.0, 0.0]]), np.array([-1000.0]), None, None, 1.0)
        d = load_table(small_xor_csv, label_column="label")
        tree = build_tree(
            Dataset(np.array([[0.0, 0.0], [1.0, 1.0]]), np.array([1, -1]), ("x0", "x1")),
            max_depth=1,
        )
        model = NREModel(
            StandardizationParams(np.zeros(2), np.ones(2)), [rule], TrainConfig(), tree
        )
        mpath = tmp_path / "far.json"
        save_model(model, mpath)
        out = tmp_path / "empty.svg"
        code, _, _ = run(capsys, "plot", "--model", str(mpath), "--data", small_xor_csv,
                         "--out", str(out), "--grid-resolution", "25")
        assert code == 0
        root = ET.fromstring(out.read_text())
        tags = [el.tag.split("}")[-1] for el in root.iter()]
        assert tags.count("rect") == 1  # white background only
        assert tags.count("circle") == 200

    def test_non_2d_data_rejected(self, tmp_path, trained, capsys):
        p = tmp_path / "d3.csv"
        p.write_text("a,b,c,label\n1,2,3,1\n4,5,6,-1\n")
        code, _, err = run(capsys, "plot", "--model", trained, "--data", str(p),
                           "--out", str(tmp_path / "x.svg"))
        assert code == 2

    @pytest.mark.parametrize(
        "option, value",
        [
            ("--bounds", "a,b,c,d"),
            ("--bounds", "0,0,0,1"),
            ("--grid-resolution", "0"),
            ("--grid-resolution", "-3"),
            ("--rule-index", "-1"),
            ("--at-iteration", "-1"),
        ],
    )
    def test_bad_plot_option_is_usage_error(self, tmp_path, small_xor_csv, trained, capsys,
                                            option, value):
        out = tmp_path / "x.svg"
        code, _, err = run(capsys, "plot", "--model", trained, "--data", small_xor_csv,
                           "--out", str(out), option, value)
        assert code == 1
        assert option in err
        assert not out.exists()

    def test_points_outside_the_bounds_are_not_drawn(self, tmp_path, small_xor_csv, trained,
                                                    capsys):
        out = tmp_path / "x.svg"
        code, _, _ = run(capsys, "plot", "--model", trained, "--data", small_xor_csv,
                         "--out", str(out), "--bounds", "0,1e-310,0,1", "--grid-resolution", "5")
        assert code == 0
        svg = out.read_text()
        assert "inf" not in svg and "nan" not in svg
        x = load_table(small_xor_csv, label_column="label").features
        inside = (0 <= x[:, 0]) & (x[:, 0] <= 1e-310) & (0 <= x[:, 1]) & (x[:, 1] <= 1)
        assert svg.count("<circle") == np.count_nonzero(inside)

    def test_bounds_past_the_float_range_are_named(self, tmp_path, trained, capsys):
        data, out = tmp_path / "wide.csv", tmp_path / "x.svg"
        data.write_text("x0,x1,label\n1e308,0,1\n-1e308,1,-1\n0,2,1\n")
        code, _, err = run(capsys, "plot", "--model", trained, "--data", str(data),
                           "--out", str(out), "--grid-resolution", "5")
        assert code == 2
        assert "plot bounds (-inf, inf, -0.5, 2.5) need finite values" in err
        assert "row" not in err
        assert not out.exists()

    def test_numeric_failure_is_exit_3(self, tmp_path, small_xor_csv, trained, capsys,
                                       monkeypatch):
        def overflow(model, points):
            raise FloatingPointError("overflow in scoring")

        monkeypatch.setattr("nre.cli.nre_score_batch", overflow)
        code, _, err = run(capsys, "plot", "--model", trained, "--data", small_xor_csv,
                           "--out", str(tmp_path / "x.svg"), "--grid-resolution", "20")
        assert code == 3
        assert "FloatingPointError" in err


class TestFetchCommand:
    def test_fetch_with_local_server(self, tmp_path, capsys, local_http_dataset_server):
        base_url, _ = local_http_dataset_server
        out = tmp_path / "toy.csv"
        code, stdout, _ = run(
            capsys, "fetch", "toyset", "--cache-dir", str(tmp_path / "cache"),
            "--base-url", base_url, "--out", str(out),
        )
        assert code == 0
        assert "N=4, p=2" in stdout
        assert out.exists()

    @pytest.mark.parametrize("name", ["../escape", "a/escape", "..", "."])
    def test_name_outside_the_cache_is_data_error(self, tmp_path, capsys, monkeypatch, name):
        monkeypatch.setattr("urllib.request.urlopen", lambda *a, **k: pytest.fail("network used"))
        cache = tmp_path / "cache"
        (tmp_path / "escape.tsv").write_text("f\ttarget\n1\t0\n2\t1\n")
        code, stdout, err = run(capsys, "fetch", name, "--cache-dir", str(cache),
                                "--base-url", "http://127.0.0.1:1/x")
        assert code == 2
        assert f"dataset name {name!r} must be a single path component" in err
        assert stdout == ""
        assert not cache.exists()

    def test_cache_dir_env_var(self, tmp_path, capsys, local_http_dataset_server, monkeypatch):
        base_url, _ = local_http_dataset_server
        cache = tmp_path / "envcache"
        monkeypatch.setenv("NRE_CACHE_DIR", str(cache))
        code, _, _ = run(capsys, "fetch", "toyset", "--base-url", base_url)
        assert code == 0
        assert (cache / "toyset.tsv.gz").exists()

    def test_config_file_supplies_url_and_cache(self, tmp_path, capsys, local_http_dataset_server):
        base_url, _ = local_http_dataset_server
        cfg = tmp_path / "fetch.cfg"
        cache = tmp_path / "cfgcache"
        cfg.write_text(f"pmlb_base_url = {base_url}\ncache_dir = {cache}\n")
        code, _, _ = run(capsys, "fetch", "toyset", "--config", str(cfg))
        assert code == 0
        assert (cache / "toyset.tsv.gz").exists()

    def test_console_entry_point_installed(self):
        import os
        import subprocess
        import sys

        import nre

        # the package the tests import, also when pytest found it through its pythonpath
        path = [os.path.dirname(os.path.dirname(nre.__file__)), os.environ.get("PYTHONPATH")]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
        proc = subprocess.run(
            [sys.executable, "-m", "nre", "--help"], capture_output=True, text=True, env=env
        )
        assert proc.returncode == 0
        assert "gen" in proc.stdout and "compare" in proc.stdout


class TestGridConvexity:
    def test_convex_mask_passes(self):
        yy, xx = np.mgrid[0:30, 0:30]
        disk = (yy - 15) ** 2 + (xx - 15) ** 2 <= 64
        assert grid_convexity_check(disk)

    def test_two_blobs_fail(self):
        mask = np.zeros((30, 30), dtype=bool)
        mask[2:6, 2:6] = True
        mask[20:26, 20:26] = True
        assert not grid_convexity_check(mask)

    def test_dented_region_fails(self):
        mask = np.zeros((30, 30), dtype=bool)
        mask[5:25, 5:25] = True
        mask[5:18, 12:18] = False  # bite a channel out of one side
        assert not grid_convexity_check(mask)

    def test_tiny_supports_pass(self):
        mask = np.zeros((10, 10), dtype=bool)
        assert grid_convexity_check(mask)
        mask[3, 3] = True
        assert grid_convexity_check(mask)
