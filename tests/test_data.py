import csv
import gzip
import io
import math
import os
import re
import tempfile
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nre.data import (
    Dataset,
    fetch_pmlb,
    gen_linear_separable,
    gen_madelon_like,
    gen_rotated_xor,
    load_table,
    standardize_apply,
    standardize_fit,
    stratified_kfold,
)
from nre.errors import DataError
from reference_oracle import reference_load_table


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


class TestLoadTable:
    def test_relabels_two_classes_in_row_order(self, tmp_path):
        p = write(tmp_path / "t.csv", "f1,f2,cls\n1,2,yes\n3,4,no\n5,6,yes\n")
        d = load_table(p, label_column="cls", positive_label="yes")
        assert d.n_samples == 3 and d.n_features == 2
        assert d.feature_names == ("f1", "f2")
        assert d.labels.tolist() == [1, -1, 1]
        assert d.features[1].tolist() == [3.0, 4.0]

    def test_label_column_by_index(self, tmp_path):
        p = write(tmp_path / "t.csv", "cls,f1\nyes,1\nno,2\n")
        d = load_table(p, label_column=0, positive_label="yes")
        assert d.feature_names == ("f1",)
        assert d.labels.tolist() == [1, -1]

    def test_three_classes_rejected(self, tmp_path):
        p = write(tmp_path / "t.csv", "f,cls\n1,a\n2,b\n3,c\n")
        with pytest.raises(DataError, match="more than two classes"):
            load_table(p, label_column="cls", positive_label="a")

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError, match="no such file"):
            load_table(str(tmp_path / "absent.csv"), label_column="cls")

    def test_non_numeric_feature_cell(self, tmp_path):
        p = write(tmp_path / "t.csv", "f,cls\n1,a\noops,b\n")
        with pytest.raises(DataError, match="non-numeric"):
            load_table(p, label_column="cls", positive_label="a")

    def test_empty_file(self, tmp_path):
        p = write(tmp_path / "t.csv", "")
        with pytest.raises(DataError, match="empty"):
            load_table(p, label_column="cls")

    def test_header_only(self, tmp_path):
        p = write(tmp_path / "t.csv", "f,cls\n")
        with pytest.raises(DataError, match="no data rows"):
            load_table(p, label_column="cls")

    def test_missing_label_column(self, tmp_path):
        p = write(tmp_path / "t.csv", "f,cls\n1,a\n")
        with pytest.raises(DataError, match="not in header"):
            load_table(p, label_column="target")

    def test_tsv_delimiter_from_extension(self, tmp_path):
        p = write(tmp_path / "t.tsv", "f1\tf2\ttarget\n1\t2\t0\n3\t4\t1\n")
        d = load_table(p, label_column="target", positive_label=1)
        assert d.features.tolist() == [[1.0, 2.0], [3.0, 4.0]]
        assert d.labels.tolist() == [-1, 1]

    def test_gzip_transparent(self, tmp_path):
        p = tmp_path / "t.tsv.gz"
        p.write_bytes(gzip.compress(b"f\ttarget\n1\t0\n2\t1\n"))
        d = load_table(str(p), label_column="target", positive_label=1)
        assert d.labels.tolist() == [-1, 1]

    def test_auto_positive_label_picks_larger_value(self, tmp_path):
        p = write(tmp_path / "t.csv", "f,target\n1,0\n2,1\n")
        d = load_table(p, label_column="target")
        assert d.labels.tolist() == [-1, 1]

    def test_positive_label_absent(self, tmp_path):
        p = write(tmp_path / "t.csv", "f,cls\n1,a\n2,b\n")
        with pytest.raises(DataError, match="positive label"):
            load_table(p, label_column="cls", positive_label="z")

    @pytest.mark.parametrize(
        "text, message",
        [
            # the ragged row wins over an earlier bad cell
            ("f,g,cls\nx,2,a\n3,4,b\n5,6,a\n7,b\n", "row 5 has 2 cells, expected 3"),
            # so does a third class
            ("f,cls\n1,a\nx,b\n2,c\n", "more than two classes"),
            # the first bad row is reported, at its first bad cell
            ("f,g,cls\n1,2,a\n3,y,b\nz,6,a\n", "non-numeric value 'y' at row 3, column 'g'"),
        ],
        ids=["ragged_row", "third_class", "first_bad_row"],
    )
    def test_bad_cell_reported_after_width_and_class_checks(self, tmp_path, text, message):
        p = write(tmp_path / "t.csv", text)
        with pytest.raises(DataError, match=re.escape(message)):
            load_table(p, label_column="cls")

    @pytest.mark.parametrize(
        "name, payload",
        [
            ("bad_utf8.csv", b"f,cls\n1,a\n\xff,b\n"),
            ("long_field.csv", b'f,cls\n"' + b"1" * 200_000 + b'",a\n2,b\n'),
            ("truncated.csv.gz", gzip.compress(b"f,cls\n" + b"1,a\n2,b\n" * 500)[:-40]),
            ("plain.csv.gz", b"f,cls\n1,a\n2,b\n"),
            ("corrupt.csv.gz", gzip.compress(b"")[:10] + b"\xff" * 20),
        ],
        ids=["bad_utf8", "long_field", "truncated_gz", "not_gz", "corrupt_gz"],
    )
    def test_reading_fault_is_data_error(self, tmp_path, name, payload):
        p = tmp_path / name
        p.write_bytes(payload)
        with pytest.raises(DataError, match=f"cannot read {re.escape(str(p))}: "):
            load_table(str(p), label_column="cls")

    def test_peak_memory_near_the_feature_matrix(self, tmp_path):
        rng = np.random.default_rng(7)
        X = rng.normal(size=(1000, 300))
        lines = [",".join([f"x{j}" for j in range(300)] + ["cls"])]
        lines += [",".join(map(repr, row)) + f",{i % 2}" for i, row in enumerate(X.tolist())]
        p = write(tmp_path / "t.csv", "\n".join(lines) + "\n")
        tracemalloc.start()
        try:
            d = load_table(p, label_column="cls")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        np.testing.assert_array_equal(d.features, X)
        assert peak <= 3 * d.features.nbytes

    def test_relabel_involution(self, tmp_path):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(20, 3))
        y = np.where(rng.random(20) > 0.5, 1, -1)
        y[0], y[1] = 1, -1
        d = Dataset(X, y, ("a", "b", "c"))
        lines = ["a,b,c,cls"]
        for row, lab in zip(d.features, d.labels):
            raw = "pos" if lab == 1 else "neg"
            lines.append(",".join(repr(float(v)) for v in row) + f",{raw}")
        p = write(tmp_path / "t.csv", "\n".join(lines) + "\n")
        d2 = load_table(p, label_column="cls", positive_label="pos")
        np.testing.assert_array_equal(d.features, d2.features)
        np.testing.assert_array_equal(d.labels, d2.labels)
        assert d.feature_names == d2.feature_names


_GOOD_CELLS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(-3, 3).map(str),
    st.sampled_from(["-0.0", " 1.5 ", "  -2", "1e3 ", "+.5", "5.", "1_000", "١"]),
)
_BAD_CELLS = st.sampled_from(
    ["", " ", "abc", "1,5", "1\t5", "1.2.3", "0x1", "--1", "\xa0", "1 2", "inf", "nan"]
)
_LABEL_PAIRS = st.sampled_from(
    [("0", "1"), ("-1", "1"), ("1", "2.0"), (" 1", "1.0"), ("no", "yes"), ("a,b", 'q"t')]
)
_NAMES = st.text(alphabet='ab ,\t"', max_size=4)
_SOMETIMES = st.sampled_from([False, False, False, True])


@st.composite
def delimited_tables(draw):
    """A table file's text and suffix, and the label arguments to load it with.

    Cells are numbers, padded numbers, -0.0 and sometimes quoted; names and
    labels may hold the delimiter or a quote. A table may carry blank lines, a
    third class, a bad cell or a ragged row anywhere.
    """
    suffix = draw(st.sampled_from([".csv", ".tsv", ".tab", ".csv.gz", ".tsv.gz"]))
    n_rows, n_cols = draw(st.sampled_from(range(7))), draw(st.sampled_from(range(1, 7)))
    label_idx = draw(st.integers(0, n_cols - 1))
    classes = list(draw(_LABEL_PAIRS))
    if draw(_SOMETIMES):
        classes.append("third")
    header = draw(st.lists(_NAMES, min_size=n_cols, max_size=n_cols))
    rows = [header]
    for _ in range(n_rows):
        row = draw(st.lists(_GOOD_CELLS, min_size=n_cols, max_size=n_cols))
        row[label_idx] = draw(st.sampled_from(classes[:2] if len(classes) == 3 else classes))
        rows.append(row)
    if n_rows and draw(st.booleans()):
        rows[draw(st.integers(1, n_rows))][label_idx] = classes[-1]
    if n_rows and draw(st.booleans()):
        row = rows[draw(st.integers(1, n_rows))]
        row[draw(st.integers(0, n_cols - 1))] = draw(_BAD_CELLS)
    if n_rows and draw(_SOMETIMES):
        row = rows[draw(st.integers(1, n_rows))]
        if draw(st.booleans()):
            row.append("0")
        else:
            row.pop()
    buf = io.StringIO()
    quoting = draw(st.sampled_from([csv.QUOTE_MINIMAL, csv.QUOTE_ALL]))
    delimiter = "," if suffix.startswith(".csv") else "\t"
    writer = csv.writer(buf, delimiter=delimiter, quoting=quoting, lineterminator="\n")
    lines = []
    for row in rows:
        writer.writerow(row)
        lines.append(buf.getvalue())
        buf.seek(0)
        buf.truncate()
        if draw(st.booleans()):
            lines.append("\n")  # a blank line
    label_column = "missing" if draw(_SOMETIMES) else header[label_idx].strip()
    label_column = label_idx if draw(st.booleans()) else label_column
    positive_label = "absent" if draw(_SOMETIMES) else draw(st.sampled_from([None, *classes[:2]]))
    return "".join(lines), suffix, label_column, positive_label


def _load_outcome(loader, path, label_column, positive_label):
    try:
        d = loader(path, label_column, positive_label)
    except DataError as e:
        return "error", str(e)
    return "ok", d.features.tobytes(), d.features.shape, d.labels.tolist(), d.feature_names


class TestLoadTableMatchesReference:
    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(table=delimited_tables())
    def test_same_dataset_or_same_error(self, table):
        text, suffix, label_column, positive_label = table
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "t" + suffix)
            opener = gzip.open if suffix.endswith(".gz") else open
            with opener(path, "wt", encoding="utf-8", newline="") as fh:
                fh.write(text)
            got = _load_outcome(load_table, path, label_column, positive_label)
            want = _load_outcome(reference_load_table, path, label_column, positive_label)
        assert got == want


class TestDatasetInvariants:
    def test_bad_labels_rejected(self):
        with pytest.raises(DataError, match="labels"):
            Dataset(np.ones((2, 1)), np.array([1, 0]), ("f",))

    def test_nan_features_rejected(self):
        with pytest.raises(DataError, match="NaN"):
            Dataset(np.array([[np.nan], [1.0]]), np.array([1, -1]), ("f",))

    def test_immutable_once_built(self):
        d = Dataset(np.ones((2, 1)), np.array([1, -1]), ("f",))
        with pytest.raises(ValueError):
            d.features[0, 0] = 2.0


class TestStandardize:
    def test_simple_column(self):
        d = Dataset(np.array([[1.0], [2.0], [3.0]]), np.array([1, -1, 1]), ("f",))
        s = standardize_fit(d)
        assert s.means[0] == pytest.approx(2.0)
        assert s.stds[0] == pytest.approx(math.sqrt(2.0 / 3.0))

    def test_constant_column_clamped(self):
        d = Dataset(np.full((3, 1), 5.0), np.array([1, -1, 1]), ("f",))
        s = standardize_fit(d)
        assert s.means[0] == 5.0 and s.stds[0] == 1.0

    def test_idempotent_on_standardized_data(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(50, 2))
        d = Dataset(X, np.where(rng.random(50) > 0.5, 1, -1), ("a", "b"))
        once = standardize_apply(d, standardize_fit(d))
        s = standardize_fit(once)
        np.testing.assert_allclose(s.means, 0.0, atol=1e-12)
        np.testing.assert_allclose(s.stds, 1.0, atol=1e-12)

    def test_fit_apply_normalizes(self):
        rng = np.random.default_rng(4)
        X = rng.normal(2.0, 3.0, size=(40, 3))
        d = Dataset(X, np.where(rng.random(40) > 0.5, 1, -1), ("a", "b", "c"))
        out = standardize_apply(d, standardize_fit(d))
        np.testing.assert_allclose(out.features.mean(axis=0), 0.0, atol=1e-9)
        np.testing.assert_allclose(out.features.std(axis=0), 1.0, atol=1e-9)
        np.testing.assert_array_equal(out.labels, d.labels)

    def test_identity_params(self):
        d = Dataset(np.array([[1.0, 2.0]]), np.array([1]), ("a", "b"))
        s = standardize_fit(Dataset(np.zeros((2, 2)), np.array([1, -1]), ("a", "b")))
        out = standardize_apply(d, s)  # means 0, stds clamped to 1
        np.testing.assert_array_equal(out.features, d.features)

    def test_holdout_apply_matches_scalar_oracle(self):
        rng = np.random.default_rng(5)
        train = Dataset(
            rng.normal(1.0, 2.0, size=(30, 2)),
            np.where(rng.random(30) > 0.5, 1, -1),
            ("a", "b"),
        )
        test = Dataset(
            rng.normal(1.0, 2.0, size=(10, 2)),
            np.where(rng.random(10) > 0.5, 1, -1),
            ("a", "b"),
        )
        s = standardize_fit(train)
        out = standardize_apply(test, s)
        for i in range(test.n_samples):
            for j in range(2):
                expected = (test.features[i, j] - s.means[j]) / s.stds[j]
                assert out.features[i, j] == expected

    def test_inversion_recovers_input(self):
        rng = np.random.default_rng(6)
        X = rng.normal(5.0, 7.0, size=(25, 3))
        d = Dataset(X, np.where(rng.random(25) > 0.5, 1, -1), ("a", "b", "c"))
        s = standardize_fit(d)
        out = standardize_apply(d, s)
        back = out.features * s.stds + s.means
        np.testing.assert_allclose(back, X, rtol=1e-9)

    def test_dimension_mismatch(self):
        d = Dataset(np.ones((2, 2)), np.array([1, -1]), ("a", "b"))
        s = standardize_fit(Dataset(np.ones((2, 1)), np.array([1, -1]), ("a",)))
        with pytest.raises(DataError, match="columns"):
            standardize_apply(d, s)


class TestStratifiedKFold:
    def make(self, n_pos, n_neg):
        n = n_pos + n_neg
        y = np.array([1] * n_pos + [-1] * n_neg)
        return Dataset(np.arange(n, dtype=float)[:, None], y, ("f",))

    def test_exact_divisibility(self):
        d = self.make(5, 5)
        fa = stratified_kfold(d, 5, seed=0)
        for fold in range(5):
            labs = d.labels[fa.test_indices(fold)]
            assert (labs == 1).sum() == 1 and (labs == -1).sum() == 1

    def test_deterministic(self):
        d = self.make(7, 6)
        a = stratified_kfold(d, 4, seed=9)
        b = stratified_kfold(d, 4, seed=9)
        np.testing.assert_array_equal(a.fold_index, b.fold_index)

    def test_uneven_split_counts(self):
        d = self.make(7, 3)
        fa = stratified_kfold(d, 2, seed=1)
        pos_counts = sorted(
            int((d.labels[fa.test_indices(f)] == 1).sum()) for f in range(2)
        )
        neg_counts = sorted(
            int((d.labels[fa.test_indices(f)] == -1).sum()) for f in range(2)
        )
        assert pos_counts == [3, 4]
        assert neg_counts == [1, 2]

    def test_partition_properties(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            n_pos = int(rng.integers(3, 30))
            n_neg = int(rng.integers(3, 30))
            k = int(rng.integers(2, 6))
            d = self.make(n_pos, n_neg)
            fa = stratified_kfold(d, k, seed=int(rng.integers(1000)))
            assert fa.fold_index.min() >= 0 and fa.fold_index.max() < k
            sizes = [fa.test_indices(f).size for f in range(k)]
            assert sum(sizes) == d.n_samples
            assert all(s >= 1 for s in sizes)
            for cls in (-1, 1):
                counts = [
                    int((d.labels[fa.test_indices(f)] == cls).sum()) for f in range(k)
                ]
                assert max(counts) - min(counts) <= 1

    def test_pinned_fold_index(self):
        # a literal, so a change to the assignment cannot shift CV folds silently
        fa = stratified_kfold(self.make(5, 4), 3, seed=7)
        assert fa.fold_index.tolist() == [1, 2, 1, 0, 2, 0, 2, 1, 0]

    def test_k_larger_than_n(self):
        with pytest.raises(DataError):
            stratified_kfold(self.make(2, 2), 5, seed=0)


class TestGenLinearSeparable:
    def test_45_degree_sign_convention(self):
        d = gen_linear_separable(200, 45.0, 0.1, seed=7)
        assert np.all(np.sign(d.features[:, 1] - d.features[:, 0]) * d.labels > 0)

    def test_two_points_opposite_sides(self):
        d = gen_linear_separable(2, 30.0, 1.0, seed=3)
        theta = math.radians(30.0)
        normal = np.array([-math.sin(theta), math.cos(theta)])
        dist = d.features @ normal
        assert set(d.labels.tolist()) == {-1, 1}
        assert np.all(np.abs(dist) >= 1.0)
        assert np.all(np.sign(dist) == d.labels)

    def test_margin_respected(self):
        for seed in range(5):
            margin = 0.3
            d = gen_linear_separable(100, 70.0, margin, seed=seed)
            theta = math.radians(70.0)
            normal = np.array([-math.sin(theta), math.cos(theta)])
            assert np.all(np.abs(d.features @ normal) >= margin)

    def test_bit_identical_across_runs(self):
        a = gen_linear_separable(50, 45.0, 0.05, seed=11)
        b = gen_linear_separable(50, 45.0, 0.05, seed=11)
        assert a.features.tobytes() == b.features.tobytes()
        assert a.labels.tobytes() == b.labels.tobytes()

    def test_oblique_boundary_costs_axis_aligned_trees_many_leaves(self):
        from nre.tree import build_tree

        d = gen_linear_separable(2000, 45.0, 0.05, seed=1)
        d = standardize_apply(d, standardize_fit(d))
        tree = build_tree(d, max_depth=10)
        err = float(np.mean(tree.predict(d.features) != d.labels))
        assert err == 0.0
        assert tree.n_leaves() > 5


class TestGenRotatedXor:
    def test_axis_aligned_corners_at_zero_noise(self):
        d = gen_rotated_xor(4, 0.0, 0.0, seed=5)
        pts = {tuple(p) for p in d.features}
        assert pts == {(1.0, 1.0), (-1.0, 1.0), (-1.0, -1.0), (1.0, -1.0)}
        for p, lab in zip(d.features, d.labels):
            assert lab == (1 if p[0] * p[1] > 0 else -1)

    def test_derotation_recovers_axis_alignment(self):
        angle = 45.0
        d = gen_rotated_xor(64, angle, 0.0, seed=2)
        theta = math.radians(-angle)
        rot = np.array(
            [[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]]
        )
        back = d.features @ rot.T
        for p in back:
            assert min(abs(abs(p[0]) - 1.0), abs(abs(p[1]) - 1.0)) < 1e-12

    def test_not_linearly_separable_lp_oracle(self):
        linprog = pytest.importorskip("scipy.optimize").linprog
        d = gen_rotated_xor(40, 30.0, 0.0, seed=8)
        # feasibility of y_i (w . x_i + b) >= 1 decides strict separability
        A = -(d.labels[:, None] * np.column_stack([d.features, np.ones(d.n_samples)]))
        res = linprog(
            c=[0.0, 0.0, 0.0],
            A_ub=A,
            b_ub=-np.ones(d.n_samples),
            bounds=[(None, None)] * 3,
            method="highs",
        )
        assert res.status == 2  # infeasible

    def test_determinism(self):
        a = gen_rotated_xor(100, 45.0, 0.15, seed=1)
        b = gen_rotated_xor(100, 45.0, 0.15, seed=1)
        assert a.features.tobytes() == b.features.tobytes()


class TestGenMadelonLike:
    def test_degenerate_single_informative_is_separable(self):
        linprog = pytest.importorskip("scipy.optimize").linprog
        d, origin = gen_madelon_like(60, 1, 0, 0, seed=4)
        assert d.n_features == 1 and origin == [("informative", 0)]
        A = -(d.labels[:, None] * np.column_stack([d.features, np.ones(d.n_samples)]))
        res = linprog(
            c=[0.0, 0.0],
            A_ub=A,
            b_ub=-np.ones(d.n_samples),
            bounds=[(None, None)] * 2,
            method="highs",
        )
        assert res.status == 0  # feasible

    def test_full_madelon_shape(self):
        d, origin = gen_madelon_like(100, 5, 15, 480, seed=4)
        assert d.n_features == 500
        kinds = [k for k, _ in origin]
        assert kinds.count("informative") == 5
        assert kinds.count("redundant") == 15
        assert kinds.count("distractor") == 480

    def test_redundant_columns_in_informative_span(self):
        d, origin = gen_madelon_like(200, 3, 4, 2, seed=9)
        inf_cols = [j for j, (k, _) in enumerate(origin) if k == "informative"]
        red_cols = [j for j, (k, _) in enumerate(origin) if k == "redundant"]
        A = d.features[:, inf_cols]
        for j in red_cols:
            b = d.features[:, j]
            coef, *_ = np.linalg.lstsq(A, b, rcond=None)
            fitted = A @ coef
            r = np.corrcoef(fitted, b)[0, 1]
            assert r > 0.99

    def test_balanced_vertex_labels(self):
        d, _ = gen_madelon_like(256, 3, 0, 0, seed=1)
        frac = (d.labels == 1).mean()
        assert 0.4 < frac < 0.6

    def test_determinism(self):
        a, oa = gen_madelon_like(50, 2, 3, 4, seed=6)
        b, ob = gen_madelon_like(50, 2, 3, 4, seed=6)
        assert a.features.tobytes() == b.features.tobytes()
        assert oa == ob


BAD_GENERATOR_ARGS = {
    "xor-negative-noise": (gen_rotated_xor, (40, 45.0, -1.0, 0)),
    "xor-nan-noise": (gen_rotated_xor, (40, 45.0, math.nan, 0)),
    "xor-inf-noise": (gen_rotated_xor, (40, 45.0, math.inf, 0)),
    "xor-inf-angle": (gen_rotated_xor, (40, math.inf, 0.1, 0)),
    "linear-nan-margin": (gen_linear_separable, (40, 45.0, math.nan, 0)),
    "linear-inf-margin": (gen_linear_separable, (40, 45.0, math.inf, 0)),
    "linear-nan-angle": (gen_linear_separable, (40, math.nan, 0.1, 0)),
    "madelon-no-informative": (gen_madelon_like, (40, 0, 1, 1, 0)),
    "madelon-17-informative": (gen_madelon_like, (40, 17, 1, 1, 0)),
    "madelon-negative-redundant": (gen_madelon_like, (40, 3, -3, 1, 0)),
    "madelon-negative-distractors": (gen_madelon_like, (40, 3, 1, -5, 0)),
    "madelon-one-row": (gen_madelon_like, (1, 3, 1, 1, 0)),
    "madelon-one-class-draw": (gen_madelon_like, (2, 5, 0, 0, 1)),
}


@pytest.mark.parametrize("case", BAD_GENERATOR_ARGS)
def test_generator_rejects_bad_arguments(case):
    gen, args = BAD_GENERATOR_ARGS[case]
    with pytest.raises(DataError):
        gen(*args)


def test_madelon_vertices_at_the_informative_bound():
    d, _ = gen_madelon_like(20, 16, 0, 0, seed=1)
    assert d.n_features == 16 and set(np.abs(d.features).round().ravel()) == {1.0}


class TestFetchPmlb:
    def test_fetch_parses_and_caches(self, tmp_path, local_http_dataset_server):
        base_url, tsv = local_http_dataset_server
        cache = tmp_path / "cache"
        d = fetch_pmlb("toyset", str(cache), base_url=base_url)
        assert d.n_samples == 4 and d.n_features == 2
        assert d.labels.tolist() == [-1, 1, -1, 1]
        cached = cache / "toyset.tsv.gz"
        assert cached.exists()
        assert gzip.decompress(cached.read_bytes()).decode() == tsv

    def test_warm_cache_skips_network(self, tmp_path, local_http_dataset_server):
        base_url, _ = local_http_dataset_server
        cache = tmp_path / "cache"
        d1 = fetch_pmlb("toyset", str(cache), base_url=base_url)
        d2 = fetch_pmlb("toyset", str(cache), base_url="http://127.0.0.1:1/__down__")
        np.testing.assert_array_equal(d1.features, d2.features)
        np.testing.assert_array_equal(d1.labels, d2.labels)

    def test_unknown_dataset_carries_status(self, tmp_path, local_http_dataset_server):
        base_url, _ = local_http_dataset_server
        with pytest.raises(DataError, match="404"):
            fetch_pmlb("no-such-set", str(tmp_path / "c"), base_url=base_url)

    def test_network_failure_without_cache(self, tmp_path):
        with pytest.raises(DataError, match="fetch failed"):
            fetch_pmlb("toyset", str(tmp_path / "c"), base_url="http://127.0.0.1:1/x")

    def test_env_var_base_url(self, tmp_path, local_http_dataset_server, monkeypatch):
        base_url, _ = local_http_dataset_server
        monkeypatch.setenv("NRE_PMLB_BASE_URL", base_url)
        d = fetch_pmlb("toyset", str(tmp_path / "cache"))
        assert d.n_samples == 4
