"""Tabular datasets: loading, standardization, folds, synthetic generators, benchmark fetching.

A :class:`Dataset` is a dense float feature matrix plus ±1 labels. Everything
downstream (trees, rules, neural rules) assumes this representation.
"""
from __future__ import annotations

import array
import contextlib
import csv
import gzip
import math
import os
import urllib.error
import urllib.request
import zlib
from dataclasses import dataclass

import numpy as np

from .errors import DataError

DEFAULT_PMLB_BASE_URL = "https://github.com/EpistasisLab/pmlb/raw/master/datasets"
PMLB_BASE_URL_ENV = "NRE_PMLB_BASE_URL"

# gen_madelon_like places 2**informative clusters; 16 gives 65536 of them.
MAX_INFORMATIVE = 16
# The fewest rows gen_rotated_xor (one per corner) and gen_linear_separable
# (one per side of the line) accept.
XOR_MIN_ROWS = 4
LINEAR_MIN_ROWS = 2


@dataclass
class Dataset:
    """N x p feature matrix with labels in {-1, +1} and one name per feature column."""

    features: np.ndarray
    labels: np.ndarray
    feature_names: tuple[str, ...]

    def __post_init__(self):
        self.features = np.ascontiguousarray(np.asarray(self.features, dtype=np.float64))
        self.labels = np.asarray(self.labels, dtype=np.int64)
        self.feature_names = tuple(str(n) for n in self.feature_names)
        if self.features.ndim != 2:
            raise DataError("features must be a 2-D matrix")
        n, p = self.features.shape
        if n < 1 or p < 1:
            raise DataError("dataset needs at least one row and one feature")
        if self.labels.shape != (n,):
            raise DataError(f"labels length {self.labels.shape} does not match {n} rows")
        if len(self.feature_names) != p:
            raise DataError(f"{len(self.feature_names)} names for {p} feature columns")
        if not np.all(np.isin(self.labels, (-1, 1))):
            raise DataError("labels must all be -1 or +1")
        if not np.all(np.isfinite(self.features)):
            raise DataError("features contain NaN or infinite values")
        self.features.setflags(write=False)
        self.labels.setflags(write=False)

    @property
    def n_samples(self) -> int:
        return self.features.shape[0]

    @property
    def n_features(self) -> int:
        return self.features.shape[1]

    def subset(self, indices) -> "Dataset":
        """New Dataset restricted to the given row indices (order preserved)."""
        idx = np.asarray(indices)
        return Dataset(self.features[idx], self.labels[idx], self.feature_names)


@dataclass
class StandardizationParams:
    """Per-column finite means and finite positive standard deviations fit on training data."""

    means: np.ndarray
    stds: np.ndarray

    def __post_init__(self):
        self.means = np.asarray(self.means, dtype=np.float64)
        self.stds = np.asarray(self.stds, dtype=np.float64)
        if self.means.shape != self.stds.shape or self.means.ndim != 1:
            raise DataError("means and stds must be 1-D vectors of equal length")
        if not (np.isfinite(self.means).all() and np.all((0 < self.stds) & (self.stds < np.inf))):
            raise DataError("means must be finite and standard deviations finite and > 0")


@dataclass
class FoldAssignment:
    """Per-sample fold index in [0, k) from a stratified split."""

    fold_index: np.ndarray
    k: int

    def test_indices(self, fold: int) -> np.ndarray:
        return np.flatnonzero(self.fold_index == fold)

    def train_indices(self, fold: int) -> np.ndarray:
        return np.flatnonzero(self.fold_index != fold)


def _open_text(path: str):
    if path.endswith(".gz"):
        return gzip.open(path, "rt", encoding="utf-8-sig", newline="")
    return open(path, "r", encoding="utf-8-sig", newline="")


@contextlib.contextmanager
def read_text(path: str):
    """``path`` open for reading as text, a ``.gz`` decompressed and a leading BOM dropped.

    A missing file is a DataError "no such file"; an OSError, undecodable bytes, a refused
    csv field or a truncated stream inside the block is a DataError "cannot read <path>".
    """
    if not os.path.exists(path):
        raise DataError(f"no such file: {path}")
    try:
        with _open_text(path) as fh:
            yield fh
    except (OSError, UnicodeDecodeError, csv.Error, EOFError, zlib.error) as e:
        raise DataError(f"cannot read {path}: {e}") from None


def _delimiter_for(path: str) -> str:
    stem = path[:-3] if path.endswith(".gz") else path
    return "\t" if stem.endswith((".tsv", ".tab")) else ","


def _values_equal(raw: str, wanted) -> bool:
    if raw == str(wanted):
        return True
    try:
        return float(raw) == float(wanted)
    except (TypeError, ValueError):
        return False


def load_table(path: str, label_column, positive_label=None) -> Dataset:
    """Read a delimited text file into a Dataset.

    The delimiter comes from the extension (.tsv/.tab are tab-separated,
    anything else comma-separated; a .gz suffix is decompressed transparently)
    and a header row is required. ``label_column`` may be a column name or a
    0-based index. Rows must have exactly two distinct label values;
    ``positive_label`` maps to +1 and the other value to -1. When
    ``positive_label`` is None the numerically (or lexicographically) larger
    raw value becomes +1.

    The file is read through :func:`read_text` in one pass that holds one row
    of text at a time: each row's feature cells are converted with ``float()``
    as it is read.
    """
    raw_labels = []
    cells = array.array("d")
    bad_row = None  # (row number, feature cells) of the first row float() rejects
    with read_text(path) as fh:
        rows = filter(None, csv.reader(fh, delimiter=_delimiter_for(path)))
        header = next(rows, None)
        if header is None:
            raise DataError(f"empty file: {path}")
        header = [h.strip() for h in header]
        if isinstance(label_column, int):
            label_idx = label_column
            if not 0 <= label_idx < len(header):
                raise DataError(f"label column index {label_idx} out of range")
        else:
            try:
                label_idx = header.index(str(label_column))
            except ValueError:
                raise DataError(f"label column {label_column!r} not in header {header}") from None
        for i, row in enumerate(rows, start=2):
            if len(row) != len(header):
                raise DataError(f"row {i} has {len(row)} cells, expected {len(header)}")
            raw_labels.append(row.pop(label_idx).strip())
            if bad_row is None:
                try:
                    cells.extend(map(float, row))
                except ValueError:
                    # a later ragged row or a third class outranks a bad
                    # cell, so it is reported after those checks
                    bad_row = i, row
    if not raw_labels:
        raise DataError(f"no data rows in {path}")

    distinct = sorted(set(raw_labels))
    if len(distinct) > 2:
        raise DataError(f"more than two classes in {path}: {distinct[:5]}")
    if positive_label is None:
        try:
            positive_label = max(distinct, key=float)
        except ValueError:
            positive_label = max(distinct)
    is_positive = {v: _values_equal(v, positive_label) for v in distinct}
    if not any(is_positive.values()):
        raise DataError(f"positive label {positive_label!r} not among values {distinct}")

    feature_names = tuple(h for j, h in enumerate(header) if j != label_idx)
    if bad_row is not None:
        i, row = bad_row
        for name, cell in zip(feature_names, row):
            try:
                float(cell)
            except ValueError:
                raise DataError(f"non-numeric value {cell!r} at row {i}, column {name!r}") from None
    features = np.frombuffer(cells, np.float64).reshape(len(raw_labels), len(feature_names))
    labels = np.where([is_positive[v] for v in raw_labels], 1, -1)
    return Dataset(features, labels, feature_names)


def standardize_fit(d: Dataset) -> StandardizationParams:
    """Column means and population standard deviations; constant columns get std 1.

    Clamping keeps feature indices stable across train/test splits; a tree
    never splits on a constant column, so the clamp is inert downstream. A
    column whose mean or std overflows the float range is a DataError.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        means = d.features.mean(axis=0)
        stds = d.features.std(axis=0)  # population (1/N)
    finite = np.isfinite(means) & np.isfinite(stds)
    if not finite.all():
        j = np.argmin(finite)  # the first column that overflowed
        raise DataError(f"column {d.feature_names[j]!r} overflows: mean {means[j]}, std {stds[j]}")
    stds = np.where(stds == 0.0, 1.0, stds)
    return StandardizationParams(means, stds)


def standardize_apply(d: Dataset, s: StandardizationParams) -> Dataset:
    """Center and scale every feature column; labels pass through unchanged."""
    if s.means.shape[0] != d.n_features:
        raise DataError(
            f"standardizer has {s.means.shape[0]} columns, dataset has {d.n_features}"
        )
    return Dataset((d.features - s.means) / s.stds, d.labels, d.feature_names)


def stratified_kfold(d: Dataset, k: int, seed: int) -> FoldAssignment:
    """Deterministic stratified k-fold assignment; per-class fold counts differ by <= 1."""
    if k < 2:
        raise DataError("need at least 2 folds")
    if k > d.n_samples:
        # k can have any number of digits: name the bound, not k
        raise DataError(f"cannot split {d.n_samples} samples into more than {d.n_samples} folds")
    rng = np.random.default_rng(seed)
    fold_index = np.empty(d.n_samples, dtype=np.int64)
    counter = 0
    for cls in (-1, 1):
        idx = np.flatnonzero(d.labels == cls)
        if idx.size == 0:
            continue
        rng.shuffle(idx)
        fold_index[idx] = (counter + np.arange(idx.size)) % k
        counter += idx.size
    return FoldAssignment(fold_index, k)


def gen_linear_separable(n: int, angle_deg: float, margin: float, seed: int) -> Dataset:
    """Two-feature dataset split by a line through the origin at ``angle_deg``.

    Labels are the sign of the signed distance to the line and no point lies
    within ``margin`` of it.
    """
    if n < LINEAR_MIN_ROWS:
        raise DataError(f"need n >= {LINEAR_MIN_ROWS}")
    if not 0 <= margin < math.inf:
        raise DataError(f"margin must be finite and >= 0, got {margin!r}")
    if not math.isfinite(angle_deg):
        raise DataError(f"angle_deg must be finite, got {angle_deg!r}")
    rng = np.random.default_rng(seed)
    theta = math.radians(angle_deg)
    direction = np.array([math.cos(theta), math.sin(theta)])
    normal = np.array([-math.sin(theta), math.cos(theta)])
    along = rng.uniform(-1.5, 1.5, size=n)
    away = rng.uniform(margin, margin + 1.0, size=n)
    signs = np.where(np.arange(n) < (n + 1) // 2, 1.0, -1.0)
    rng.shuffle(signs)
    points = along[:, None] * direction + (signs * away)[:, None] * normal
    return Dataset(points, signs.astype(np.int64), ("x0", "x1"))


def gen_rotated_xor(n: int, angle_deg: float, noise_std: float, seed: int) -> Dataset:
    """Four Gaussian clusters at the rotated corners of the XOR layout.

    Labels are +1 on the same-sign corners and -1 on the mixed-sign corners,
    assigned before the rotation is applied.
    """
    if n < XOR_MIN_ROWS:
        raise DataError(f"need n >= {XOR_MIN_ROWS}")
    if not 0 <= noise_std < math.inf:
        raise DataError(f"noise_std must be finite and >= 0, got {noise_std!r}")
    if not math.isfinite(angle_deg):
        raise DataError(f"angle_deg must be finite, got {angle_deg!r}")
    rng = np.random.default_rng(seed)
    centers = np.array([[1.0, 1.0], [-1.0, 1.0], [-1.0, -1.0], [1.0, -1.0]])
    cluster_labels = np.array([1, -1, 1, -1])
    which = np.arange(n) % 4
    points = centers[which] + rng.normal(0.0, noise_std, size=(n, 2))
    labels = cluster_labels[which]
    theta = math.radians(angle_deg)
    rot = np.array([[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]])
    points = points @ rot.T
    order = rng.permutation(n)
    return Dataset(points[order], labels[order], ("x0", "x1"))


def gen_madelon_like(
    n: int, informative: int, redundant: int, distractors: int, seed: int
) -> tuple[Dataset, list[tuple[str, int]]]:
    """Hypercube-cluster dataset: informative corners, linear echoes, pure noise.

    Clusters sit at the 2**informative hypercube vertices (informative at most
    MAX_INFORMATIVE; cluster std 0.1 per coordinate) with balanced random ±1 vertex labels. Redundant columns are
    random linear combinations (coefficients uniform on [-1, 1]) of the
    informative ones; distractor columns are independent standard normals.
    Column order is shuffled by the seed. A draw whose labels hold one class
    is a DataError. Returns the dataset together with a per-column origin map
    of ("informative" | "redundant" | "distractor", k) pairs for test use.
    """
    if not 1 <= informative <= MAX_INFORMATIVE:
        raise DataError(f"informative must be between 1 and {MAX_INFORMATIVE}, got {informative}")
    if redundant < 0 or distractors < 0:
        raise DataError(f"redundant and distractors must be >= 0, got {redundant}, {distractors}")
    rng = np.random.default_rng(seed)
    n_vertices = 2**informative
    vertices = np.where((np.arange(n_vertices)[:, None] >> np.arange(informative)) & 1, 1.0, -1.0)
    vertex_order = rng.permutation(n_vertices)
    vertex_labels = np.empty(n_vertices, dtype=np.int64)
    vertex_labels[vertex_order[: n_vertices // 2]] = 1
    vertex_labels[vertex_order[n_vertices // 2 :]] = -1

    which = rng.permutation(n_vertices)[np.arange(n) % n_vertices]
    x_inf = vertices[which] + rng.normal(0.0, 0.1, size=(n, informative))
    labels = vertex_labels[which]
    if np.unique(labels).size < 2:
        raise DataError(f"the {n} rows drawn hold one class; use more rows or another seed")

    blocks = [x_inf]
    origins = [("informative", k) for k in range(informative)]
    if redundant > 0:
        coeffs = rng.uniform(-1.0, 1.0, size=(informative, redundant))
        blocks.append(x_inf @ coeffs)
        origins += [("redundant", k) for k in range(redundant)]
    if distractors > 0:
        blocks.append(rng.normal(0.0, 1.0, size=(n, distractors)))
        origins += [("distractor", k) for k in range(distractors)]
    features = np.hstack(blocks)

    perm = rng.permutation(features.shape[1])
    features = features[:, perm]
    origin_map = [origins[j] for j in perm]
    names = tuple(f"x{j}" for j in range(features.shape[1]))
    return Dataset(features, labels, names), origin_map


def _download(url: str, dest: str) -> None:
    try:
        with urllib.request.urlopen(url) as resp:
            payload = resp.read()
    except urllib.error.HTTPError as e:
        raise DataError(f"fetch failed for {url}: HTTP {e.code}") from e
    except urllib.error.URLError as e:
        raise DataError(f"fetch failed for {url}: {e.reason}") from e
    tmp = dest + ".part"
    with open(tmp, "wb") as fh:
        fh.write(payload)
    os.replace(tmp, dest)


def fetch_pmlb(name: str, cache_dir: str, base_url: str | None = None) -> Dataset:
    """Fetch a PMLB benchmark table, caching the raw upstream bytes.

    Tries ``<base>/<name>/<name>.tsv.gz`` then the plain ``.tsv``; the raw
    response is stored verbatim under ``cache_dir`` and reused on later calls
    without touching the network. The table's ``target`` column becomes the
    label, with the larger raw value mapped to +1. The base URL can be
    overridden by the ``NRE_PMLB_BASE_URL`` environment variable or the
    ``base_url`` argument. A name that is not one path component is a DataError.
    """
    if name in ("", ".", "..") or os.path.basename(name) != name:
        raise DataError(f"dataset name {name!r} must be a single path component")
    if base_url is None:
        base_url = os.environ.get(PMLB_BASE_URL_ENV, DEFAULT_PMLB_BASE_URL)
    base_url = base_url.rstrip("/")
    os.makedirs(cache_dir, exist_ok=True)
    candidates = [
        (os.path.join(cache_dir, f"{name}.tsv.gz"), f"{base_url}/{name}/{name}.tsv.gz"),
        (os.path.join(cache_dir, f"{name}.tsv"), f"{base_url}/{name}/{name}.tsv"),
    ]
    for path, _ in candidates:
        if os.path.exists(path):
            return load_table(path, label_column="target")
    errors = []
    for path, url in candidates:
        try:
            _download(url, path)
        except DataError as e:
            errors.append(str(e))
            continue
        return load_table(path, label_column="target")
    raise DataError(f"could not fetch dataset {name!r}: " + "; ".join(errors))
