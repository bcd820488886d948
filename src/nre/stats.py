"""Paired nonparametric tests for comparing two classifiers across datasets.

Rows pair the two classifiers' error percentages per dataset. Differences are
ranked by absolute value with average ranks for ties; ranks of zero
differences are split evenly between the positive and negative rank sums. The
Wilcoxon statistic is T = min(R+, R-) and the sign test counts wins with ties
distributed evenly (dropping one tie when their count is odd). Both tests
use alpha = 0.05, the level of the published tables.
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass

from .data import read_text
from .errors import DataError

# Differences of percentages carry float subtraction noise (e.g. 0.62 - 0.20
# vs 1.89 - 1.47), which must not break tie detection; 12 decimals is far
# below any meaningful error difference and far above the noise.
_DIFF_DECIMALS = 12

# Two-tailed alpha=0.05 critical values for T = min(R+, R-), exact
# distribution over signed ranks: largest t with 2 * P(R+ <= t) <= 0.05.
# n=5 admits no rejection at this level; -1 encodes "never reject".
_WILCOXON_CRITICAL = {
    5: -1, 6: 0, 7: 2, 8: 3, 9: 5, 10: 8, 11: 10, 12: 13, 13: 17, 14: 21,
    15: 25, 16: 29, 17: 34, 18: 40, 19: 46, 20: 52, 21: 58, 22: 65, 23: 73,
    24: 81, 25: 89, 26: 98, 27: 107, 28: 116, 29: 126, 30: 137,
}

# Critical win counts for the sign test: smallest w with
# P(X >= w) <= 0.05 for X ~ Binomial(n, 1/2).
_SIGN_CRITICAL = {
    5: 5, 6: 6, 7: 7, 8: 7, 9: 8, 10: 9, 11: 9, 12: 10, 13: 10, 14: 11,
    15: 12, 16: 12, 17: 13, 18: 13, 19: 14, 20: 15, 21: 15, 22: 16, 23: 16,
    24: 17, 25: 18, 26: 18, 27: 19, 28: 19, 29: 20, 30: 20,
}

SUPPORTED_ALPHA = 0.05


@dataclass(frozen=True)
class ComparisonRow:
    name: str
    error_a: float
    error_b: float

    @property
    def difference(self) -> float:
        return round(self.error_a - self.error_b, _DIFF_DECIMALS)


class ComparisonTable:
    """Per-dataset error pairs with derived differences and average ranks."""

    def __init__(self, rows):
        """``rows`` are (name, error_a, error_b) triples of finite errors.

        A NaN or infinite error has no difference to rank or count, so it is
        a DataError naming its dataset.
        """
        self.rows = [ComparisonRow(name, float(a), float(b)) for name, a, b in rows]
        if not self.rows:
            raise DataError("comparison table needs at least one row")
        for r in self.rows:
            if not (math.isfinite(r.error_a) and math.isfinite(r.error_b)):
                raise DataError(
                    f"non-finite error value for dataset {r.name!r}: {r.error_a}, {r.error_b}"
                )

    def __len__(self) -> int:
        return len(self.rows)

    def differences(self) -> list[float]:
        return [r.difference for r in self.rows]

    def ranks(self) -> list[float]:
        """Average ranks of |difference| ascending, aligned with the row order."""
        diffs = self.differences()
        order = sorted(range(len(diffs)), key=lambda i: abs(diffs[i]))
        ranks = [0.0] * len(diffs)
        pos = 0
        while pos < len(order):
            end = pos
            while end + 1 < len(order) and abs(diffs[order[end + 1]]) == abs(diffs[order[pos]]):
                end += 1
            avg = (pos + 1 + end + 1) / 2
            for k in range(pos, end + 1):
                ranks[order[k]] = avg
            pos = end + 1
        return ranks


@dataclass(frozen=True)
class WilcoxonResult:
    r_plus: float
    r_minus: float
    t_statistic: float
    n: int
    critical_value: float | None
    reject_null: bool


@dataclass(frozen=True)
class SignTestResult:
    wins_a: int
    wins_b: int
    ties: int
    adjusted_wins_b: float
    critical_wins: int | None
    reject_null: bool


def critical_values(n: int) -> tuple[float, int]:
    """Embedded alpha = 0.05 critical values (Wilcoxon T, sign-test wins) for n in 5..30."""
    if n not in _WILCOXON_CRITICAL:
        raise DataError(f"critical values tabulated for n in [5, 30], got {n}")
    return float(_WILCOXON_CRITICAL[n]), _SIGN_CRITICAL[n]


def wilcoxon_signed_rank(table: ComparisonTable) -> WilcoxonResult:
    """Wilcoxon signed-rank test on paired error columns.

    R+ sums the ranks of rows where classifier b has the lower error, R- where
    a does; ranks of zero differences split evenly between the two. The
    critical value is None, and the null never rejected, when the table size
    is outside the embedded range.
    """
    diffs = table.differences()
    ranks = table.ranks()
    r_plus = sum(rk for d, rk in zip(diffs, ranks) if d > 0.0)
    r_minus = sum(rk for d, rk in zip(diffs, ranks) if d < 0.0)
    zero_sum = sum(rk for d, rk in zip(diffs, ranks) if d == 0.0)
    r_plus += zero_sum / 2
    r_minus += zero_sum / 2
    t = min(r_plus, r_minus)
    n = len(table)
    critical_value = float(_WILCOXON_CRITICAL[n]) if n in _WILCOXON_CRITICAL else None
    reject = critical_value is not None and t <= critical_value
    return WilcoxonResult(r_plus, r_minus, t, n, critical_value, reject)


def sign_test(table: ComparisonTable) -> SignTestResult:
    """Win/loss/tie counts with ties split evenly (one dropped when odd).

    Classifier b wins a row when its error is lower (difference > 0). The null
    is rejected when b's adjusted win count reaches the critical count, which
    is None outside the embedded range.
    """
    diffs = table.differences()
    wins_b = sum(1 for d in diffs if d > 0.0)
    wins_a = sum(1 for d in diffs if d < 0.0)
    ties = sum(1 for d in diffs if d == 0.0)
    shared = (ties - ties % 2) // 2
    adjusted = wins_b + shared
    critical_wins = _SIGN_CRITICAL.get(len(table))
    reject = critical_wins is not None and adjusted >= critical_wins
    return SignTestResult(wins_a, wins_b, ties, float(adjusted), critical_wins, reject)


def read_comparison_csv(path: str) -> ComparisonTable:
    """CSV of (dataset, error_a, error_b) rows; a non-numeric first row is a header."""
    with read_text(path) as fh:
        raw = [row for row in csv.reader(fh) if row]
    if not raw:
        raise DataError(f"empty comparison file: {path}")
    start = 0
    try:
        float(raw[0][1]), float(raw[0][2])
    except (ValueError, IndexError):
        start = 1
    rows = []
    for i, row in enumerate(raw[start:], start=start + 1):
        if len(row) < 3:
            raise DataError(f"row {i} needs 3 columns (dataset, error_a, error_b)")
        try:
            rows.append((row[0].strip(), float(row[1]), float(row[2])))
        except ValueError:
            raise DataError(f"non-numeric error value in row {i}: {row[1:3]}") from None
    if not rows:
        raise DataError(f"no data rows in {path}")
    return ComparisonTable(rows)


def format_comparison_report(
    table: ComparisonTable,
    label_a: str,
    label_b: str,
    wilcoxon: WilcoxonResult | None = None,
    sign: SignTestResult | None = None,
) -> str:
    """Text report mirroring the published layout: difference and rank columns
    sorted by descending |difference|, a wins/ties footer, then test verdicts."""
    ranks = table.ranks()
    entries = sorted(
        zip(table.rows, ranks), key=lambda e: (-abs(e[0].difference), e[0].name)
    )
    name_w = max(16, max(len(r.name) for r in table.rows) + 1)
    lines = [
        f"{'dataset':<{name_w}}{label_a:>10}{label_b:>10}{'difference':>12}{'rank':>7}"
    ]
    for row, rank in entries:
        lines.append(
            f"{row.name:<{name_w}}{row.error_a:>10.2f}{row.error_b:>10.2f}"
            f"{row.difference:>12.2f}{rank:>7.1f}"
        )
    counts = sign if sign is not None else sign_test(table)
    lines.append(f"{'wins':<{name_w}}{counts.wins_a:>10}{counts.wins_b:>10}")
    lines.append(f"{'ties':<{name_w}}{counts.ties:>10}{counts.ties:>10}")
    if wilcoxon is not None:
        verdict = "reject" if wilcoxon.reject_null else "fail to reject"
        crit = "n/a" if wilcoxon.critical_value is None else f"{wilcoxon.critical_value:g}"
        lines.append(
            f"Wilcoxon signed-rank: R+ = {wilcoxon.r_plus:g}, R- = {wilcoxon.r_minus:g}, "
            f"T = {wilcoxon.t_statistic:g}, n = {wilcoxon.n}, critical = {crit} "
            f"-> {verdict} at alpha = {SUPPORTED_ALPHA}"
        )
    if sign is not None:
        verdict = "reject" if sign.reject_null else "fail to reject"
        crit = "n/a" if sign.critical_wins is None else str(sign.critical_wins)
        lines.append(
            f"Sign test: {label_a} wins = {sign.wins_a}, {label_b} wins = {sign.wins_b}, "
            f"ties = {sign.ties}, adjusted {label_b} wins = {sign.adjusted_wins_b:g}, "
            f"critical = {crit} -> {verdict} at alpha = {SUPPORTED_ALPHA}"
        )
    return "\n".join(lines)
