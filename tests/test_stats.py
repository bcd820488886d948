from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from golden_tables import ANN_VS_NRE, GB_VS_NRE, RF_VS_NRE
from nre.errors import DataError
from nre.stats import (
    ComparisonTable,
    critical_values,
    format_comparison_report,
    read_comparison_csv,
    sign_test,
    wilcoxon_signed_rank,
)


def swapped(table: ComparisonTable) -> ComparisonTable:
    """The table with the two classifiers' columns exchanged."""
    return ComparisonTable([(r.name, r.error_b, r.error_a) for r in table.rows])


class TestGoldenTables:
    def test_gb_wilcoxon(self):
        res = wilcoxon_signed_rank(ComparisonTable(GB_VS_NRE))
        assert res.r_plus == 109.0
        assert res.r_minus == 81.0
        assert res.t_statistic == 81.0
        assert res.critical_value == 46.0
        assert not res.reject_null

    def test_rf_wilcoxon(self):
        res = wilcoxon_signed_rank(ComparisonTable(RF_VS_NRE))
        assert res.r_plus == 176.5
        assert res.r_minus == 13.5
        assert res.t_statistic == 13.5
        assert res.reject_null

    def test_ann_wilcoxon(self):
        res = wilcoxon_signed_rank(ComparisonTable(ANN_VS_NRE))
        assert res.r_plus == 155.5
        assert res.r_minus == 34.5
        assert res.t_statistic == 34.5
        assert res.reject_null

    def test_gb_sign(self):
        res = sign_test(ComparisonTable(GB_VS_NRE))
        assert (res.wins_b, res.wins_a, res.ties) == (8, 6, 5)
        assert res.adjusted_wins_b == 10.0
        assert res.critical_wins == 14
        assert not res.reject_null

    def test_rf_sign(self):
        res = sign_test(ComparisonTable(RF_VS_NRE))
        assert (res.wins_b, res.wins_a, res.ties) == (13, 1, 5)
        assert res.adjusted_wins_b == 15.0
        assert res.reject_null

    def test_ann_sign(self):
        res = sign_test(ComparisonTable(ANN_VS_NRE))
        assert (res.wins_b, res.wins_a, res.ties) == (12, 2, 5)
        assert res.adjusted_wins_b == 14.0
        assert res.reject_null

    def test_rf_ranks_match_published_table(self):
        table = ComparisonTable(RF_VS_NRE)
        by_name = dict(zip((r.name for r in table.rows), table.ranks()))
        assert by_name["madelon"] == 19.0
        assert by_name["wilt"] == 18.0
        assert by_name["titanic"] == 14.0
        assert by_name["ring"] == 6.0
        # the five zero differences share ranks 1..5
        for name in ("agaricus-lepiota", "mushroom", "dis", "clean2", "churn"):
            assert by_name[name] == 3.0
        # tied |0.21| rows share the average of ranks 8 and 9
        assert by_name["magic"] == 8.5
        assert by_name["hypothyroid"] == 8.5


class TestRanking:
    def test_average_ranks_for_ties(self):
        t = ComparisonTable([("a", 2.0, 1.0), ("b", 3.0, 2.0), ("c", 5.0, 1.0)])
        # |diffs| = 1, 1, 4 -> ranks 1.5, 1.5, 3
        assert t.ranks() == [1.5, 1.5, 3.0]

    def test_float_noise_in_differences_still_ties(self):
        # 0.62-0.20 and 1.89-1.47 differ in the last ulp but must tie at 0.42
        t = ComparisonTable([("a", 0.62, 0.20), ("b", 1.89, 1.47), ("c", 9.0, 1.0)])
        assert t.ranks() == [1.5, 1.5, 3.0]

    def test_rank_sum_conservation(self):
        rng = np.random.default_rng(0)
        for _ in range(30):
            n = int(rng.integers(1, 25))
            rows = [
                (f"d{i}", float(rng.integers(0, 5)), float(rng.integers(0, 5)))
                for i in range(n)
            ]
            t = ComparisonTable(rows)
            res = wilcoxon_signed_rank(t)
            assert res.r_plus + res.r_minus == pytest.approx(n * (n + 1) / 2)


class TestProperties:
    def random_table(self, rng, n):
        return ComparisonTable(
            [(f"d{i}", float(rng.integers(0, 4)), float(rng.integers(0, 4))) for i in range(n)]
        )

    def test_antisymmetry(self):
        rng = np.random.default_rng(1)
        for _ in range(25):
            t = self.random_table(rng, int(rng.integers(1, 20)))
            s = swapped(t)
            a = wilcoxon_signed_rank(t)
            b = wilcoxon_signed_rank(s)
            assert a.r_plus == pytest.approx(b.r_minus)
            assert a.r_minus == pytest.approx(b.r_plus)
            assert a.t_statistic == pytest.approx(b.t_statistic)
            sa = sign_test(t)
            sb = sign_test(s)
            assert (sa.wins_a, sa.wins_b) == (sb.wins_b, sb.wins_a)
            assert sa.ties == sb.ties

    def test_sign_test_invariant_under_monotone_transform(self):
        rng = np.random.default_rng(2)
        for _ in range(25):
            t = self.random_table(rng, int(rng.integers(1, 15)))
            warped = ComparisonTable(
                [(r.name, np.exp(r.error_a / 3), np.exp(r.error_b / 3)) for r in t.rows]
            )
            a = sign_test(t)
            b = sign_test(warped)
            assert (a.wins_a, a.wins_b, a.ties) == (b.wins_a, b.wins_b, b.ties)


class TestCriticalValues:
    def test_published_pair_at_19(self):
        assert critical_values(19) == (46.0, 14)

    def test_out_of_range(self):
        with pytest.raises(DataError):
            critical_values(4)
        with pytest.raises(DataError):
            critical_values(31)

    def test_sign_criticals_match_binomial_oracle(self):
        # smallest w with P(X >= w) <= 0.05 for X ~ Binomial(n, 1/2)
        for n in range(5, 31):
            _, w_table = critical_values(n)
            tail = lambda w: sum(comb(n, k) for k in range(w, n + 1)) / 2**n
            assert tail(w_table) <= 0.05
            assert tail(w_table - 1) > 0.05

    def test_wilcoxon_criticals_match_exact_distribution_oracle(self):
        # largest t with 2 * P(R+ <= t) <= 0.05 over the exact null of signed
        # rank sums (subset sums of 1..n), or -1 when no such t exists
        for n in range(5, 31):
            t_table, _ = critical_values(n)
            total = n * (n + 1) // 2
            counts = [0] * (total + 1)
            counts[0] = 1
            for r in range(1, n + 1):
                for s in range(total, r - 1, -1):
                    counts[s] += counts[s - r]
            denom = 2**n
            cum = np.cumsum(counts)
            achievable = [t for t in range(total + 1) if 2 * cum[t] / denom <= 0.05]
            expected = float(achievable[-1]) if achievable else -1.0
            assert t_table == expected


class TestEdgeCases:
    def test_empty_table_rejected(self):
        with pytest.raises(DataError):
            ComparisonTable([])

    def test_single_row_no_rejection(self):
        t = ComparisonTable([("only", 5.0, 1.0)])
        res = wilcoxon_signed_rank(t)
        assert res.critical_value is None and not res.reject_null
        s = sign_test(t)
        assert s.critical_wins is None and not s.reject_null

    def test_all_ties_even_count(self):
        t = ComparisonTable([(f"d{i}", 1.0, 1.0) for i in range(6)])
        res = sign_test(t)
        assert res.wins_a == res.wins_b == 0
        assert res.adjusted_wins_b == 3.0
        assert not res.reject_null

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize("column", [1, 2])
    def test_non_finite_error_rejected(self, value, column):
        rows = [[f"d{i}", 1.0 + i, 2.0] for i in range(5)]
        rows[3][0], rows[3][column] = "wilt", value
        with pytest.raises(DataError, match="non-finite error value for dataset 'wilt'"):
            ComparisonTable(rows)


class TestCsvAndReport:
    def test_read_csv_with_header(self, tmp_path):
        p = tmp_path / "r.csv"
        p.write_text("dataset,error_a,error_b\nwilt,18.60,10.40\nchess,0.21,0.42\n")
        t = read_comparison_csv(str(p))
        assert len(t) == 2
        assert t.rows[0].name == "wilt"

    def test_read_csv_without_header(self, tmp_path):
        p = tmp_path / "r.csv"
        p.write_text("wilt,18.60,10.40\n")
        assert len(read_comparison_csv(str(p))) == 1

    def test_malformed_csv(self, tmp_path):
        p = tmp_path / "r.csv"
        p.write_text("dataset,error_a,error_b\nwilt,oops,10.40\n")
        with pytest.raises(DataError):
            read_comparison_csv(str(p))

    def test_report_layout(self):
        t = ComparisonTable(GB_VS_NRE)
        report = format_comparison_report(
            t,
            label_a="GB",
            label_b="NRE",
            wilcoxon=wilcoxon_signed_rank(t),
            sign=sign_test(t),
        )
        lines = report.splitlines()
        assert "difference" in lines[0] and "rank" in lines[0]
        assert len([ln for ln in lines if ln.startswith(("wins", "ties"))]) == 2
        assert "T = 81" in report
        assert "fail to reject" in report
        # rows sorted by descending |difference|: wilt first
        assert lines[1].startswith("wilt")


# Errors on a coarse grid of tenths, so that ties (and float noise in their
# differences, as in 0.3 - 0.1 against 0.2) are common.
GRID_ERRORS = st.integers(0, 30).map(lambda k: k / 10)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(GRID_ERRORS, GRID_ERRORS), min_size=5, max_size=30))
def test_report_footer_counts_are_the_sign_tests(pairs):
    table = ComparisonTable([(f"d{i}", a, b) for i, (a, b) in enumerate(pairs)])
    sign = sign_test(table)
    footer = [f"wins {sign.wins_a} {sign.wins_b}", f"ties {sign.ties} {sign.ties}"]
    for given_sign in (None, sign):
        report = format_comparison_report(table, "A", "B", sign=given_sign)
        lines = report.splitlines()
        at = next(i for i, line in enumerate(lines) if line.startswith("wins"))
        assert [" ".join(line.split()) for line in lines[at : at + 2]] == footer
    n, wil = len(table), wilcoxon_signed_rank(table)
    assert wil.r_plus + wil.r_minus == n * (n + 1) / 2
