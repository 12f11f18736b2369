import numpy as np
import pytest

import oracle
from spdc_stats import (
    CorrelationReport,
    DivergenceError,
    FailedRow,
    TableOneRow,
    build_table_two,
    g2_from_counts,
    g2_heralded_ideal,
    g2_heralded_predicted,
    g2_signal_idler,
    g2_unheralded,
    g3_signal_idler,
    g3_unheralded,
    report_for_row,
)
from checks import within_printed

X10 = 10 * 0.00135
X400 = 400 * 0.00098

IDENTITY_GRID = np.linspace(1e-4, 0.6, 100)


class TestG2FromCounts:
    def test_direct_arithmetic(self):
        assert g2_from_counts(1e6, 5e4, 5e4, 50) == pytest.approx(0.01, rel=1e-12)

    def test_back_solved_consistency_point(self):
        got = g2_from_counts(223e3, 22e3, 18.4e3, 77)
        assert got == pytest.approx(0.021, abs=5e-4)

    def test_no_three_folds(self):
        assert g2_from_counts(1e6, 5e4, 5e4, 0.0) == 0.0

    def test_zero_denominator(self):
        with pytest.raises(DivergenceError):
            g2_from_counts(1e6, 0.0, 0.0, 0.0)

    def test_rejects_negative_counts(self):
        with pytest.raises(ValueError):
            g2_from_counts(1e6, -1.0, 5e4, 0.0)

    def test_sigma_band(self):
        value, sigma = g2_from_counts(1e6, 5e4, 5e4, 50, with_sigma=True)
        assert value == pytest.approx(0.01, rel=1e-12)
        # 50 triple counts dominate: expect roughly sqrt(50)/50 ~ 14%
        assert sigma / value == pytest.approx(np.sqrt(1 / 50), rel=0.2)


class TestClosedFormIdentities:
    @pytest.mark.parametrize("x", IDENTITY_GRID)
    def test_unheralded_g2_is_two(self, x):
        assert g2_unheralded(x) == 2.0
        assert oracle.g2_unheralded(x) == pytest.approx(2.0, rel=1e-8)

    @pytest.mark.parametrize("x", [1e-6, 0.3, 0.5])
    def test_unheralded_g3_is_six(self, x):
        assert g3_unheralded(x) == 6.0
        assert oracle.g3_unheralded(x) == pytest.approx(6.0, rel=1e-8)

    @pytest.mark.parametrize("x", [1e-4, 0.0135, 0.392, 0.6])
    def test_heralded_ideal_is_twice_x(self, x):
        assert g2_heralded_ideal(x) == 2.0 * x
        assert oracle.g2_heralded_ideal(x) == pytest.approx(
            2.0 * x, rel=1e-8
        )

    @pytest.mark.parametrize("x", [1e-4, 0.0135, 0.392, 0.6])
    def test_signal_idler_closed_forms(self, x):
        assert g2_signal_idler(x) == pytest.approx(1.0 / (2 * x) + 1.5, rel=1e-14)
        assert oracle.g2_signal_idler(x) == pytest.approx(
            g2_signal_idler(x), rel=1e-8
        )
        assert g3_signal_idler(x) == pytest.approx(3.0 * (1 + x) / x, rel=1e-14)
        assert oracle.g3_signal_idler(x) == pytest.approx(
            g3_signal_idler(x), rel=1e-8
        )

    @pytest.mark.parametrize("x", [0.0135, 0.392])
    def test_moment_paths(self, x):
        assert oracle.g2_signal_idler_moments(x) == pytest.approx(
            g2_signal_idler(x), rel=1e-12
        )
        assert oracle.g3_signal_idler_moments(x) == pytest.approx(
            g3_signal_idler(x), rel=1e-12
        )

    def test_signal_idler_limit_toward_full_saturation(self):
        # 1/(2x) + 3/2 -> 2 as x -> 1
        assert g2_signal_idler(0.999999) == pytest.approx(2.0, abs=1e-5)


class TestTableTwoValues:
    def test_low_power_row(self):
        assert within_printed(g2_heralded_ideal(X10), "0.027", 0.02)
        assert within_printed(g2_signal_idler(X10), "38.593", 0.01)
        assert within_printed(g3_signal_idler(X10), "225.56", 0.01)

    def test_high_power_row(self):
        assert within_printed(g2_heralded_ideal(X400), "0.780", 0.01)
        assert within_printed(g2_signal_idler(X400), "2.782", 0.01)
        assert within_printed(g3_signal_idler(X400), "10.69", 0.01)


class TestDivergences:
    def test_zero_x_contract(self):
        assert g2_unheralded(0.0) == 2.0
        assert g2_heralded_ideal(0.0) == 0.0
        with pytest.raises(DivergenceError):
            g3_unheralded(0.0)
        with pytest.raises(DivergenceError):
            g2_signal_idler(0.0)
        with pytest.raises(DivergenceError):
            g3_signal_idler(0.0)

    def test_predicted_heralded_zero_x(self):
        assert g2_heralded_predicted(0.0, 0.215, 0.198, 0.163) == 0.0


class TestG2HeraldedPredicted:
    def test_table_two_value(self):
        got = g2_heralded_predicted(X10, 0.215, 0.198, 0.198 * 0.56 / 0.68)
        assert within_printed(got, "0.023", 0.15)

    def test_branch_swap_symmetry(self):
        a = g2_heralded_predicted(0.128, 0.215, 0.31, 0.11)
        b = g2_heralded_predicted(0.128, 0.215, 0.11, 0.31)
        assert b == pytest.approx(a, rel=1e-12)

    def test_small_x_limit_is_twice_x(self):
        x = 1e-5
        got = g2_heralded_predicted(x, 1e-3, 1e-3, 1e-3)
        assert got / (2 * x) == pytest.approx(1.0, abs=0.02)

    def test_increases_with_x(self):
        xs = [0.01, 0.05, 0.1, 0.2, 0.4]
        vals = [g2_heralded_predicted(x, 0.215, 0.198, 0.163) for x in xs]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize("x", [1e-4, 0.0135, 0.392])
    def test_matches_series_rates(self, x):
        rates = oracle.split_coincidences(1.0, x, 0.215, 0.198, 0.163)
        series = g2_from_counts(rates.sc1h, rates.cc12, rates.cc13, rates.cc123)
        got = g2_heralded_predicted(x, 0.215, 0.198, 0.163)
        assert got == pytest.approx(series, rel=1e-9)


def _row(x, power=10.0, eta1=0.215, eta2=0.198, **kwargs):
    return TableOneRow(
        power_mw=power, sc1=2e5, sc2=2e5, cc=4e4, tau=x / power,
        eta1=eta1, eta2=eta2, pair_rate=1e6, one_pair_rate=1e6,
        mean_pairs=x / (1 - x), x=x, residual=1e-12, iterations=3, **kwargs
    )


class TestReports:
    def test_report_for_inverted_row(self, inverted_rows):
        report = report_for_row(inverted_rows[0])
        assert within_printed(report.g2_heralded, "0.027", 0.02)
        assert within_printed(report.g2_predicted, "0.023", 0.15)
        assert report.g2_unheralded == 2.0
        assert report.g3_unheralded == 6.0
        assert report.g2_measured is None

    def test_measured_counts_flow_through(self):
        row = _row(0.0135, cc12=22e3, cc13=18.4e3, cc123=77.0)
        report = report_for_row(row)
        assert report.g2_measured == pytest.approx(
            g2_from_counts(2e5, 22e3, 18.4e3, 77.0), rel=1e-12
        )

    def test_zero_x_row_flags_divergent_columns(self):
        report = report_for_row(_row(0.0))
        assert report.g2_signal_idler is None
        assert report.g3_signal_idler is None
        assert report.g3_unheralded is None
        assert report.g2_unheralded == 2.0
        assert report.g2_heralded == 0.0

    def test_build_table_two_passthrough_and_empty(self, inverted_rows):
        assert build_table_two([]) == []
        failed = FailedRow(
            record=None, error="inconsistent"
        )
        out = build_table_two([inverted_rows[0], failed])
        assert isinstance(out[0], CorrelationReport)
        assert out[1] is failed

    def test_eta_scale_overrides(self, inverted_rows):
        row = inverted_rows[0]
        default = report_for_row(row)
        symmetric = report_for_row(row, eta3_scale=1.0)
        assert default.g2_predicted == pytest.approx(
            g2_heralded_predicted(
                row.x, row.eta1, row.eta2, row.eta2 * 0.56 / 0.68
            ),
            rel=1e-12,
        )
        assert symmetric.g2_predicted == pytest.approx(
            g2_heralded_predicted(row.x, row.eta1, row.eta2, row.eta2),
            rel=1e-12,
        )
