import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest

import oracle
from spdc_stats import (
    CorrelationReport,
    DetectorChain,
    DivergenceError,
    FailedRow,
    SimConfig,
    SourceLaw,
    TableOneRow,
    build_table_two,
    g2_from_counts,
    g2_heralded_predicted,
    ideal_g,
    report_for_row,
    simulate,
)
from spdc_stats.detector_model import (DEFAULT_ETA3_SCALE, click_sets, g2_stderr,
                                       pair_outcomes)
from checks import g2_cells, rational_rel_error, within_printed

X10 = 10 * 0.00135
X400 = 400 * 0.00098

IDENTITY_GRID = np.linspace(1e-4, 0.6, 100)


def g(x, order, field):
    """ideal_g of the geometric law of x."""
    return ideal_g(SourceLaw.geometric(x), order, field)


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
        value = g2_from_counts(1e6, 5e4, 5e4, 50)
        pulses = 76e6
        cells = g2_cells(10**6, 5 * 10**4, 5 * 10**4, 50)
        sigma = g2_stderr(*(n / pulses for n in cells), pulses)
        assert value == pytest.approx(0.01, rel=1e-12)
        # 50 triple counts dominate: expect sqrt(50)/50 ~ 14%
        assert sigma / value == pytest.approx(np.sqrt(1 / 50), rel=0.01)


class TestG2Stderr:
    @staticmethod
    def assert_matches_oracle(x, eta1, eta2, eta3, pulses):
        # the band on the model's cells against the exact quadratic form on
        # the exact cells
        sets = click_sets(SourceLaw.geometric(x), pair_outcomes(eta1, eta2, eta3))
        got = g2_stderr(sets[7], sets[3] + sets[5], sets[1], pulses)
        exact = oracle.exact_click_sets(x, eta1, eta2, eta3)
        want = oracle.exact_g2_stderr(exact[7], exact[3] + exact[5], exact[1],
                                      pulses)
        assert rational_rel_error(got, want) <= 2e-15, (x, eta1, eta2, eta3)

    def test_bundled_rows_match_quadratic_form(self, inverted_rows):
        for row in inverted_rows:
            self.assert_matches_oracle(
                row.x, row.eta1, row.eta2, row.eta2 * DEFAULT_ETA3_SCALE, 76e6
            )

    def test_seeded_draws_match_quadratic_form(self):
        # x log-uniform over 1e-9 .. 0.99, efficiencies over 1e-6 .. 1
        rng = random.Random(20261019)
        for _ in range(500):
            x = math.exp(rng.uniform(math.log(1e-9), math.log(0.99)))
            etas = [math.exp(rng.uniform(math.log(1e-6), 0.0)) for _ in range(3)]
            self.assert_matches_oracle(x, *etas, rng.uniform(1e3, 1e10))

    @pytest.mark.parametrize(
        "x",
        [1e-12, 1e-9, 1e-6, 1e-4, 0.0135, 0.128, 0.392, 0.7, 0.9, 0.99, 0.9999,
         0.999999],
    )
    def test_exact_rational_grid_matches_quadratic_form(self, x):
        # at points such as x = 0.9999, etas (1e-9, 1, 1), the band written
        # over the nested rates, (2s/u**2) sqrt(t (1 - t/s - 4t/u +
        # 8t**2/u**2)), cancels to 0
        grid = [0.0, 1e-12, 1e-9, 0.163, 0.215, 0.5, 1.0 - 1e-13, 1.0]
        for eta1, eta2, eta3 in itertools.product(grid, repeat=3):
            if eta1 and (eta2 or eta3):
                self.assert_matches_oracle(x, eta1, eta2, eta3, 1e6)

    def test_undefined_without_pairs(self):
        with pytest.raises(DivergenceError):
            g2_stderr(0.0, 0.0, 0.1, 1000)

    @pytest.mark.parametrize("cells,name", [
        ((300e-6, 900e-6, -200e-6), "h"),
        ((300e-6, -1e-6, 200e-6), "q"),
        ((-1e-6, 900e-6, 200e-6), "t"),
    ])
    def test_rejects_negative_cell(self, cells, name):
        # SC1 = 1000, CC12 = 800, CC13 = 700, CC123 = 300 per 1e6 pulses
        # leave a herald-alone cell of -200, which no pulse can produce
        with pytest.raises(ValueError, match=f"cell {name} "):
            g2_stderr(*cells, 1e6)

    def test_band_covers_monte_carlo_runs(self, inverted_rows):
        # 150,000 pulses at the 400 mW row's parameters (about 100
        # triples), 200 fixed seeds, the band taken at each run's observed
        # rates: about 68 % of runs must land within it of the predicted
        # g2, and the runs' spread must match the band.  The bounds are
        # three sampling sigmas: 0.68 +- 0.13 and a ratio of 1 +- 0.15.
        row = inverted_rows[-1]
        assert row.power_mw == 400
        chain = DetectorChain(
            eta1=row.eta1, eta2=row.eta2, eta3=row.eta2 * DEFAULT_ETA3_SCALE
        )
        truth = g2_heralded_predicted(row.x, chain.eta1, chain.eta2, chain.eta3)
        pulses = 150_000
        values, sigmas = [], []
        for seed in range(200):
            c = simulate(SimConfig(
                mode="heralded_split", pulses=pulses, seed=seed, x=row.x,
                chain=chain,
            ))
            tallies = (c.clicks1, c.pair12, c.pair13, c.triple123)
            values.append(g2_from_counts(*tallies))
            sigmas.append(g2_stderr(
                *(n / pulses for n in g2_cells(*tallies)), pulses))
        values, sigmas = np.array(values), np.array(sigmas)
        share = np.mean(np.abs(values - truth) <= sigmas)
        ratio = np.std(values, ddof=1) / np.mean(sigmas)
        assert abs(share - 0.68) <= 0.13, share
        assert abs(ratio - 1.0) <= 0.15, ratio


class TestClosedFormIdentities:
    @pytest.mark.parametrize("x", IDENTITY_GRID)
    def test_unheralded_g2_is_two(self, x):
        assert g(x, 2, "arm") == 2.0
        assert oracle.g2_unheralded(x) == pytest.approx(2.0, rel=1e-8)

    @pytest.mark.parametrize("x", [1e-6, 0.3, 0.5])
    def test_unheralded_g3_is_six(self, x):
        assert g(x, 3, "arm") == 6.0
        assert oracle.g3_unheralded(x) == pytest.approx(6.0, rel=1e-8)

    @pytest.mark.parametrize("x", [1e-4, 0.0135, 0.392, 0.6])
    def test_heralded_ideal_is_twice_x(self, x):
        assert g(x, 2, "heralded") == 2.0 * x
        assert oracle.g2_heralded_ideal(x) == pytest.approx(
            2.0 * x, rel=1e-8
        )

    @pytest.mark.parametrize("x", [1e-4, 0.0135, 0.392, 0.6])
    def test_signal_idler_closed_forms(self, x):
        assert g(x, 2, "pooled") == pytest.approx(1.0 / (2 * x) + 1.5, rel=1e-14)
        assert oracle.g2_signal_idler(x) == pytest.approx(
            g(x, 2, "pooled"), rel=1e-8
        )
        assert g(x, 3, "pooled") == pytest.approx(3.0 * (1 + x) / x, rel=1e-14)
        assert oracle.g3_signal_idler(x) == pytest.approx(
            g(x, 3, "pooled"), rel=1e-8
        )

    @pytest.mark.parametrize("x", [0.0135, 0.392])
    def test_moment_paths(self, x):
        assert oracle.g2_signal_idler_moments(x) == pytest.approx(
            g(x, 2, "pooled"), rel=1e-12
        )
        assert oracle.g3_signal_idler_moments(x) == pytest.approx(
            g(x, 3, "pooled"), rel=1e-12
        )

    def test_signal_idler_limit_toward_full_saturation(self):
        # 1/(2x) + 3/2 -> 2 as x -> 1
        assert g(0.999999, 2, "pooled") == pytest.approx(2.0, abs=1e-5)


class TestIdealG:
    def test_matches_exact_rational(self):
        # 500 x log-uniform over 1e-12 .. 0.999999, from a fixed seed
        rng = random.Random(20261019)
        for _ in range(500):
            x = 10.0 ** rng.uniform(-12.0, math.log10(0.999999))
            for field in ("arm", "heralded", "pooled"):
                for order in (2, 3):
                    want = oracle.exact_ideal_g(x, order, field)
                    got = g(x, order, field)
                    assert rational_rel_error(got, want) <= 4e-16, (x, order, field)

    @pytest.mark.parametrize("nu", [1e-9, 0.0135, 1.0, 30.0, 300.0])
    def test_coherent_law(self, nu):
        # Poisson: r_k = 1, so g = 1 per arm and P = 1 - exp(-nu) heralded;
        # pooled, 1 + 1/(2 nu) and 1 + 3/(2 nu)
        law = SourceLaw.of_mean("coherent", nu)
        assert ideal_g(law, 2, "arm") == 1.0
        assert ideal_g(law, 3, "arm") == 1.0
        assert ideal_g(law, 2, "heralded") == -math.expm1(-nu)
        assert ideal_g(law, 3, "heralded") == math.expm1(-nu) ** 2
        v = Fraction(nu)
        assert rational_rel_error(ideal_g(law, 2, "pooled"), 1 + 1 / (2 * v)) <= 4e-16
        assert rational_rel_error(ideal_g(law, 3, "pooled"), 1 + 3 / (2 * v)) <= 4e-16

    def test_unknown_field(self):
        with pytest.raises(ValueError, match="field"):
            g(0.1, 2, "idler")

    @pytest.mark.parametrize("order", [0, -1, True, 2.5])
    @pytest.mark.parametrize("field", ["arm", "heralded", "pooled"])
    def test_rejects_an_order_below_one_or_not_an_int(self, order, field):
        with pytest.raises(ValueError, match=f"order must be an integer >= 1, got {order}"):
            g(0.1, order, field)


class TestTableTwoValues:
    def test_low_power_row(self):
        assert within_printed(g(X10, 2, "heralded"), "0.027", 0.02)
        assert within_printed(g(X10, 2, "pooled"), "38.593", 0.01)
        assert within_printed(g(X10, 3, "pooled"), "225.56", 0.01)

    def test_high_power_row(self):
        assert within_printed(g(X400, 2, "heralded"), "0.780", 0.01)
        assert within_printed(g(X400, 2, "pooled"), "2.782", 0.01)
        assert within_printed(g(X400, 3, "pooled"), "10.69", 0.01)


class TestDivergences:
    def test_zero_x_contract(self):
        # a column with a finite limit reports it; the pooled ones diverge
        assert g(0.0, 2, "arm") == 2.0
        assert g(0.0, 3, "arm") == 6.0
        assert g(0.0, 2, "heralded") == 0.0
        assert g(0.0, 3, "heralded") == 0.0
        with pytest.raises(DivergenceError):
            g(0.0, 2, "pooled")
        with pytest.raises(DivergenceError):
            g(0.0, 3, "pooled")

    def test_predicted_heralded_zero_x(self):
        assert g2_heralded_predicted(0.0, 0.215, 0.198, 0.163) == 0.0

    def test_predicted_heralded_zero_x_still_checks_etas(self):
        with pytest.raises(ValueError, match="eta1"):
            g2_heralded_predicted(0.0, 1.5, 0.2, 0.2)

    def test_predicted_heralded_underflow_diverges(self):
        # with branch efficiencies below ~1e-162 the pair rates' square
        # underflows even after the cells are rescaled
        assert g2_heralded_predicted(0.1, 0.2, 1e-160, 1e-160) > 0.0
        with pytest.raises(DivergenceError, match="underflows"):
            g2_heralded_predicted(0.1, 0.2, 1e-165, 1e-165)


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
        series = g2_from_counts(rates["clicks1"], rates["pair12"], rates["pair13"],
                                rates["triple123"])
        got = g2_heralded_predicted(x, 0.215, 0.198, 0.163)
        assert got == pytest.approx(series, rel=1e-9)


def _row(x, power=10.0, eta1=0.215, eta2=0.198, **kwargs):
    return TableOneRow(
        power_mw=power, sc1=2e5, sc2=2e5, cc=4e4, tau=x / power,
        eta1=eta1, eta2=eta2, pair_rate=1e6, one_pair_rate=1e6,
        mean_pairs=x / (1 - x), x=x, residual=1e-12, **kwargs
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
        assert report.g3_unheralded == 6.0
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

    def test_eta2_scale(self, inverted_rows):
        row = inverted_rows[0]
        report = report_for_row(row, eta2_scale=0.5)
        assert report.g2_predicted == g2_heralded_predicted(
            row.x, row.eta1, 0.5 * row.eta2, row.eta2 * DEFAULT_ETA3_SCALE
        )

    def test_branch_scaled_past_one_is_clamped(self):
        # both branches at 1.2 predict as perfect detectors
        row = _row(0.0135, eta2=0.6)
        report = report_for_row(row, eta2_scale=2.0, eta3_scale=2.0)
        assert report.g2_predicted == g2_heralded_predicted(
            row.x, row.eta1, 1.0, 1.0
        )

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
