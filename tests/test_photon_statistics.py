import math
from decimal import Decimal, localcontext

import numpy as np
import pytest

import oracle
from spdc_stats import (
    ResourceLimitError,
    SourceLaw,
    truncation_order,
)
from spdc_stats.detector_model import click_sets, pair_outcomes
from spdc_stats.photon_statistics import click_moment, emission_probability
from checks import geometric_counts, within_printed
from oracle import (
    CoherentDistribution,
    PairDistribution,
    factorial_moment,
    pair_probability,
    weighted_pair_sum,
)

X_GRID = [1e-4, 0.0135, 0.128, 0.392, 0.6]


class TestPairProbability:
    def test_vacuum_certain_at_zero(self):
        assert pair_probability(0, 0.0) == 1.0

    def test_single_pair_at_half(self):
        assert pair_probability(1, 0.5) == pytest.approx(0.25, abs=0)

    def test_two_pair_value(self):
        p = pair_probability(2, 0.0135)
        assert p == (1.0 - 0.0135) * 0.0135**2
        assert p == pytest.approx(1.798e-4, rel=1e-3)

    def test_vectorized_matches_scalar(self):
        n = np.arange(6)
        vec = pair_probability(n, 0.3)
        assert vec.shape == (6,)
        for k in range(6):
            assert vec[k] == pair_probability(k, 0.3)

    @pytest.mark.parametrize("bad_x", [-0.1, 1.0, 1.5, float("nan")])
    def test_rejects_bad_x(self, bad_x):
        with pytest.raises(ValueError, match="x"):
            pair_probability(1, bad_x)

    @pytest.mark.parametrize("bad_n", [-1, 0.5])
    def test_rejects_bad_n(self, bad_n):
        with pytest.raises(ValueError):
            pair_probability(bad_n, 0.3)

    def test_monte_carlo_frequency(self):
        # empirical frequencies over 1e7 draws agree with the pmf within
        # 5 standard errors for every n up to 10
        x = 0.0135
        m = 10_000_000
        counts = geometric_counts(x, 20240901, m)
        for n in range(11):
            p = pair_probability(n, x)
            freq = (counts[n] if n < counts.size else 0) / m
            se = np.sqrt(p * (1.0 - p) / m)
            assert abs(freq - p) <= 5.0 * se + 1e-12


class TestTruncationOrder:
    def test_zero_x_floor(self):
        assert truncation_order(0.0, 1e-12) == 1

    def test_documented_orders(self):
        assert truncation_order(0.5, 1e-12) == 39
        assert truncation_order(0.392, 1e-12) == 29

    @pytest.mark.parametrize("x", [0.1, 0.3, 0.62, 0.9])
    @pytest.mark.parametrize("eps", [1e-6, 1e-12])
    def test_minimal_against_brute_force(self, x, eps):
        n_max = truncation_order(x, eps)
        assert x ** (n_max + 1) <= eps
        assert n_max == 1 or x**n_max > eps

    def test_rejects_bad_eps(self):
        with pytest.raises(ValueError):
            truncation_order(0.5, 0.0)
        with pytest.raises(ValueError):
            truncation_order(0.5, 1.0)

    def test_hard_cap(self):
        with pytest.raises(ResourceLimitError):
            truncation_order(0.999, 1e-12)


class TestPairDistribution:
    @pytest.mark.parametrize("x", [0.0, 0.3, 0.7, 0.99])
    def test_normalization_with_tail(self, x):
        dist = PairDistribution(x)
        total = dist.probabilities().sum() + dist.tail_mass
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_tail_mass_is_geometric_tail(self):
        dist = PairDistribution(0.3)
        assert dist.tail_mass == pytest.approx(0.3 ** (dist.n_max + 1), rel=1e-15)

    def test_pmf_matches_pair_probability(self):
        dist = PairDistribution(0.392)
        n = np.arange(dist.n_max + 1)
        assert np.allclose(dist.pmf(n), pair_probability(n, 0.392), rtol=0, atol=0)

    def test_zero_x(self):
        dist = PairDistribution(0.0)
        assert dist.n_max == 1
        assert dist.probabilities()[0] == 1.0


class TestCoherentDistribution:
    @pytest.mark.parametrize("nu", [0.0, 0.1, 1.0, 5.0, 20.0])
    def test_normalization(self, nu):
        dist = CoherentDistribution(nu)
        assert dist.probabilities().sum() == pytest.approx(1.0, abs=1e-11)

    def test_pmf_values(self):
        dist = CoherentDistribution(2.0)
        assert dist.pmf(0) == pytest.approx(np.exp(-2.0), rel=1e-12)
        assert dist.pmf(3) == pytest.approx(np.exp(-2.0) * 8.0 / 6.0, rel=1e-12)

    def test_zero_mean(self):
        dist = CoherentDistribution(0.0)
        assert dist.pmf(0) == 1.0

    def test_rejects_negative_mean(self):
        with pytest.raises(ValueError):
            CoherentDistribution(-1.0)

    # (nu, n_max, tail_mass) as scipy.stats.poisson gave them: n_max from
    # isf(1e-12, nu) + 1, tail_mass from sf(n_max, nu)
    PINNED = [
        (0.0, 1, 0.0),
        (0.1, 8, 2.5186528355301156e-15),
        (2.0, 19, 6.443731393112101e-14),
        (10.0, 40, 1.7773417493499637e-13),
        (100.0, 179, 4.1048515842012357e-13),
    ]

    @pytest.mark.parametrize("nu, n_max, tail", PINNED)
    def test_truncation_pinned(self, nu, n_max, tail):
        dist = CoherentDistribution(nu)
        assert dist.n_max == n_max
        assert dist.tail_mass == pytest.approx(tail, rel=1e-13, abs=0)

    @pytest.mark.parametrize("nu", [0.1, 2.0, 10.0, 100.0])
    def test_probabilities_exact(self, nu):
        # reference: exp(n ln nu - nu - ln n!) in 50-digit decimal
        # arithmetic (scipy's own pmf is 1.9e-13 off at nu = 100)
        dist = CoherentDistribution(nu)
        with localcontext() as ctx:
            ctx.prec = 50
            d = Decimal(nu)
            ref = np.array([
                float((d.ln() * n - d - Decimal(math.factorial(n)).ln()).exp())
                for n in range(dist.n_max + 1)
            ])
        got = dist.probabilities()
        assert np.max(np.abs(got / ref - 1.0)) <= 1e-13
        assert dist.pmf(np.arange(dist.n_max + 1)).tolist() == got.tolist()
        assert dist.pmf(10**12) == 0.0


class TestMeanAndMoments:
    def test_mean_closed_form(self):
        assert SourceLaw.geometric(0.0).mean == 0.0
        assert SourceLaw.geometric(0.5).mean == pytest.approx(1.0, rel=1e-15)

    @pytest.mark.parametrize("x", X_GRID)
    def test_mean_series_matches_closed(self, x):
        closed = SourceLaw.geometric(x).mean
        series = oracle.mean_pairs_per_pulse(x)
        assert series == pytest.approx(closed, rel=1e-10)

    def test_mean_monotone_in_x(self):
        xs = np.linspace(0.0, 0.9, 40)
        means = [SourceLaw.geometric(float(x)).mean for x in xs]
        assert all(b > a for a, b in zip(means, means[1:]))

    def test_table_one_mean_values(self):
        assert within_printed(SourceLaw.geometric(10 * 0.00135).mean, "0.014", 0.02)
        assert within_printed(SourceLaw.geometric(400 * 0.00098).mean, "0.640", 0.02)

    @pytest.mark.parametrize("order", [1, 2, 3, 4])
    @pytest.mark.parametrize("x", [0.0135, 0.392, 0.6])
    def test_factorial_moment_two_paths(self, order, x):
        closed = math.factorial(order) * SourceLaw.geometric(x).mean ** order
        series = factorial_moment(x, order)
        mu = x / (1.0 - x)
        assert closed == pytest.approx(math.factorial(order) * mu**order, rel=1e-12)
        assert series == pytest.approx(closed, rel=1e-9)

    def test_factorial_moment_rejects_bad_order(self):
        with pytest.raises(ValueError):
            factorial_moment(0.3, 0)


LAWS = [("thermal", x) for x in (1e-6, 0.0135, 0.392, 0.9)] + [
    ("coherent", mu) for mu in (1e-3, 0.5, 2.0, 30.0)
]


def law_of(kind: str, p: float) -> SourceLaw:
    """The law whose sampler parameter is p: x (thermal) or the mean."""
    return SourceLaw.geometric(p) if kind == "thermal" else SourceLaw.of_mean(kind, p)


class TestSourceLaws:
    @pytest.mark.parametrize("eta", [0.0, 1e-9, 0.2, 0.8, 1.0])
    @pytest.mark.parametrize("k", range(1, 7))
    @pytest.mark.parametrize("kind,p", LAWS)
    def test_moment_matches_series(self, kind, p, k, eta):
        # E[n**k z**n] is G(z) times the k-th moment of the law tilted to
        # (kind, p z), so z < 1 checks the moment at p z against the series
        z = 1.0 - eta
        g = (1.0 - p) / (1.0 - p * z) if kind == "thermal" else math.exp(-p * (1.0 - z))
        tilted = p * z / (1.0 - p * z) if kind == "thermal" else p * z
        got = g * click_moment(SourceLaw.of_mean(kind, tilted), 1.0, k)
        want = oracle.source_moment(kind, p, k, z)
        assert math.isclose(got, want, rel_tol=1e-12, abs_tol=0.0)

    @pytest.mark.parametrize("eta", [0.0, 1e-12, 1e-9, 1e-3, 0.37, 0.8, 1.0])
    @pytest.mark.parametrize("mean", [0.0, 1e-3, 0.1, 0.5, 2.0, 10.0, 30.0, 300.0])
    @pytest.mark.parametrize("kind", ["thermal", "coherent"])
    def test_click_moment_matches_decimal(self, kind, mean, eta):
        for k in range(7):
            got = click_moment(SourceLaw.of_mean(kind, mean), eta, k)
            want = oracle.click_moment_decimal(kind, mean, eta, k)
            assert math.isclose(got, want, rel_tol=1e-15, abs_tol=0.0), k

    @pytest.mark.parametrize("kind,p", LAWS)
    def test_emission_probability_is_one_minus_vacuum(self, kind, p):
        vacuum = 1.0 - p if kind == "thermal" else math.exp(-p)
        assert emission_probability(law_of(kind, p)) == pytest.approx(
            1.0 - vacuum, rel=1e-9)

    @pytest.mark.parametrize("kind", ["thermal", "coherent"])
    def test_empty_source(self, kind):
        law = SourceLaw.of_mean(kind, 0.0)
        assert emission_probability(law) == 0.0
        assert click_moment(law, 1.0, 6) == 0.0

    @pytest.mark.parametrize("kind,p", LAWS)
    def test_law_keeps_its_parameter(self, kind, p):
        # the sampler reads p bit for bit, and of_mean forms it from the mean
        law = law_of(kind, p)
        assert law.kind == kind and law.p == p
        assert law.mean == (p / (1.0 - p) if kind == "thermal" else p)
        rebuilt = SourceLaw.of_mean(kind, law.mean)
        assert rebuilt.mean == law.mean
        assert math.isclose(rebuilt.p, p, rel_tol=4e-16, abs_tol=0.0)

    @pytest.mark.parametrize("mean", [math.nan, math.inf, -math.inf, -0.5, -1.0, None])
    @pytest.mark.parametrize("kind", ["thermal", "coherent"])
    def test_of_mean_rejects_bad_mean(self, kind, mean):
        # -0.5 gave negative click probabilities and -1.0 a ZeroDivisionError
        with pytest.raises(ValueError, match="finite and >= 0"):
            SourceLaw.of_mean(kind, mean)

    def test_of_mean_rejects_unknown_kind(self):
        # a squeezed law was read as the Poisson law
        with pytest.raises(ValueError, match="source_kind"):
            SourceLaw.of_mean("squeezed", 2.0)

    @pytest.mark.parametrize("bad_x", [-0.1, 1.0, float("nan")])
    def test_geometric_rejects_bad_x(self, bad_x):
        with pytest.raises(ValueError, match="x"):
            SourceLaw.geometric(bad_x)

    @pytest.mark.parametrize("eta", [0.0, 1e-12, 0.37, 1.0])
    @pytest.mark.parametrize("mean", [0.0, 1e-3, 2.0, 30.0, 300.0])
    @pytest.mark.parametrize("kind", ["thermal", "coherent"])
    def test_miss_is_the_generating_function(self, kind, mean, eta):
        # the empty cell of one detector's click sets against G(1 - eta) in
        # 60-digit decimal, 1 / (1 + w) or exp(-w), at the float
        # w = eta * mean: its rounding costs w ulps in exp(-w)
        with localcontext() as ctx:
            ctx.prec = 60
            w = Decimal(eta * mean)
            want = 1 / (1 + w) if kind == "thermal" else (-w).exp()
        got = click_sets(SourceLaw.of_mean(kind, mean), pair_outcomes(eta))[0]
        assert math.isclose(got, float(want), rel_tol=2.3e-16, abs_tol=0.0)


class TestRates:
    def test_table_one_rates(self, inverted_rows):
        rows = {row.power_mw: row for row in inverted_rows}
        assert within_printed(rows[10].pair_rate, "1.04e6", 0.02)
        assert within_printed(rows[400].pair_rate, "48.62e6", 0.02)
        assert within_printed(rows[10].one_pair_rate, "1.01e6", 0.02)
        assert within_printed(rows[400].one_pair_rate, "18.08e6", 0.02)
        # both columns are f times the row's law, bit for bit (f = 76 MHz)
        for row in inverted_rows:
            assert row.pair_rate == 76e6 * row.mean_pairs
            assert row.one_pair_rate == 76e6 * (1 - row.x) * row.x


class TestWeightedPairSum:
    def test_total_mass(self):
        for x in X_GRID:
            total = weighted_pair_sum(x, lambda n: np.ones_like(n, dtype=float))
            assert total == pytest.approx(1.0, rel=1e-10)

    def test_mean_weight(self):
        x = 0.392
        total = weighted_pair_sum(x, lambda n: n.astype(float))
        assert total == pytest.approx(x / (1.0 - x), rel=1e-10)

    def test_n_start_skips_vanishing_terms(self):
        x = 0.128
        full = weighted_pair_sum(x, lambda n: n * (n - 1.0))
        skipped = weighted_pair_sum(x, lambda n: n * (n - 1.0), n_start=2)
        assert skipped == pytest.approx(full, rel=1e-12)
