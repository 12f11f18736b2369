import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spdc_stats import (
    CountRecord,
    DataInconsistencyError,
    DetectorChain,
    FailedRow,
    InversionError,
    SimConfig,
    TableOneRow,
    build_table,
    invert_counts,
    simulate,
    two_arm_rates,
)
from spdc_stats import inversion
from checks import sde_from_attenuated_laser, within_printed

F = 76e6


class TestInvertCounts:
    def test_low_power_row(self):
        res = invert_counts(F, 10, 223e3, 205e3, 45e3)
        assert within_printed(res.tau, "0.00135", 0.02)
        assert within_printed(res.eta1, "0.215", 0.02)
        assert within_printed(res.eta2, "0.198", 0.02)
        assert res.residual <= 1e-9

    def test_high_power_row(self):
        res = invert_counts(F, 400, 5.626e6, 4.865e6, 1.170e6)
        assert within_printed(res.tau, "0.00098", 0.02)
        assert within_printed(res.eta1, "0.125", 0.02)
        assert within_printed(res.eta2, "0.107", 0.02)

    def test_reported_residual_is_recomputable(self):
        res = invert_counts(F, 10, 223e3, 205e3, 45e3)
        pred = two_arm_rates(F, 10 * res.tau, res.eta1, res.eta2)
        rel = max(
            abs(pred.sc1 / 223e3 - 1.0),
            abs(pred.sc2 / 205e3 - 1.0),
            abs(pred.cc / 45e3 - 1.0),
        )
        assert rel == pytest.approx(res.residual, abs=1e-12)

    def test_synthetic_round_trip(self):
        tau, eta1, eta2, p = 0.002, 0.3, 0.25, 50
        pred = two_arm_rates(F, p * tau, eta1, eta2)
        res = invert_counts(F, p, pred.sc1, pred.sc2, pred.cc)
        assert res.tau == pytest.approx(tau, rel=1e-8)
        assert res.eta1 == pytest.approx(eta1, rel=1e-8)
        assert res.eta2 == pytest.approx(eta2, rel=1e-8)

    def test_randomized_round_trips(self):
        rng = np.random.default_rng(7151)
        for _ in range(200):
            x = rng.uniform(1e-4, 0.7)
            eta1 = rng.uniform(0.02, 0.99)
            eta2 = rng.uniform(0.02, 0.99)
            pred = two_arm_rates(F, x, eta1, eta2)
            res = invert_counts(F, 50, pred.sc1, pred.sc2, pred.cc)
            assert 50 * res.tau == pytest.approx(x, rel=1e-6)
            assert res.eta1 == pytest.approx(eta1, rel=1e-6)
            assert res.eta2 == pytest.approx(eta2, rel=1e-6)

    def test_perfectly_correlated_counts(self):
        res = invert_counts(F, 10, 1e5, 1e5, 1e5)
        assert res.eta1 == pytest.approx(1.0, abs=1e-9)
        assert res.eta2 == pytest.approx(1.0, abs=1e-9)
        assert 10 * res.tau == pytest.approx(1e5 / F, rel=1e-6)

    def test_rejects_coincidences_above_singles(self):
        with pytest.raises(DataInconsistencyError, match="exceeds"):
            invert_counts(F, 10, 2, 2, 4)

    def test_rejects_anticorrelated_counts(self):
        # bucket clicks on a shared pair number are positively correlated,
        # so cc * f < sc1 * sc2 admits no solution
        with pytest.raises(DataInconsistencyError, match=r"c > s1\*s2"):
            invert_counts(F, 10, 1e6, 1e6, 1.0)

    def test_rejects_counts_that_need_zero_efficiency(self):
        # above the accidental floor and below both singles, yet the only
        # solution has x >= 1, i.e. eta <= 0
        with pytest.raises(DataInconsistencyError, match="0 < x < 1"):
            invert_counts(F, 10, 0.5 * F, 0.5 * F, 0.26 * F)

    def test_rejects_rates_whose_product_underflows(self):
        # s1 s2 underflows to 0, so x = 0 and no efficiency solves the rates
        with pytest.raises(DataInconsistencyError, match="0 < x < 1"):
            invert_counts(F, 10, 1e-170, 1e-170, 1e-170)

    @pytest.mark.parametrize(
        "sc1,sc2,cc,saturated",
        [(223e3, 205e3, 205e3, "eta1"), (205e3, 223e3, 205e3, "eta2")],
    )
    def test_coincidences_equal_to_a_singles_rate(self, sc1, sc2, cc, saturated):
        # the exact solution is eta = 1; unclamped it rounds to 1 + 2.2e-16
        res = invert_counts(F, 10, sc1, sc2, cc)
        assert getattr(res, saturated) == 1.0

    def test_residual_gate(self, monkeypatch):
        monkeypatch.setattr(inversion, "RESIDUAL_MAX", 0.0)
        with pytest.raises(InversionError, match="residual") as info:
            invert_counts(F, 10, 223e3, 205e3, 45e3)
        assert info.value.residual > 0
        (row,) = build_table([CountRecord(10, 223e3, 205e3, 45e3)], F)
        assert isinstance(row, FailedRow)

    # eta = 1 and its last ulps, where cc equals a singles rate, are drawn
    # on their own as well as inside the full range
    ETAS = st.one_of(
        st.floats(1e-6, 1.0), st.just(1.0), st.floats(1.0 - 1e-13, 1.0)
    )

    @settings(max_examples=300, deadline=None)
    @given(log_x=st.floats(np.log(1e-9), np.log(0.99)), eta1=ETAS, eta2=ETAS)
    def test_forward_then_inverse_is_identity(self, log_x, eta1, eta2):
        x = float(np.exp(log_x))
        pred = two_arm_rates(F, x, eta1, eta2)
        res = invert_counts(F, 1.0, pred.sc1, pred.sc2, pred.cc)
        assert res.x == pytest.approx(x, rel=1e-11)
        assert res.eta1 == pytest.approx(eta1, rel=1e-11)
        assert res.eta2 == pytest.approx(eta2, rel=1e-11)
        assert res.residual <= 1e-13

    @pytest.mark.parametrize(
        "sc1,sc2,cc",
        [(0.0, 205e3, 45e3), (223e3, 205e3, 0.0), (80e6, 205e3, 45e3)],
    )
    def test_rejects_degenerate_rates(self, sc1, sc2, cc):
        with pytest.raises(DataInconsistencyError):
            invert_counts(F, 10, sc1, sc2, cc)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, 0.0, -1.0])
    def test_rejects_bad_rep_rate(self, bad):
        with pytest.raises(ValueError, match="repetition rate") as info:
            invert_counts(bad, 10, 223e3, 205e3, 45e3)
        assert type(info.value) is ValueError

    @pytest.mark.parametrize("bad", [math.nan, math.inf, 0.0, -1.0])
    def test_rejects_bad_power(self, bad):
        with pytest.raises(ValueError, match="power") as info:
            invert_counts(F, bad, 223e3, 205e3, 45e3)
        assert type(info.value) is ValueError

    def test_sigma_bands_optional(self):
        plain = invert_counts(F, 10, 223e3, 205e3, 45e3)
        assert plain.tau_sigma is None
        banded = invert_counts(F, 10, 223e3, 205e3, 45e3, integration_time=1.0)
        assert banded.tau_sigma > 0
        assert banded.eta1_sigma > 0
        assert banded.eta2_sigma > 0
        # a counting experiment this long pins tau to better than a percent
        assert banded.tau_sigma / banded.tau < 0.01

    def test_sigma_bands_cover_monte_carlo_runs(self, inverted_rows):
        # 10 ms of pulses at the 10 mW row's parameters, 200 fixed seeds:
        # about 68 % of runs must invert to within their own 1-sigma band
        # (0.68 +- 0.13 is four binomial sigmas)
        truth = inverted_rows[0]
        pulses = 760_000
        t = pulses / F
        chain = DetectorChain(eta1=truth.eta1, eta2=truth.eta2)
        inside = np.zeros(3)
        for seed in range(200):
            counts = simulate(SimConfig(
                mode="two_arm", pulses=pulses, seed=seed, x=truth.x, chain=chain,
            ))
            res = invert_counts(
                F, truth.power_mw, counts.clicks1 / t, counts.clicks2 / t,
                counts.pair12 / t, integration_time=t,
            )
            inside += [
                abs(res.tau - truth.tau) <= res.tau_sigma,
                abs(res.eta1 - truth.eta1) <= res.eta1_sigma,
                abs(res.eta2 - truth.eta2) <= res.eta2_sigma,
            ]
        share = inside / 200
        assert np.all(np.abs(share - 0.68) <= 0.13), share


def forward_jacobian(x, eta1, eta2):
    """d(model rates)/d(eta1, eta2, x), rows in (m1, m2, mc) order."""
    z1, z2 = 1.0 - eta1, 1.0 - eta2
    d1 = 1.0 - z1 * x
    d2 = 1.0 - z2 * x
    d12 = 1.0 - z1 * z2 * x
    gx = (1.0 - x) * x
    return [
        [gx / d1**2, 0.0, eta1 / d1**2],
        [0.0, gx / d2**2, eta2 / d2**2],
        [
            gx / d1**2 - gx * z2 / d12**2,
            gx / d2**2 - gx * z1 / d12**2,
            eta1 / d1**2 + eta2 / d2**2 - (1.0 - z1 * z2) / d12**2,
        ],
    ]


class TestPropagateSigma:
    """The gradients of the explicit inverse against numpy's J^-1 S J^-T
    for the forward Jacobian J."""

    @staticmethod
    def numpy_sigma(f, power_mw, probs, params, integration_time):
        eta1, eta2, x = params
        s1, s2, c = probs
        jinv = np.linalg.inv(np.array(forward_jacobian(x, eta1, eta2)))
        cov_rates = np.array([
            [s1 * (1.0 - s1), c - s1 * s2, c * (1.0 - s1)],
            [c - s1 * s2, s2 * (1.0 - s2), c * (1.0 - s2)],
            [c * (1.0 - s1), c * (1.0 - s2), c * (1.0 - c)],
        ]) / (f * integration_time)
        sig = np.sqrt(np.clip(np.diag(jinv @ cov_rates @ jinv.T), 0.0, None))
        return sig[2] / power_mw, sig[0], sig[1]

    def assert_matches_numpy(self, power_mw, probs, params, integration_time):
        got = inversion._propagate_sigma(F, power_mw, probs, integration_time)
        want = self.numpy_sigma(F, power_mw, probs, params, integration_time)
        for g, w in zip(got, want):
            assert g == pytest.approx(w, rel=1e-12, abs=0)

    def test_bundled_rows(self, bundled_records):
        for rec in bundled_records:
            res = invert_counts(F, rec.power_mw, rec.sc1, rec.sc2, rec.cc)
            self.assert_matches_numpy(
                rec.power_mw, (rec.sc1 / F, rec.sc2 / F, rec.cc / F),
                (res.eta1, res.eta2, res.x), 1.0,
            )

    def test_seeded_draws(self):
        # x log-uniform over 1e-6 .. 0.9, efficiencies over 0.01 .. 0.99
        rng = random.Random(20240611)
        for _ in range(200):
            x = math.exp(rng.uniform(math.log(1e-6), math.log(0.9)))
            eta1, eta2 = rng.uniform(0.01, 0.99), rng.uniform(0.01, 0.99)
            pred = two_arm_rates(1.0, x, eta1, eta2)
            probs = (pred.sc1, pred.sc2, pred.cc)
            self.assert_matches_numpy(
                rng.uniform(1.0, 400.0), probs, (eta1, eta2, x),
                rng.uniform(1e-3, 10.0),
            )


def mpmath_sigma(f, power_mw, probs, integration_time):
    """The bands from 50-digit mpmath derivatives of the explicit solution
    at the float rates, through the same multinomial covariance."""
    mpmath = pytest.importorskip("mpmath")
    mp = mpmath.mp

    def solution(s1, s2, c):
        x = s1 * s2 * (1 - s1 - s2 + c) / (c - s1 * s2)
        return s1 * (1 - x) / ((1 - s1) * x), s2 * (1 - x) / ((1 - s2) * x), x

    orders = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    with mp.workdps(50):
        s = [mp.mpf(p) for p in probs]
        grads = [
            [mp.diff(lambda *v: solution(*v)[i], s, order) for order in orders]
            for i in range(3)
        ]
        s1, s2, c = s
        cov = [
            [s1 * (1 - s1), c - s1 * s2, c * (1 - s1)],
            [c - s1 * s2, s2 * (1 - s2), c * (1 - s2)],
            [c * (1 - s1), c * (1 - s2), c * (1 - c)],
        ]
        pulses = mp.mpf(f) * mp.mpf(integration_time)
        sig = [
            mp.sqrt(sum(g[i] * cov[i][j] * g[j] for i in range(3) for j in range(3))
                    / pulses)
            for g in grads
        ]
        return float(sig[2] / power_mw), float(sig[0]), float(sig[1])


class TestComplexStepBands:
    """The complex-step bands against 50-digit derivatives of the same
    explicit solution."""

    @staticmethod
    def assert_matches_mpmath(power_mw, probs, integration_time):
        got = inversion._propagate_sigma(F, power_mw, probs, integration_time)
        want = mpmath_sigma(F, power_mw, probs, integration_time)
        for g, w in zip(got, want):
            assert g == pytest.approx(w, rel=1e-12, abs=0)

    def test_bundled_rows(self, bundled_records):
        for rec in bundled_records:
            self.assert_matches_mpmath(
                rec.power_mw, (rec.sc1 / F, rec.sc2 / F, rec.cc / F), 1.0)

    def test_log_uniform_draws(self):
        # x log-uniform over 1e-9 .. 0.99, efficiencies over 1e-3 .. 1
        rng = random.Random(20261020)
        for _ in range(200):
            x = math.exp(rng.uniform(math.log(1e-9), math.log(0.99)))
            eta1, eta2 = (math.exp(rng.uniform(math.log(1e-3), 0.0)) for _ in "12")
            pred = two_arm_rates(1.0, x, eta1, eta2)
            self.assert_matches_mpmath(
                rng.uniform(1.0, 400.0), (pred.sc1, pred.sc2, pred.cc),
                rng.uniform(1e-3, 10.0),
            )


class TestSdeCalibration:
    def test_definitional_identity(self):
        h, c = 6.62607015e-34, 299792458.0
        power, wavelength = 1e-12, 1550e-9
        sc = power * wavelength / (h * c)
        assert sde_from_attenuated_laser(sc, power, wavelength) == pytest.approx(
            1.0, rel=1e-12
        )

    def test_zero_counts(self):
        assert sde_from_attenuated_laser(0.0, 1e-13, 1550e-9) == 0.0

    def test_calibration_point(self):
        got = sde_from_attenuated_laser(4.75e5, 1e-13, 1550e-9)
        assert within_printed(got, "0.609", 0.005)

    def test_rejects_nonpositive_inputs(self):
        with pytest.raises(ValueError):
            sde_from_attenuated_laser(1e5, 0.0, 1550e-9)
        with pytest.raises(ValueError):
            sde_from_attenuated_laser(1e5, 1e-13, -1.0)


class TestCountRecord:
    def test_split_counts_all_or_none(self):
        with pytest.raises(ValueError, match="cc12"):
            CountRecord(power_mw=10, sc1=2e5, sc2=2e5, cc=4e4, cc12=2e4)

    @pytest.mark.parametrize(
        "field", ["power_mw", "sc1", "sc2", "cc", "cc12", "cc13", "cc123"]
    )
    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_rejects_nonfinite_values(self, field, bad):
        values = dict(power_mw=10, sc1=2e5, sc2=2e5, cc=4e4,
                      cc12=2e4, cc13=1.8e4, cc123=77)
        values[field] = bad
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            CountRecord(**values)


class TestBuildTable:
    def test_empty_input(self):
        assert build_table([], F) == []

    @pytest.mark.parametrize("bad", [math.nan, math.inf, 0.0, -1.0])
    def test_bad_rep_rate_raises_before_any_row(self, bundled_records, bad):
        # it would fail every row alike, so it is no per-row failure
        for records in ([], bundled_records):
            with pytest.raises(ValueError, match="repetition rate"):
                build_table(records, bad)

    def test_full_sweep_infers_all_rows(self, inverted_rows):
        assert len(inverted_rows) == 16
        assert all(isinstance(r, TableOneRow) for r in inverted_rows)

    def test_mean_pairs_strictly_increase_with_power(self, inverted_rows):
        nbar = [r.mean_pairs for r in inverted_rows]
        assert all(b > a for a, b in zip(nbar, nbar[1:]))

    def test_x_consistent_with_tau(self, inverted_rows):
        for row in inverted_rows:
            assert row.x == pytest.approx(row.power_mw * row.tau, rel=1e-12)

    def test_poisoned_row_isolated(self, bundled_records):
        records = list(bundled_records[:2])
        records.insert(
            1, CountRecord(power_mw=15, sc1=2e5, sc2=2e5, cc=3e5)
        )
        table = build_table(records, F)
        assert isinstance(table[0], TableOneRow)
        assert isinstance(table[1], FailedRow)
        assert "inconsistent" in table[1].error
        assert isinstance(table[2], TableOneRow)
