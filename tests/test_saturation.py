import math

import numpy as np
import pytest

from spdc_stats import (
    GAP_PEAK_Z,
    SaturationCurve,
    click_gap,
    curve,
    default_mean_grid,
    saturation_gap,
)
from spdc_stats.photon_statistics import SourceLaw, click_moment


class TestCurve:
    def test_default_grid(self):
        grid = default_mean_grid()
        assert len(grid) == 60
        assert grid[0] == pytest.approx(1e-2)
        assert grid[-1] == pytest.approx(1e2)

    def test_dead_detector_is_flat_zero(self):
        for kind in ("thermal", "coherent"):
            cv = curve(kind, eta=0.0)
            assert all(d == 0.0 for _, d in cv.points)

    def test_perfect_detector_click_values(self):
        grid = np.array([3.0])
        coh = curve("coherent", eta=1.0, mean_grid=grid)
        assert coh.detected[0] == pytest.approx(1.0 - math.exp(-3.0), rel=1e-12)
        assert coh.detected[0] == pytest.approx(0.9502, abs=5e-5)
        th = curve("thermal", eta=1.0, mean_grid=grid)
        assert th.detected[0] == pytest.approx(0.75, rel=1e-12)

    def test_matches_pointwise_model(self):
        cv = curve("thermal", eta=0.37, variant="literal")
        for mean, detected in cv.points:
            assert detected == pytest.approx(
                click_moment(SourceLaw.of_mean("thermal", mean), 0.37, 1),
                rel=1e-12,
            )

    def test_monotone_in_mean(self):
        for kind in ("thermal", "coherent"):
            for variant in ("click", "literal"):
                cv = curve(kind, eta=0.6, variant=variant)
                assert all(
                    b >= a for a, b in zip(cv.detected, cv.detected[1:])
                )

    def test_click_bounded_by_one(self):
        cv = curve("coherent", eta=0.99)
        assert max(cv.detected) <= 1.0
        moderate = [d for m, d in cv.points if m <= 10.0]
        assert max(moderate) < 1.0

    def test_curve_is_frozen_record(self):
        cv = curve("thermal", eta=0.5)
        assert isinstance(cv, SaturationCurve)
        assert cv.source_kind == "thermal"
        assert cv.variant == "click"
        with pytest.raises(AttributeError):
            cv.eta = 0.7

    def test_rejects_bad_labels(self):
        with pytest.raises(ValueError):
            curve("squeezed", eta=0.5)
        with pytest.raises(ValueError):
            curve("thermal", eta=0.5, variant="other")


class TestGap:
    def test_spot_value(self):
        gap = saturation_gap(0.8, mean_grid=np.array([2.0]))[0][1]
        expected = (1.0 - math.exp(-1.6)) - (1.0 - 1.0 / 2.6)
        assert gap == pytest.approx(expected, rel=1e-12)
        assert gap == pytest.approx(0.1827, abs=5e-5)

    def test_zero_mean_zero_gap(self):
        gap = saturation_gap(0.8, mean_grid=np.array([0.0]))[0][1]
        assert gap == 0.0

    def test_coherent_dominates_thermal_everywhere(self):
        grid = default_mean_grid()
        for eta in np.linspace(0.1, 1.0, 10):
            for mean, gap in saturation_gap(float(eta), mean_grid=grid):
                assert gap > 0.0

    def test_gap_grows_with_eta_before_saturation(self):
        # gap depends on eta and mean only through z = eta * mean and
        # peaks at GAP_PEAK_Z, so below that product it must grow with eta
        for mean in [0.2, 1.0, 2.5]:
            gaps = [
                saturation_gap(eta, mean_grid=np.array([mean]))[0][1]
                for eta in np.linspace(0.1, 1.0, 10)
            ]
            assert all(b > a for a, b in zip(gaps, gaps[1:]))

    def test_gap_turns_over_past_peak(self):
        low = saturation_gap(0.3, mean_grid=np.array([10.0]))[0][1]
        high = saturation_gap(1.0, mean_grid=np.array([10.0]))[0][1]
        assert high < low

    def test_small_eta_quadratic_limit(self):
        eta = 1e-4
        for mean in [0.5, 1.0, 2.0]:
            gap = saturation_gap(eta, mean_grid=np.array([mean]))[0][1]
            assert gap / eta**2 == pytest.approx(mean**2 / 2.0, rel=0.01)

    def test_variants_agree_to_first_order(self):
        for kind in ("thermal", "coherent"):
            click = curve(kind, 0.5, "click", mean_grid=[1e-3]).detected[0]
            literal = curve(kind, 0.5, "literal", mean_grid=[1e-3]).detected[0]
            assert click / literal == pytest.approx(1.0, abs=0.01)

    def test_literal_variant_changes_sign(self):
        # the photon-weighted curves cross: below the click peak the
        # thermal tail's high-n pulses dominate the coherent mean
        def literal_gap(mean, eta):
            return (click_moment(SourceLaw.of_mean("coherent", mean), eta, 1)
                    - click_moment(SourceLaw.of_mean("thermal", mean), eta, 1))

        assert literal_gap(4.0, 0.5) < 0.0
        assert literal_gap(20.0, 0.5) > 0.0


class TestClickGapFunction:
    def test_peak_location(self):
        # the single interior extremum sits where (1 + z)^2 = e^z
        assert (1.0 + GAP_PEAK_Z) ** 2 == pytest.approx(
            math.exp(GAP_PEAK_Z), rel=1e-12
        )
        assert click_gap(GAP_PEAK_Z) > click_gap(GAP_PEAK_Z - 1e-3)
        assert click_gap(GAP_PEAK_Z) > click_gap(GAP_PEAK_Z + 1e-3)

    @pytest.mark.parametrize("z", [math.nan, math.inf, -1.0])
    def test_rejects_nonfinite_or_negative_z(self, z):
        with pytest.raises(ValueError, match="finite and >= 0"):
            click_gap(z)

    def test_matches_gap_product_form(self):
        eta, mean = 0.8, 2.0
        assert click_gap(eta * mean) == pytest.approx(
            saturation_gap(eta, mean_grid=np.array([mean]))[0][1], rel=1e-12
        )
