import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from spdc_stats import (
    DetectorChain,
    ResourceLimitError,
    SourceLaw,
    g2_heralded_predicted,
    split_coincidences,
    truncation_order,
    two_arm_rates,
)
from spdc_stats.detector_model import (all_click, click_probability, click_sets,
                                       pair_outcomes)
from spdc_stats.photon_statistics import click_moment
from spdc_stats.saturation import curve
from checks import rational_rel_error, within_printed

F = 76e6
X10 = 10 * 0.00135
X400 = 400 * 0.00098
# eta = 1 and its last ulps, where cc equals a singles rate, are drawn on
# their own as well as log-uniformly
ETAS = st.one_of(st.floats(math.log(1e-12), 0.0).map(math.exp), st.just(1.0),
                 st.just(1.0 - 1e-13))


def brute_singles(f, x, eta, n_max=400):
    ns = np.arange(n_max + 1)
    pr = (1.0 - x) * x**ns
    return f * float(np.sum(pr * (1.0 - (1.0 - eta) ** ns)))


def brute_coincidence(f, x, eta1, eta2, n_max=400):
    ns = np.arange(n_max + 1)
    pr = (1.0 - x) * x**ns
    both = (1.0 - (1.0 - eta1) ** ns) * (1.0 - (1.0 - eta2) ** ns)
    return f * float(np.sum(pr * both))


def brute_split(f, x, eta1, eta2, eta3, n_max=200):
    """Slow reference for the beamsplitter sums with exact binomial weights."""
    cc12 = cc13 = cc123 = 0.0
    for n in range(n_max + 1):
        pr = (1.0 - x) * x**n
        herald = 1.0 - (1.0 - eta1) ** n
        e2 = e3 = e23 = 0.0
        for k in range(n + 1):
            w = math.comb(n, k) * 0.5**n
            c2 = 1.0 - (1.0 - eta2) ** k
            c3 = 1.0 - (1.0 - eta3) ** (n - k)
            e2 += w * c2
            e3 += w * c3
            e23 += w * c2 * c3
        cc12 += pr * herald * e2
        cc13 += pr * herald * e3
        cc123 += pr * herald * e23
    return f * cc12, f * cc13, f * cc123


class TestClickProbability:
    def test_no_photons_no_click(self):
        assert click_probability(0, 0.7) == 0.0

    def test_single_photon(self):
        assert click_probability(1, 0.215) == pytest.approx(0.215, rel=1e-15)

    def test_three_photons_half(self):
        assert click_probability(3, 0.5) == pytest.approx(0.875, rel=1e-15)

    def test_dead_and_perfect_detector(self):
        assert click_probability(5, 0.0) == 0.0
        assert click_probability(5, 1.0) == 1.0

    def test_vectorized_and_monotone(self):
        p = [click_probability(n, 0.3) for n in range(40)]
        assert all(type(v) is float for v in p)
        assert all(b > a for a, b in zip(p, p[1:]))
        assert p[-1] < 1.0

    @pytest.mark.parametrize("bad", [-0.01, 1.01, float("nan"), True, False])
    def test_rejects_bad_eta(self, bad):
        with pytest.raises(ValueError, match="eta"):
            click_probability(2, bad)

    @pytest.mark.parametrize("n, message", [
        (2.5, "photon count n must be integer"),
        ("3", "photon count n must be integer"),
        (-1, "photon count n must be non-negative"),
    ])
    def test_rejects_bad_photon_count(self, n, message):
        with pytest.raises(ValueError, match=message):
            click_probability(n, 0.5)


class TestSinglesRate:
    def test_dead_detector(self):
        assert two_arm_rates(F, 0.3, 0.0, 0.5).sc1 == 0.0
        assert two_arm_rates(F, 0.3, 0.5, 0.0).sc2 == 0.0

    def test_table_one_singles(self):
        pred = two_arm_rates(F, X10, 0.215, 0.198)
        assert within_printed(pred.sc1, "223e3", 0.02)
        assert within_printed(pred.sc2, "205e3", 0.02)

    @pytest.mark.parametrize("x", [1e-4, 0.0135, 0.128, 0.392, 0.5])
    @pytest.mark.parametrize("eta", [0.01, 0.215, 0.7, 0.99])
    def test_closed_matches_series(self, x, eta):
        closed = two_arm_rates(F, x, eta, 0.3)
        assert oracle.singles_rate(F, x, eta) == pytest.approx(closed.sc1, rel=1e-10)
        assert oracle.singles_rate(F, x, 0.3) == pytest.approx(closed.sc2, rel=1e-10)

    @pytest.mark.parametrize("x", [1e-4, 0.0135, 0.392])
    def test_closed_matches_brute_force(self, x):
        assert two_arm_rates(F, x, 0.215, 0.198).sc1 == pytest.approx(
            brute_singles(F, x, 0.215), rel=1e-12
        )

    def test_small_eta_linearity(self):
        # detected rate approaches eta times the pair generation rate
        eta = 1e-5
        sc1 = two_arm_rates(F, 0.128, eta, 0.198).sc1
        mean = SourceLaw.geometric(0.128).mean
        assert sc1 / (eta * F * mean) == pytest.approx(1.0, rel=1e-3)

    def test_bounded_by_rep_rate(self):
        pred = two_arm_rates(F, 0.6, 0.99, 0.99)
        assert pred.sc1 < F and pred.sc2 < F


class TestCoincidenceRate:
    def test_dead_idler(self):
        assert two_arm_rates(F, 0.3, 0.0, 0.5).cc == 0.0

    def test_table_one_coincidences(self):
        assert within_printed(two_arm_rates(F, X10, 0.215, 0.198).cc, "45e3", 0.03)
        assert within_printed(
            two_arm_rates(F, X400, 0.125, 0.107).cc, "1.17e6", 0.03
        )

    @pytest.mark.parametrize("x", [1e-4, 0.0135, 0.128, 0.392, 0.5])
    @pytest.mark.parametrize("eta", [0.01, 0.215, 0.99])
    def test_closed_matches_series(self, x, eta):
        closed = two_arm_rates(F, x, eta, 0.7).cc
        series = oracle.coincidence_rate(F, x, eta, 0.7)
        assert series == pytest.approx(closed, rel=1e-10)

    def test_closed_matches_brute_force(self):
        assert two_arm_rates(F, 0.392, 0.125, 0.107).cc == pytest.approx(
            brute_coincidence(F, 0.392, 0.125, 0.107), rel=1e-12
        )

    def test_symmetric_in_efficiencies(self):
        a, b = two_arm_rates(F, 0.2, 0.3, 0.8), two_arm_rates(F, 0.2, 0.8, 0.3)
        assert a.cc == pytest.approx(b.cc, rel=1e-14)
        assert a.sc1 == pytest.approx(b.sc2, rel=1e-14)

    @pytest.mark.parametrize("x", [0.0135, 0.392])
    def test_bounded_by_singles(self, x):
        pred = two_arm_rates(F, x, 0.215, 0.198)
        assert pred.cc <= pred.sc1
        assert pred.cc <= pred.sc2

    @pytest.mark.parametrize(
        "x, eta1, eta2",
        [(0.0014284350196418901, 1.0, 0.22188933727589555),
         (2.937202339284036e-07, 0.9224462048429088, 1.0)],
    )
    def test_bounded_by_singles_at_unit_efficiency(self, x, eta1, eta2):
        # here cc equals a singles rate: a sure click on one arm makes
        # every click of the other a coincidence, so the two sums hold
        # the same cells
        pred = two_arm_rates(F, x, eta1, eta2)
        assert pred.cc == min(pred.sc1, pred.sc2)

    def test_two_arm_rates_bundle(self):
        # sc1, sc2 and cc are f times entries 1, 2 and 3 of all_click over
        # one click_sets pass
        pred = two_arm_rates(F, X10, 0.215, 0.198)
        p = all_click(click_sets(SourceLaw.geometric(X10), pair_outcomes(0.215, 0.198)))
        assert (pred.sc1, pred.sc2, pred.cc) == (F * p[1], F * p[2], F * p[3])

    @settings(max_examples=300, deadline=None)
    @given(log_x=st.floats(math.log(1e-12), math.log(0.999999)),
           eta1=ETAS, eta2=ETAS)
    def test_coincidences_never_exceed_singles(self, log_x, eta1, eta2):
        pred = two_arm_rates(F, math.exp(log_x), eta1, eta2)
        assert pred.cc <= min(pred.sc1, pred.sc2)


class TestSplitCoincidences:
    def test_dead_branch_kills_three_folds(self):
        pred = split_coincidences(F, 0.2, 0.3, 0.0, 0.4)
        assert pred["triple123"] == 0.0
        assert pred["pair12"] == 0.0
        pred = split_coincidences(F, 0.2, 0.3, 0.4, 0.0)
        assert pred["triple123"] == 0.0

    @pytest.mark.parametrize("x", [0.0135, 0.128, 0.392])
    def test_series_matches_brute_force(self, x):
        pred = split_coincidences(F, x, 0.215, 0.198, 0.163)
        ref12, ref13, ref123 = brute_split(F, x, 0.215, 0.198, 0.163)
        assert pred["pair12"] == pytest.approx(ref12, rel=1e-11)
        assert pred["pair13"] == pytest.approx(ref13, rel=1e-11)
        assert pred["triple123"] == pytest.approx(ref123, rel=1e-11)

    @pytest.mark.parametrize("x", [0.128, 0.392])
    def test_closed_form_cross_check_moderate_x(self, x):
        series = oracle.split_coincidences(F, x, 0.215, 0.198, 0.163)
        closed = split_coincidences(F, x, 0.215, 0.198, 0.163)
        for field in ("pair12", "pair13", "triple123", "clicks1"):
            assert closed[field] == pytest.approx(series[field], rel=1e-9)

    @pytest.mark.parametrize("x", [1e-4, 0.0135])
    def test_closed_form_cross_check_small_x(self, x):
        # the closed form subtracts nothing near-equal, so it keeps
        # relative precision at small x
        series = oracle.split_coincidences(1.0, x, 0.215, 0.198, 0.163)
        closed = split_coincidences(1.0, x, 0.215, 0.198, 0.163)
        for field in ("pair12", "pair13", "triple123"):
            assert closed[field] == pytest.approx(series[field], rel=1e-12, abs=0)

    @pytest.mark.parametrize(
        "x",
        [1e-120, 1e-80, 1e-12, 1e-9, 1e-6, 1e-4, 0.0135, 0.128, 0.392, 0.7, 0.9,
         0.99, 0.9999, 0.999999],
    )
    def test_closed_form_matches_exact_rational(self, x):
        # the inclusion-exclusion sum over the generating function,
        # evaluated in exact rational arithmetic on the same float inputs;
        # at x = 1e-80 and below, g2's u**2 underflows unless rescaled
        grid = [1e-12, 1e-9, 0.163, 0.215, 0.5, 1.0 - 1e-13, 1.0]
        for etas in itertools.product(grid, repeat=3):
            exact = oracle.exact_all_click(x, *etas)
            pred = split_coincidences(1.0, x, *etas)
            for field, mask in (("pair12", 3), ("pair13", 5), ("triple123", 7),
                                ("clicks1", 1)):
                got = pred[field]
                assert got > 0.0, (field, x, etas)
                assert rational_rel_error(got, exact[mask]) <= 2e-15, (field, x, etas)
            g2 = 2 * exact[1] * exact[7] / (exact[3] + exact[5]) ** 2
            got = g2_heralded_predicted(x, *etas)
            assert rational_rel_error(got, g2) <= 4e-15, ("g2", x, etas)
            eta1, eta2, _ = etas
            pair = oracle.exact_all_click(x, eta1, eta2)
            pred = two_arm_rates(1.0, x, eta1, eta2)
            for field, mask in (("sc1", 1), ("sc2", 2), ("cc", 3)):
                got = getattr(pred, field)
                assert rational_rel_error(got, pair[mask]) <= 2e-15, (field, x, etas)

    @pytest.mark.parametrize(
        "x",
        [0.0, 1e-12, 1e-9, 1e-6, 1e-4, 0.0135, 0.128, 0.392, 0.7, 0.9, 0.99,
         0.9999, 0.999999],
    )
    def test_click_sets_match_exact_rational(self, x):
        # every cell of the final click-set distribution, both pair modes,
        # against the Moebius inversion of the exact rationals; a cell that
        # is exactly 0 (a dead detector, a sure click) must come out 0
        grid = [0.0, 1e-12, 1e-9, 0.163, 0.215, 0.5, 1.0 - 1e-13, 1.0]
        for etas in itertools.chain(itertools.product(grid, repeat=3),
                                    itertools.product(grid, repeat=2)):
            exact = oracle.exact_click_sets(x, *etas)
            got = click_sets(SourceLaw.geometric(x), pair_outcomes(*etas))
            for mask, (cell, want) in enumerate(zip(got, exact)):
                assert rational_rel_error(cell, want) <= 2e-15, (mask, x, etas)

    @pytest.mark.parametrize("x, eta1", [(0.0, 0.3), (0.2, 0.0)])
    def test_closed_form_no_pairs_or_dead_herald(self, x, eta1):
        pred = split_coincidences(F, x, eta1, 0.4, 0.5)
        assert [pred[k] for k in ("pair12", "pair13", "triple123")] == [0.0] * 3

    def test_branch_two_composes_with_pair_coincidence(self):
        # a 50/50 split followed by a detector of efficiency eta is one
        # detector of efficiency eta/2 as far as branch pairs go
        pred = split_coincidences(F, 0.128, 0.215, 0.198, 0.163)
        assert pred["pair12"] == pytest.approx(
            two_arm_rates(F, 0.128, 0.215, 0.198 / 2.0).cc, rel=1e-10
        )
        assert pred["pair13"] == pytest.approx(
            two_arm_rates(F, 0.128, 0.215, 0.163 / 2.0).cc, rel=1e-10
        )

    def test_branch_swap_symmetry(self):
        a = split_coincidences(F, 0.2, 0.3, 0.5, 0.25)
        b = split_coincidences(F, 0.2, 0.3, 0.25, 0.5)
        assert a["pair12"] == pytest.approx(b["pair13"], rel=1e-12)
        assert a["pair13"] == pytest.approx(b["pair12"], rel=1e-12)
        assert a["triple123"] == pytest.approx(b["triple123"], rel=1e-12)

    def test_ordering_chain(self):
        pred = split_coincidences(F, 0.392, 0.125, 0.107, 0.088)
        assert (pred["triple123"] <= min(pred["pair12"], pred["pair13"])
                <= pred["clicks1"])

    def test_heralding_singles_field(self):
        pred = split_coincidences(F, 0.128, 0.215, 0.198, 0.163)
        assert pred["clicks1"] == pytest.approx(
            two_arm_rates(F, 0.128, 0.215, 0.198).sc1, rel=1e-12)

    def test_back_solved_branch_sum_consistency(self):
        # with branch efficiencies set by the detector-efficiency ratio
        # policy, the summed branch coincidences land near the value
        # back-solved from the measured three-fold rate
        pred = split_coincidences(F, X10, 0.215, 0.198, 0.198 * 0.56 / 0.68)
        assert pred["pair12"] + pred["pair13"] == pytest.approx(40e3, rel=0.20)

    def test_small_branch_efficiency_limit(self):
        # with tiny branch efficiencies the three-fold rate reduces to the
        # herald click probability times eta2 eta3 n(n-1)/4
        x, e1, e = X10, 0.215, 1e-4
        pred = split_coincidences(F, x, e1, e, e)
        ns = np.arange(400)
        pr = (1.0 - x) * x**ns
        herald = 1.0 - (1.0 - e1) ** ns
        limit = F * float(np.sum(pr * herald * e * e * ns * (ns - 1) / 4.0))
        assert pred["triple123"] == pytest.approx(limit, rel=1e-2)

    def test_all_small_efficiency_limit(self):
        # when the herald is also weak its click probability linearizes to
        # eta1 n and the textbook product form holds
        x, e = X10, 1e-4
        pred = split_coincidences(F, x, e, e, e)
        ns = np.arange(400)
        pr = (1.0 - x) * x**ns
        limit = F * float(np.sum(pr * e * ns * e * e * ns * (ns - 1) / 4.0))
        assert pred["triple123"] == pytest.approx(limit, rel=1e-2)

    def test_large_truncation_order_path(self):
        # x = 0.7 needs more than 60 series terms, where the oracle's
        # binomial weights go to log space
        assert truncation_order(0.7, 1e-12) > 60
        pred = split_coincidences(F, 0.7, 0.215, 0.198, 0.163)
        ref12, ref13, ref123 = brute_split(F, 0.7, 0.215, 0.198, 0.163, n_max=300)
        assert pred["pair12"] == pytest.approx(ref12, rel=1e-9)
        assert pred["triple123"] == pytest.approx(ref123, rel=1e-9)

    def test_truncation_cap(self):
        with pytest.raises(ResourceLimitError):
            oracle.split_coincidences(F, 0.999, 0.2, 0.2, 0.2)


# the eta grid of test_click_sets_match_exact_rational
CELL_ETAS = [0.0, 1e-12, 1e-9, 0.163, 0.215, 0.5, 1.0 - 1e-13, 1.0]


class TestClickSets:
    @pytest.mark.parametrize(
        "mean", [0.0, 1e-12, 1e-6, 1e-3, 0.0135, 0.5, 2.0, 30.0, 300.0])
    def test_coherent_cells_match_inclusion_exclusion(self, mean):
        # every cell for 1, 2 and 3 detectors against the Moebius inversion
        # of P(the final set lies within T) = exp(-sum of w_t over t not
        # within T), at the float rates w_t = mean * o_t; 400 digits, since
        # at 160 the inversion's own cancellation at mean 300 exceeds the
        # error measured.  A cell that is exactly 0 must come out 0.
        mpmath = pytest.importorskip("mpmath")
        law = SourceLaw.of_mean("coherent", mean)
        setups = itertools.chain(itertools.product(CELL_ETAS, repeat=3),
                                 itertools.product(CELL_ETAS, repeat=2),
                                 itertools.product(CELL_ETAS, repeat=1))
        with mpmath.workdps(400):
            for etas in setups:
                outcomes = pair_outcomes(*etas)
                within = [mpmath.exp(-mpmath.fsum(
                    mean * o for t, o in enumerate(outcomes) if t & ~top))
                    for top in range(len(outcomes))]
                got = click_sets(law, outcomes)
                for mask, cell in enumerate(got):
                    want = mpmath.fsum(
                        (-1) ** (mask ^ sub).bit_count() * within[sub]
                        for sub in range(len(outcomes)) if sub & mask == sub)
                    if want == 0:
                        assert cell == 0.0, (mask, mean, etas)
                    else:
                        assert abs(cell / want - 1) <= 2e-15, (mask, mean, etas)

    @pytest.mark.parametrize("kind", ["thermal", "coherent"])
    def test_one_detector_is_the_click_moment(self, kind):
        # the saturation grid of test_judge_parity: one detector's cells are
        # the miss G(1 - eta), 1 / (1 + w) or exp(-w) at w = eta * mean, and
        # the click probability of click_moment, bit for bit
        for mean in (0.0, 1e-3, 0.5, 2.0, 30.0, 300.0):
            law = SourceLaw.of_mean(kind, mean)
            for eta in (0.0, 1e-12, 1e-9, 0.37, 0.8, 1.0):
                w = eta * mean
                miss = 1.0 / (1.0 + w) if kind == "thermal" else math.exp(-w)
                got = click_sets(law, pair_outcomes(eta))
                assert got == [miss, click_moment(law, eta, 0)], (mean, eta)


class TestDetectedVsIncident:
    """The saturation response: ``click_moment`` at k = 0 (click) and k = 1
    (literal), which ``saturation.curve`` reads."""

    def test_zero_mean(self):
        assert click_moment(SourceLaw.of_mean("thermal", 0.0), 0.7, 0) == 0.0
        assert click_moment(SourceLaw.of_mean("coherent", 0.0), 0.7, 0) == 0.0

    def test_coherent_click_value(self):
        got = click_moment(SourceLaw.of_mean("coherent", 2.0), 0.8, 0)
        assert got == pytest.approx(1.0 - math.exp(-1.6), rel=1e-12)
        assert got == pytest.approx(0.7981, abs=5e-5)

    def test_thermal_click_value(self):
        got = click_moment(SourceLaw.of_mean("thermal", 2.0), 0.8, 0)
        assert got == pytest.approx(1.0 - 1.0 / 2.6, rel=1e-12)
        assert got == pytest.approx(0.6154, abs=5e-5)

    @pytest.mark.parametrize("kind", ["thermal", "coherent"])
    @pytest.mark.parametrize("variant", ["click", "literal"])
    @pytest.mark.parametrize("mean", [0.01, 0.5, 2.0, 8.0])
    def test_closed_matches_series(self, kind, variant, mean):
        closed = curve(kind, 0.8, variant, mean_grid=[mean]).detected[0]
        series = oracle.detected_vs_incident(kind, mean, 0.8, variant)
        assert series == pytest.approx(closed, rel=1e-9)

    def test_literal_formulas(self):
        mean, eta = 2.0, 0.8
        thermal = click_moment(SourceLaw.of_mean("thermal", mean), eta, 1)
        assert thermal == pytest.approx(
            mean - (1.0 - eta) * mean / (1.0 + eta * mean) ** 2, rel=1e-12
        )
        coherent = click_moment(SourceLaw.of_mean("coherent", mean), eta, 1)
        assert coherent == pytest.approx(
            mean - mean * (1.0 - eta) * math.exp(-eta * mean), rel=1e-12
        )

    @pytest.mark.parametrize("kind", ["thermal", "coherent"])
    @pytest.mark.parametrize("mean", [0.01, 1.0, 100.0])
    @pytest.mark.parametrize(
        "eta", [1e-12, 1e-9, 1e-6, 1e-3, 0.1, 0.37, 0.8, 1.0]
    )
    def test_literal_precise_as_eta_vanishes(self, kind, mean, eta):
        got = curve(kind, eta, "literal", mean_grid=[mean]).detected[0]
        want = oracle.detected_literal_decimal(kind, mean, eta)
        assert math.isclose(got, want, rel_tol=1e-14, abs_tol=0.0)

    def test_click_dominance_and_small_mean_ratio(self):
        coh = curve("coherent", 0.6, mean_grid=[0.1, 1.0, 5.0, 1e-3]).detected
        th = curve("thermal", 0.6, mean_grid=[0.1, 1.0, 5.0, 1e-3]).detected
        for c, t in zip(coh[:3], th[:3]):
            assert c > t
        ratio = coh[3] / th[3]
        assert ratio == pytest.approx(1.0, abs=1e-2)

    def test_monotone_in_mean(self):
        means = np.logspace(-2, 2, 30)
        vals = curve("thermal", 0.5, mean_grid=means).detected
        assert all(b > a for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize("kind", ["thermal", "coherent"])
    @pytest.mark.parametrize("variant", ["click", "literal"])
    @pytest.mark.parametrize("mean", [math.inf, -math.inf, math.nan, -1.0])
    def test_rejects_nonfinite_or_negative_mean(self, kind, variant, mean):
        k = 0 if variant == "click" else 1
        with pytest.raises(ValueError, match="finite and >= 0"):
            click_moment(SourceLaw.of_mean(kind, mean), 0.5, k)
        with pytest.raises(ValueError, match="finite and >= 0"):
            curve(kind, 0.5, variant, mean_grid=[mean])

    def test_rejects_unknown_labels(self):
        with pytest.raises(ValueError, match="source_kind"):
            curve("squeezed", 0.5, mean_grid=[1.0])
        with pytest.raises(ValueError, match="variant"):
            curve("thermal", 0.5, "other", mean_grid=[1.0])


class TestDetectorChain:
    def test_optional_branches(self):
        chain = DetectorChain(eta1=0.7)
        assert chain.eta2 is None and chain.eta3 is None

    @pytest.mark.parametrize("field", ["eta1", "eta2", "eta3"])
    def test_rejects_out_of_range(self, field):
        kwargs = {"eta1": 0.5, "eta2": 0.5, "eta3": 0.5}
        kwargs[field] = 1.2
        with pytest.raises(ValueError, match=field):
            DetectorChain(**kwargs)
