"""The Monte Carlo's judge: what each tally of a run should read, and how far
a run is from it.

For every tally that ``montecarlo.simulate`` counts, this module gives its
per-pulse expectation and variance in closed form, and
``compare_with_analytic`` turns a run's tallies into sigma distances.

- Click and coincidence tallies are the entries of
  ``detector_model.all_click`` that ``CLICK_MASKS`` names, and have the
  Bernoulli variance p (1 - p) per pulse.
- The emission moments E[n**k] and their variances E[n**2k] - E[n**k]**2
  come from the pair-number law's generating function
  (``photon_statistics.source_moment``).
- In saturation mode, clicked_photons is n times the click indicator, so
  its second moment is E[n**2 1{click}], written as a sum of positive
  terms.
- g2's error is the delta method on the analytic click-set cells
  (``detector_model.click_sets``, ``correlation.g2_stderr``).

A config is read by duck typing: its mode, its detector efficiencies in
bit order ``config.etas``, its law ``config.law`` = (kind, p) and, for
saturation, its source_kind and mean.  So this module imports nothing from
``montecarlo`` and never loads numpy.
"""

from __future__ import annotations

import math

from .correlation import g2_from_counts, g2_stderr
from .detector_model import (CLICK_MASKS, all_click, click_sets,
                             detected_vs_incident, pair_outcomes)
from .photon_statistics import emission_probability, source_moment

# emission-moment tallies and the power of n each one sums
_MOMENTS = {"emitted": 1, "emitted_sq": 2, "emitted_cu": 3}


def analytic_expectations(config) -> dict[str, float]:
    """Per-pulse expected values of every tally the mode produces, plus
    'g2' in heralded_split mode; keys match SimCounts field names."""
    out = {name: source_moment(*config.law, k) for name, k in _MOMENTS.items()}
    out["pulses_with_emission"] = emission_probability(*config.law)
    if config.mode == "saturation":
        kind, mean, (eta,) = config.source_kind, config.mean, config.etas
        out["clicks1"] = detected_vs_incident(kind, mean, eta, "click")
        out["clicked_photons"] = detected_vs_incident(kind, mean, eta, "literal")
        return out

    clicks = all_click(click_sets(config.x, pair_outcomes(*config.etas)))
    out.update((name, clicks[m]) for name, m in CLICK_MASKS.items() if m < len(clicks))
    # the same rule compare_with_analytic applies to the observed pairs:
    # with no pair coincidences the g2 estimator is undefined
    if "triple123" in out and out["pair12"] + out["pair13"] > 0:
        out["g2"] = g2_from_counts(
            out["clicks1"], out["pair12"], out["pair13"], out["triple123"])
    return out


def _clicked_photons_square(config) -> float:
    """E[n**2 1{click}] of a saturation config, as positive terms in
    w = eta * mean."""
    m, (eta,) = config.mean, config.etas
    w = eta * m
    if config.source_kind == "thermal":
        s = 1.0 + w
        return (w * (1.0 + 2.0 * m + m * w) / s**2
                + 2.0 * m * w * (2.0 - eta + 3.0 * m + 3.0 * m * w + m * w * w) / s**3)
    e, em1 = math.exp(-w), -math.expm1(-w)
    return m * (eta * e + em1) + m**2 * (eta * (2.0 - eta) * e + em1)


def _variance_per_pulse(config, name: str, expected: dict) -> float:
    """Per-pulse variance of the tally name, from its expectation and the
    law's moments."""
    mean = expected[name]
    if name in _MOMENTS:
        return source_moment(*config.law, 2 * _MOMENTS[name]) - mean**2
    if name == "clicked_photons":
        return _clicked_photons_square(config) - mean**2
    return mean * (1.0 - mean)


def compare_with_analytic(config, counts) -> dict[str, dict[str, float]]:
    """Side-by-side MC estimates vs analytic expectations with sigma distances.

    config is a ``SimConfig`` and counts the ``SimCounts`` of its run.
    Each entry maps a quantity name to {mc, analytic, stderr, sigma}.
    sigma is 0 when the standard error vanishes and the values agree
    exactly, inf when they differ with zero standard error.
    """
    expected = analytic_expectations(config)
    report: dict[str, dict[str, float]] = {}
    for name, target in expected.items():
        if name == "g2":
            if counts.pair12 + counts.pair13 == 0:
                # no pair coincidences to form the ratio estimator; the raw
                # tallies still constrain the run
                continue
            mc = g2_from_counts(
                counts.clicks1, counts.pair12, counts.pair13, counts.triple123
            )
            # the error at the analytic rates: taken at the observed ones, a
            # run that sees few triples gets too small an error
            sets = click_sets(config.x, pair_outcomes(*config.etas))
            se = g2_stderr(sets[7], sets[3] + sets[5], sets[1], counts.pulses)
        else:
            mc = counts.fraction(name)
            se = math.sqrt(
                max(_variance_per_pulse(config, name, expected), 0.0)
                / counts.pulses
            )
        if se == 0.0:
            sigma = 0.0 if mc == target else math.inf
        else:
            sigma = abs(mc - target) / se
        report[name] = {
            "mc": mc,
            "analytic": target,
            "stderr": se,
            "sigma": sigma,
        }
    return report
