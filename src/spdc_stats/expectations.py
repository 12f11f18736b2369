"""The Monte Carlo's judge: what each tally of a run should read, and how far
a run is from it.

For every tally that ``montecarlo.simulate`` counts, this module gives its
per-pulse expectation and variance in closed form, and
``compare_with_analytic`` turns a run's tallies into sigma distances.

- The emission moments, and in saturation mode the detector's clicks1 and
  clicked_photons, each sum n**k 1{click} per pulse for a detector of
  efficiency eta (eta = 1 for the emission moments).  One table names each
  one's (k, eta); its expectation is ``photon_statistics.click_moment`` of
  the law ``config.law`` and, for k >= 1, its variance the 2k entry minus
  the expectation squared.
- Every click indicator has the Bernoulli variance p (1 - p) per pulse:
  the k = 0 tallies, the pair-mode click and coincidence tallies (the
  entries of ``detector_model.all_click`` that ``CLICK_MASKS`` names) and
  pulses_with_emission (``photon_statistics.emission_probability``).  In
  saturation mode p nears 1, so 1 - p is the law's ``miss_probability``
  at eta (1 for pulses_with_emission); in the pair modes p <= x, exact.
- g2's error is the delta method on the analytic click-set cells
  (``detector_model.click_sets``, ``correlation.g2_stderr``).

A config is read by duck typing: its mode, its detector efficiencies in
bit order ``config.etas``, its ``SourceLaw`` ``config.law`` and, in the
pair modes, its x.  So this module imports nothing from ``montecarlo`` and
never loads numpy.
"""

from __future__ import annotations

import math

from .correlation import g2_from_counts, g2_stderr
from .detector_model import CLICK_MASKS, all_click, click_sets, pair_outcomes
from .photon_statistics import click_moment, emission_probability, miss_probability

# emission-moment tallies and the (k, eta) of each: every photon counts
_EMITTED = {"emitted": (1, 1.0), "emitted_sq": (2, 1.0), "emitted_cu": (3, 1.0)}


def _judge(config):
    """The per-pulse expectations, and what their errors read: the law, the
    (k, eta) of every tally that sums n**k 1{click}, and in the pair modes
    the ``click_sets`` distribution."""
    law, sets = config.law, None
    if config.mode == "saturation":
        (eta,) = config.etas
        rows = {**_EMITTED, "clicks1": (0, eta), "clicked_photons": (1, eta)}
    else:
        rows = _EMITTED
        sets = click_sets(config.x, pair_outcomes(*config.etas))
    out = {name: click_moment(law, eta, k) for name, (k, eta) in rows.items()}
    out["pulses_with_emission"] = emission_probability(law)
    if sets is not None:
        clicks = all_click(sets)
        out.update((n, clicks[m]) for n, m in CLICK_MASKS.items() if m < len(clicks))
    # the same rule compare_with_analytic applies to the observed pairs:
    # with no pair coincidences the g2 estimator is undefined
    if "triple123" in out and out["pair12"] + out["pair13"] > 0:
        out["g2"] = g2_from_counts(
            out["clicks1"], out["pair12"], out["pair13"], out["triple123"])
    return out, (law, rows, sets)


def analytic_expectations(config) -> dict[str, float]:
    """Per-pulse expected values of every tally the mode produces, plus
    'g2' in heralded_split mode; keys match SimCounts field names."""
    return _judge(config)[0]


def compare_with_analytic(config, counts) -> dict[str, dict[str, float]]:
    """Side-by-side MC estimates vs analytic expectations with sigma distances.

    config is a ``SimConfig`` and counts the ``SimCounts`` of its run.
    Each entry maps a quantity name to {mc, analytic, stderr, sigma}.
    sigma is 0 when the standard error vanishes and the values agree
    exactly, inf when they differ with zero standard error.
    """
    expected, (law, rows, sets) = _judge(config)
    m = CLICK_MASKS
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
            se = g2_stderr(sets[m["triple123"]], sets[m["pair12"]] + sets[m["pair13"]],
                           sets[m["clicks1"]], counts.pulses)
        else:
            mc = counts.fraction(name)
            k, eta = rows.get(name, (0, 1.0))
            if k:
                variance = click_moment(law, eta, 2 * k) - target**2
            elif config.mode == "saturation":
                variance = target * miss_probability(law, eta)
            else:
                variance = target * (1.0 - target)
            se = math.sqrt(max(variance, 0.0) / counts.pulses)
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
