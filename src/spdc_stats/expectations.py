"""The Monte Carlo's judge: what each tally of a run should read, and how far
a run is from it.

For every tally that ``montecarlo.simulate`` counts, this module gives its
per-pulse expectation and variance in closed form, and
``compare_with_analytic`` turns a run's tallies into sigma distances.

- The emission moments, and in saturation mode clicked_photons, each sum
  n**k 1{click} per pulse, k >= 1, for a detector of efficiency eta (1 for
  the emission moments): its expectation is ``photon_statistics.click_moment``
  of ``config.law`` and its variance the 2k entry minus the square.
- Every click tally, in every mode, is the ``detector_model.all_click``
  entry that ``CLICK_MASKS`` names over one ``click_sets`` pass.  Its
  variance is p q per pulse, where the miss q is the sum of the cells that
  are not supersets of its mask; pulses_with_emission reads q = G(0) from
  the empty cell of one perfect detector.
- g2's expectation and variance are ``detector_model.g2_on_cells`` on the
  same cells; only the run's g2 reads ``g2_from_counts``.

A config is read by duck typing: its mode, its detector efficiencies in
bit order ``config.etas`` and its ``SourceLaw`` ``config.law``.  So this
module imports nothing from ``montecarlo`` and never loads numpy.
"""

from __future__ import annotations

import math

from .detector_model import (CLICK_MASKS, all_click, click_sets, g2_from_counts,
                             g2_on_cells, pair_outcomes)
from .errors import DivergenceError
from .photon_statistics import click_moment, emission_probability

# emission-moment tallies and the (k, eta) of each: every photon counts
_EMITTED = {"emitted": (1, 1.0), "emitted_sq": (2, 1.0), "emitted_cu": (3, 1.0)}


def _judge(config):
    """The per-pulse expectation and variance of every tally, and of g2."""
    law = config.law
    rows = dict(_EMITTED)
    if config.mode == "saturation":
        rows["clicked_photons"] = (1, config.etas[0])
    out, variance = {}, {}
    for name, (k, eta) in rows.items():
        out[name] = click_moment(law, eta, k)
        variance[name] = click_moment(law, eta, 2 * k) - out[name] ** 2
    # a perfect detector stays dark only on an empty pulse
    p = out["pulses_with_emission"] = emission_probability(law)
    variance["pulses_with_emission"] = p * click_sets(law, pair_outcomes(1.0))[0]
    sets = click_sets(law, pair_outcomes(*config.etas))
    clicks = all_click(sets)
    for name, m in CLICK_MASKS.items():
        if m < len(sets):
            out[name] = clicks[m]
            variance[name] = clicks[m] * math.fsum(
                q for s, q in enumerate(sets) if s & m != m)
    if config.mode == "heralded_split":
        # as for a run: without pair12 + pair13, or where its square
        # underflows, g2 is undefined
        try:
            out["g2"], variance["g2"] = g2_on_cells(sets)
        except DivergenceError:
            pass
    return out, variance


def compare_with_analytic(config, counts) -> dict[str, dict[str, float]]:
    """Side-by-side MC estimates vs analytic expectations with sigma distances.

    config is a ``SimConfig`` and counts the ``SimCounts`` of its run.
    Each entry maps a quantity name to {mc, analytic, stderr, sigma}.
    sigma is 0 when the standard error vanishes and the values agree
    exactly, inf when they differ with zero standard error.
    """
    expected, variance = _judge(config)
    report: dict[str, dict[str, float]] = {}
    for name, target in expected.items():
        if name != "g2":
            mc = getattr(counts, name) / counts.pulses
        elif counts.pair12 + counts.pair13:
            mc = g2_from_counts(
                counts.clicks1, counts.pair12, counts.pair13, counts.triple123
            )
        else:
            # no pair coincidences to form the ratio estimator; the raw
            # tallies still constrain the run
            continue
        se = math.sqrt(max(variance[name], 0.0) / counts.pulses)
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
