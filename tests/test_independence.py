"""Which formulas the Monte Carlo check can see: a mutation matrix.

The Monte Carlo is a check of the analytic model only where the sampler
and the judge do not share a formula: an error in a shared formula moves
both sides of a gate alike, and cancels.  Each row of ``MATRIX`` plants a
1 % relative error in one formula, in every package module that binds it,
runs ``simulate`` on the fixed large-count ``CONFIGS`` (the baseline counts
are reused when ``montecarlo`` does not bind the formula) and reads the
largest ``compare_with_analytic`` sigma over them.  A row marked caught
must then exceed the 5-sigma gate; a row marked not caught is a known
blind spot and must stay below it, so closing one shows up here too.  The
judge forms g2's expectation and variance from the click-set cells
(``g2_on_cells``), so only the run's side reads ``g2_from_counts``, and
every formula but one is caught.  The one left is a low g2 expectation:
1 % of g2 is 5.8 sigma of the heralded_split config, whose run reads 1.45
sigma below the analytic g2, so a 1 % low expectation reads 4.4 sigma.  A
1 % high one reads 7.2, as the planted estimator does; the g2 gate
resolves about 1.3 % of g2 here, not 1 %.

The error is a factor 0.99 on a probability or a law parameter, which
keeps it a probability, and 1.01 on the truncated Poisson cdf: entries
past 1 drop out of the draw's thresholds, while a cdf below 1 everywhere
would leave the top words past the table.
"""

from __future__ import annotations

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import spdc_stats
from spdc_stats import (DetectorChain, SimConfig, compare_with_analytic, montecarlo,
                        simulate)

GATE = 5.0

CONFIGS = [
    SimConfig(mode="two_arm", pulses=1_000_000, seed=11, x=0.5,
              chain=DetectorChain(0.6, 0.7)),
    SimConfig(mode="heralded_split", pulses=1_000_000, seed=12, x=0.5,
              chain=DetectorChain(0.6, 0.7, 0.6)),
    SimConfig(mode="saturation", pulses=1_000_000, seed=13,
              source_kind="thermal", mean=2.0, chain=DetectorChain(0.5)),
    SimConfig(mode="saturation", pulses=1_000_000, seed=14,
              source_kind="coherent", mean=2.0, chain=DetectorChain(0.5)),
]


def _scaled_output(f):
    """f with the float it returns, or each float of the list or tuple,
    times 0.99."""
    def planted(*args, **kwargs):
        out = f(*args, **kwargs)
        if isinstance(out, (list, tuple)):
            return type(out)(0.99 * v for v in out)
        return 0.99 * out
    return planted


def _scaled_argument(f):
    """f of 0.99 times its one argument, a law parameter."""
    return lambda p: f(0.99 * p)


def _raised_cdf(f):
    """f with its cdf table times 1.01."""
    return lambda mean: f(mean) * 1.01


# formula, its owning module, the planted error, and whether a gate sees it
MATRIX = [
    ("emission_probability", "photon_statistics", _scaled_output, True),
    ("click_probability", "detector_model", _scaled_output, True),
    ("click_moment", "photon_statistics", _scaled_output, True),
    ("click_sets", "detector_model", _scaled_output, True),
    ("pair_outcomes", "detector_model", _scaled_output, True),
    # only the run's side of the g2 gate reads the estimator; the judge
    # forms g2 from the click-set cells, so no known blind spot is left
    ("g2_from_counts", "detector_model", _scaled_output, True),
    # the judge's g2 expectation and variance; 4.4 sigma, see above
    ("g2_on_cells", "detector_model", _scaled_output, False),
    ("_geometric_draw", "montecarlo", _scaled_argument, True),
    ("_truncated_poisson_cdf", "montecarlo", _raised_cdf, True),
]


def _package_modules():
    return [importlib.import_module(f"spdc_stats.{m.name}")
            for m in pkgutil.iter_modules(spdc_stats.__path__)]


def _max_sigma(counts):
    return max(entry["sigma"]
               for config, run in zip(CONFIGS, counts)
               for entry in compare_with_analytic(config, run).values())


@pytest.fixture(scope="module")
def baseline():
    return [simulate(config, threads=1) for config in CONFIGS]


def test_unmutated_configs_pass_the_gate(baseline):
    assert _max_sigma(baseline) < GATE


@pytest.mark.parametrize("name, owner, plant, caught", MATRIX,
                         ids=[row[0] for row in MATRIX])
def test_planted_error(baseline, monkeypatch, name, owner, plant, caught):
    original = getattr(importlib.import_module(f"spdc_stats.{owner}"), name)
    bound = [m for m in _package_modules() if getattr(m, name, None) is original]
    mutant = plant(original)
    for module in bound:
        monkeypatch.setattr(module, name, mutant)
    if montecarlo in bound:
        counts = [simulate(config, threads=1) for config in CONFIGS]
    else:
        counts = baseline
    sigma = _max_sigma(counts)
    assert (sigma > GATE) == caught, (name, sigma)


def test_oracle_imports_nothing_from_the_sampler():
    tree = ast.parse(Path(__file__).with_name("oracle.py").read_text())
    sampler = {"montecarlo", *spdc_stats._PUBLIC["montecarlo"]}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            assert all("montecarlo" not in a.name for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            assert "montecarlo" not in (node.module or "")
            if node.module == "spdc_stats":
                assert not sampler & {a.name for a in node.names}
