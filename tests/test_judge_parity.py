"""Recorded values of the Monte Carlo judge over every mode and both sources.

``data/judge_parity.json`` holds, for each config of ``grid()``, the
per-pulse ``analytic_expectations`` and the ``compare_with_analytic``
standard errors over ``PULSES`` pulses, as this module's ``record()``
wrote them.  Rewriting how the judge or the source laws are computed must
keep every expectation bit-identical and every standard error within
``STDERR_REL`` relative, with six exceptions held to references instead.

- The pair-mode click tallies and g2 are held to the exact rationals of
  ``oracle.exact_all_click``, within ``RATE_REL`` and ``G2_REL``; the record
  itself is up to 4.9e-15 off them.
- g2's standard error is held to the exact delta-method band on the exact
  click-set cells (``oracle.exact_g2_stderr``) within ``RATE_REL``; the
  record is 4.29e-10 off it at x = 0.99, etas (0.215, 1, 1).
- Saturation's clicked_photons, E[n 1{click}] (``click_moment`` at k = 1,
  the literal saturation curve), may move by an ulp or two at eta >= 0.37 (``LITERAL_REL``).  At eta <= 1e-9
  the recorded form lost up to 1.3e-7 to cancellation, so there it is held
  to the 50-digit reference instead.
- Its standard error is held to the 60-digit decimal reference
  (``oracle.clicked_photons_variance_decimal``) within ``CLICKED_SE_REL``
  at every point; the recorded form cancelled as eta -> 0.
- The thermal saturation source's emission moments and their standard
  errors are held to the exact raw moments sum_j S(k, j) j! mean**j
  (``oracle.exact_thermal_moment``) within ``RATE_REL``; the record read
  them through x = mean / (1 + mean) and is up to 2.0e-14 off.
- At coherent mean 30 and 300, the standard errors of clicks1 and
  pulses_with_emission are held to sqrt(p q / PULSES) within ``RATE_REL``,
  where q = exp(-w) is the miss in 60-digit decimal at the float
  w = eta * mean the expectation p reads (eta = 1 for
  pulses_with_emission).  The record formed the miss as 1 - p, which has
  lost digits once p nears 1: 8.3e-5 relative at mean 30, eta 1, and all of
  them where p rounds to 1.

Regenerate the file only when a value is meant to change:

    PYTHONPATH=src python tests/test_judge_parity.py
"""

from __future__ import annotations

import json
import math
from decimal import Context, Decimal, localcontext
from fractions import Fraction
from pathlib import Path

import pytest

import oracle
from checks import rational_rel_error
from spdc_stats import (
    DetectorChain,
    SimConfig,
    SimCounts,
    analytic_expectations,
    compare_with_analytic,
)

RECORD = Path(__file__).resolve().parent / "data" / "judge_parity.json"
PULSES = 10**6
STDERR_REL = 1e-12
LITERAL_REL = 1e-15
RATE_REL = 2e-15
G2_REL = 4e-15
CLICKED_SE_REL = 1e-14
# emission-moment tallies and the power of n each one sums
EMITTED = {"emitted": 1, "emitted_sq": 2, "emitted_cu": 3}
# pair-mode click tallies and the detectors each one needs to click
MASKS = {"clicks1": 1, "clicks2": 2, "clicks3": 4, "pair12": 3, "pair13": 5,
         "triple123": 7}

XS = (0.0, 1e-6, 0.0135, 0.392, 0.99)
ETAS = (0.0, 1e-12, 1e-9, 0.215, 1.0)
MEANS = (0.0, 1e-3, 0.5, 2.0, 30.0, 300.0)
SATURATION_ETAS = (0.0, 1e-12, 1e-9, 0.37, 0.8, 1.0)


def grid() -> list[dict]:
    """Keyword arguments of SimConfig (chain as an eta tuple) for every
    recorded config: each pair mode at every x with each eta in turn on the
    herald and on the analysis arm, and each saturation source at every
    mean and eta."""
    out = []
    for mode in ("two_arm", "heralded_split"):
        for x in XS:
            for eta in ETAS:
                for etas in ((eta, 0.198, 0.163), (0.215, eta, eta)):
                    out.append({"mode": mode, "x": x, "etas": etas})
    for kind in ("thermal", "coherent"):
        for mean in MEANS:
            for eta in SATURATION_ETAS:
                out.append({"mode": "saturation", "source_kind": kind,
                            "mean": mean, "etas": (eta,)})
    return out


def judge(spec: dict) -> tuple[dict, dict]:
    """(expectations, standard errors) of the judge for one grid entry."""
    spec = dict(spec)
    etas = spec.pop("etas")
    if spec["mode"] == "two_arm":
        etas = etas[:2]
    config = SimConfig(pulses=PULSES, seed=0, chain=DetectorChain(*etas), **spec)
    expected = analytic_expectations(config)
    # one pair coincidence, so the g2 row is formed wherever the model has one
    counts = SimCounts(pulses=PULSES, clicks1=1, pair12=1)
    report = compare_with_analytic(config, counts)
    return expected, {name: entry["stderr"] for name, entry in report.items()}


def exact_tallies(spec: dict) -> dict:
    """The pair-mode click tallies and g2 of one grid entry as exact
    rationals."""
    eta1, eta2, eta3 = spec["etas"]
    split = spec["mode"] == "heralded_split"
    clicks = oracle.exact_all_click(spec["x"], eta1, eta2, eta3 if split else None)
    out = {name: clicks[m] for name, m in MASKS.items() if m < len(clicks)}
    if split and out["pair12"] + out["pair13"] > 0:
        pairs = out["pair12"] + out["pair13"]
        out["g2"] = 2 * out["clicks1"] * out["triple123"] / pairs**2
    return out


def exact_g2_band(spec: dict):
    """g2's standard error over PULSES pulses of one split grid entry, on
    the exact click-set cells."""
    cells = oracle.exact_click_sets(spec["x"], *spec["etas"])
    return oracle.exact_g2_stderr(cells[7], cells[3] + cells[5], cells[1], PULSES)


def exact_emission(mean: float) -> tuple[dict, dict]:
    """(expectations, standard errors over PULSES pulses) of the emission
    moments of a thermal source of the given mean, from its exact raw
    moments; each square root is taken to 60 digits."""
    expected, stderr = {}, {}
    for name, k in EMITTED.items():
        e = oracle.exact_thermal_moment(mean, k)
        variance = (oracle.exact_thermal_moment(mean, 2 * k) - e**2) / PULSES
        with localcontext(Context(prec=60)):
            band = (Decimal(variance.numerator) / Decimal(variance.denominator)).sqrt()
        expected[name], stderr[name] = e, Fraction(band)
    return expected, stderr


def exact_miss_band(p: float, mean: float, eta: float) -> Fraction:
    """sqrt(p q / PULSES) of a click indicator of a coherent source, with its
    miss q = exp(-w) at the float w = eta * mean, to 60 digits."""
    with localcontext(Context(prec=60)):
        q = (-Decimal(eta * mean)).exp()
        return Fraction((Decimal(p) * q / PULSES).sqrt())


def record() -> None:
    rows = []
    for spec in grid():
        expected, stderr = judge(spec)
        rows.append({"spec": spec, "expected": expected, "stderr": stderr})
    RECORD.parent.mkdir(exist_ok=True)
    lines = ",\n".join(json.dumps(row, sort_keys=True) for row in rows)
    RECORD.write_text(f"[\n{lines}\n]\n")


def _recorded() -> list[dict]:
    rows = json.loads(RECORD.read_text())
    for row in rows:
        row["spec"]["etas"] = tuple(row["spec"]["etas"])
    return rows


# empty until record() has run; the grid test then fails
RECORDED = _recorded() if RECORD.exists() else []


def _label(row: dict) -> str:
    spec = row["spec"]
    law = f"x={spec['x']}" if "x" in spec else (
        f"{spec['source_kind']}={spec['mean']}")
    return f"{spec['mode']}-{law}-etas={spec['etas']}"


def test_record_covers_the_grid():
    assert [row["spec"] for row in RECORDED] == grid()


@pytest.mark.parametrize("row", RECORDED, ids=_label)
def test_judge_matches_record(row):
    spec = row["spec"]
    recorded, recorded_se = dict(row["expected"]), dict(row["stderr"])
    expected, stderr = judge(spec)
    if spec["mode"] == "saturation":
        eta = spec["etas"][0]
        got, want = expected.pop("clicked_photons"), recorded.pop("clicked_photons")
        if eta <= 1e-9:
            want = oracle.detected_literal_decimal(
                spec["source_kind"], spec["mean"], eta)
        assert math.isclose(got, want, rel_tol=LITERAL_REL, abs_tol=0.0)
        # held to the decimal reference by test_clicked_photons_stderr
        stderr.pop("clicked_photons")
        del recorded_se["clicked_photons"]
        if spec["source_kind"] == "coherent" and spec["mean"] >= 30.0:
            for name, at in (("clicks1", eta), ("pulses_with_emission", 1.0)):
                del recorded_se[name]
                want = exact_miss_band(expected[name], spec["mean"], at)
                assert rational_rel_error(stderr.pop(name), want) <= RATE_REL, name
        if spec["source_kind"] == "thermal":
            exact, exact_se = exact_emission(spec["mean"])
            for name in EMITTED:
                del recorded[name], recorded_se[name]
                got, got_se = expected.pop(name), stderr.pop(name)
                assert rational_rel_error(got, exact[name]) <= RATE_REL, name
                assert rational_rel_error(got_se, exact_se[name]) <= RATE_REL, name
    else:
        for name, want in exact_tallies(spec).items():
            got = expected.pop(name)
            del recorded[name]
            bound = G2_REL if name == "g2" else RATE_REL
            assert rational_rel_error(got, want) <= bound, name
        if "g2" in stderr:
            got, want = stderr.pop("g2"), exact_g2_band(spec)
            del recorded_se["g2"]
            assert rational_rel_error(got, want) <= RATE_REL, "g2 stderr"
    assert expected == recorded
    assert set(stderr) == set(recorded_se)
    for name, want in recorded_se.items():
        assert math.isclose(stderr[name], want, rel_tol=STDERR_REL,
                            abs_tol=0.0), name


@pytest.mark.parametrize(
    "row", [row for row in RECORDED if row["spec"]["mode"] == "saturation"],
    ids=_label)
def test_clicked_photons_stderr(row):
    spec = row["spec"]
    _, stderr = judge(spec)
    variance = oracle.clicked_photons_variance_decimal(
        spec["source_kind"], spec["mean"], spec["etas"][0])
    assert math.isclose(stderr["clicked_photons"], math.sqrt(variance / PULSES),
                        rel_tol=CLICKED_SE_REL, abs_tol=0.0)


if __name__ == "__main__":
    record()
