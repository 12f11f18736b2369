"""Recorded values of the Monte Carlo judge over every mode and both sources.

``data/judge_parity.json`` holds, for each config of ``grid()``, the
per-pulse ``analytic_expectations`` and the ``compare_with_analytic``
standard errors over ``PULSES`` pulses, as this module's ``record()``
wrote them.  Rewriting how the judge or the source laws are computed must
keep every expectation bit-identical and every standard error within
``STDERR_REL`` relative.

One value is allowed to move: saturation's clicked_photons, the literal
``detected_vs_incident``.  Its positive-term form moves it by an ulp or two
at eta >= 0.37 (``LITERAL_REL``).  At eta <= 1e-9 the recorded form lost up
to 1.3e-7 to cancellation, so there it is held to the 50-digit reference
instead; its variance, E[n**2] - E[n**2 (1 - eta)**n] - mean**2, cancels in
every form there, and is held only to be exactly 0 at eta = 0.

Regenerate the file only when a value is meant to change:

    PYTHONPATH=src python tests/test_judge_parity.py
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import pytest

import oracle
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
            got_se = stderr.pop("clicked_photons")
            del recorded_se["clicked_photons"]
            assert eta > 0.0 or got_se == 0.0
        assert math.isclose(got, want, rel_tol=LITERAL_REL, abs_tol=0.0)
    assert expected == recorded
    assert set(stderr) == set(recorded_se)
    for name, want in recorded_se.items():
        assert math.isclose(stderr[name], want, rel_tol=STDERR_REL,
                            abs_tol=0.0), name


if __name__ == "__main__":
    record()
