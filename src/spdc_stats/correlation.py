"""Second- and third-order correlation functions of a pulsed pair source.

All functions are normalized zero-delay correlation values computed from
the geometric per-pulse pair distribution Pr(n) = (1 - x) x**n:

- g2_unheralded / g3_unheralded: one arm alone; the single-mode thermal
  values 2 and 6, independent of x.
- g2_heralded_ideal: the signal arm conditioned on a perfect herald,
  whose pair distribution is Pr(n | n >= 1); equals 2x.
- g2_signal_idler / g3_signal_idler: both arms pooled, so each pulse
  carries N = 2n photons; equal 1/(2x) + 3/2 and 3(1 + x)/x.
- g2_from_counts: the experimental estimator 2 * CC123 * SC1 /
  (CC12 + CC13)**2 applied to measured counts; g2_stderr is its 1-sigma
  band on the exclusive click-set cells.
- g2_heralded_predicted: the same estimator applied to the detector-model
  rate predictions for a given (x, eta1, eta2, eta3), which accounts for
  multi-pair emission seen through lossy bucket detectors.

The counting estimator is normalized differently from g2_heralded_ideal.
For balanced branches (CC12 = CC13) it is exactly half the product form
CC123 * SC1 / (CC12 * CC13).  With ideal detectors the product form tends
to g2_heralded_ideal = 2x as x -> 0, and the counting estimator to x.  So
Table 2's g2_heralded column (2x) and its g2_measured and g2_predicted
columns (the counting estimator, the paper's convention) are on different
scales; the measured/predicted ratio does not depend on the choice.

Each value has one closed form and no other path.  The photon-number
series and raw-moment formulas that define them are test references in
``tests/oracle.py``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .detector_model import DEFAULT_ETA2_SCALE, DEFAULT_ETA3_SCALE, split_coincidences
from .errors import DivergenceError
from .inversion import FailedRow, TableOneRow
from .photon_statistics import validate_emission_parameter, validate_positive


def g2_from_counts(sc1: float, cc12: float, cc13: float, cc123: float) -> float:
    """Experimental zero-delay g2 estimator 2 * cc123 * sc1 / (cc12 + cc13)**2."""
    for name, v in (("sc1", sc1), ("cc12", cc12), ("cc13", cc13), ("cc123", cc123)):
        if v < 0:
            raise ValueError(f"{name} must be non-negative, got {v!r}")
    denom = cc12 + cc13
    if denom == 0:
        raise DivergenceError("cc12 + cc13 = 0: g2 estimator undefined")
    return 2.0 * cc123 * sc1 / denom**2


def g2_stderr(t: float, q: float, h: float, pulses: float) -> float:
    """Standard error of the counting estimator over ``pulses`` pulses.

    t, q, h are the per-pulse probabilities of the exclusive click sets:
    the triple, a pair without the triple, and the herald alone; a negative
    one, which no pulse can produce, raises ValueError.  With s = t + q + h
    (click1) and u = 2t + q (pair12 + pair13) the estimator is
    g = 2 s t / u**2, whose derivatives in t, q, h are 2A/u**2, -2B/u**2
    and 2t/u**2 for A = (q**2 + q h - 2 t h)/u, B = t (q + 2h)/u.  g has
    degree 0, so the delta method under the cells' multinomial covariance
    is a sum of positive terms and nothing cancels:

        Var(g) * pulses = (2 / u**2)**2 (t A**2 + q B**2 + h t**2).
    """
    validate_positive(pulses, "pulses")
    for name, v in (("t", t), ("q", q), ("h", h)):
        if v < 0:
            raise ValueError(f"cell {name} must be non-negative, got {v!r}")
    u = 2.0 * t + q
    if u == 0:
        raise DivergenceError("pair12 + pair13 = 0: g2 estimator undefined")
    a = (q * q + q * h - 2.0 * t * h) / u
    b = t * (q + 2.0 * h) / u
    return 2.0 / u**2 * math.sqrt((t * a * a + q * b * b + h * t * t) / pulses)


def g2_unheralded(x: float) -> float:
    """Single-arm g2(0); exactly 2 for the geometric distribution."""
    validate_emission_parameter(x)
    return 2.0


def g3_unheralded(x: float) -> float:
    """Single-arm g3(0); exactly 6 for the geometric distribution."""
    x = validate_emission_parameter(x)
    if x == 0.0:
        raise DivergenceError("g3 undefined at x = 0 (no photons)")
    return 6.0


def g2_heralded_ideal(x: float) -> float:
    """g2(0) of the signal arm under a perfect herald; equals 2x.

    The heralded pair-number distribution is the source distribution
    conditioned on n >= 1.  At x = 0 the heralded state is a single pair
    with certainty in the limit, so 0 is returned.
    """
    return 2.0 * validate_emission_parameter(x)


def g2_signal_idler(x: float) -> float:
    """g2(0) of the pooled signal+idler field (2n photons per pulse).

    Equals 1/(2x) + 3/2; diverges as x -> 0.
    """
    x = validate_emission_parameter(x)
    if x == 0.0:
        raise DivergenceError("g2 of the pooled field diverges at x = 0")
    return 1.0 / (2.0 * x) + 1.5


def g3_signal_idler(x: float) -> float:
    """g3(0) of the pooled signal+idler field; equals 3 (1 + x) / x."""
    x = validate_emission_parameter(x)
    if x == 0.0:
        raise DivergenceError("g3 of the pooled field diverges at x = 0")
    return 3.0 * (1.0 + x) / x


def g2_heralded_predicted(
    x: float,
    eta1: float,
    eta2: float,
    eta3: float,
) -> float:
    """g2 the splitter measurement would report, from the rate model.

    Applies the counting estimator to the predicted rates for emission
    parameter x seen by the heralding detector eta1 and the two
    post-splitter branches eta2, eta3.  The repetition rate cancels in
    the estimator, so the per-pulse rates of ``split_coincidences``
    (f = 1) are used.

    At x = 0 the limit 0 is returned (one pair at most, no accidentals).
    """
    # split_coincidences validates x and every eta, also at x = 0
    rates = split_coincidences(1.0, x, eta1, eta2, eta3)
    if x == 0.0:
        return 0.0
    return g2_from_counts(rates.sc1h, rates.cc12, rates.cc13, rates.cc123)


@dataclass(frozen=True)
class CorrelationReport:
    """One power point's correlation values.

    g2_measured comes from measured split counts when the sweep row
    carried them (counting arithmetic on data); every other field is
    analytic, evaluated at the recovered source/detector parameters.
    Fields are None where the quantity diverges or cannot be formed.
    """

    power_mw: float
    g2_measured: float | None
    g2_predicted: float | None
    g2_heralded: float
    g2_unheralded: float
    g2_signal_idler: float | None
    g3_signal_idler: float | None
    g3_unheralded: float | None


def report_for_row(
    row: TableOneRow,
    eta2_scale: float = DEFAULT_ETA2_SCALE,
    eta3_scale: float = DEFAULT_ETA3_SCALE,
) -> CorrelationReport:
    """Correlation values for one inverted sweep row."""
    x = row.x
    eta2 = min(row.eta2 * eta2_scale, 1.0)
    eta3 = min(row.eta2 * eta3_scale, 1.0)

    def guarded(fn, *args):
        try:
            return fn(*args)
        except DivergenceError:
            return None

    return CorrelationReport(
        power_mw=row.power_mw,
        g2_measured=None if row.cc12 is None else guarded(
            g2_from_counts, row.sc1, row.cc12, row.cc13, row.cc123),
        g2_predicted=guarded(g2_heralded_predicted, x, row.eta1, eta2, eta3),
        g2_heralded=g2_heralded_ideal(x),
        g2_unheralded=g2_unheralded(x),
        g2_signal_idler=guarded(g2_signal_idler, x),
        g3_signal_idler=guarded(g3_signal_idler, x),
        g3_unheralded=guarded(g3_unheralded, x),
    )


def build_table_two(
    rows: list[TableOneRow | FailedRow],
    eta2_scale: float = DEFAULT_ETA2_SCALE,
    eta3_scale: float = DEFAULT_ETA3_SCALE,
) -> list[CorrelationReport | FailedRow]:
    """Correlation reports for every successfully inverted row.

    FailedRow entries pass through unchanged so callers can keep the
    row-for-row correspondence with the input sweep.
    """
    out: list[CorrelationReport | FailedRow] = []
    for row in rows:
        if isinstance(row, FailedRow):
            out.append(row)
            continue
        out.append(
            report_for_row(row, eta2_scale=eta2_scale, eta3_scale=eta3_scale)
        )
    return out

