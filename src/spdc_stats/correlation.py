"""Second- and third-order correlation functions of a pulsed pair source.

All values are normalized zero-delay correlations of a pair-number law
(``photon_statistics.SourceLaw``; the sweep's is the geometric law of x):

- ideal_g(law, k, field): the ideal g^(k) of one arm ("arm"), of the
  signal arm under a perfect herald ("heralded") or of both arms pooled,
  N = 2n photons per pulse ("pooled"), each a ratio of the law's reduced
  factorial moments r_j = G^(j)(1) / mean**j.  For the geometric law they
  are Table 2's ideal columns: 2 and 6, 2x, 1/(2x) + 3/2 and 3(1 + x)/x.
- g2_heralded_predicted: the expectation of the experimental estimator
  2 * CC123 * SC1 / (CC12 + CC13)**2 on the detector model's click-set
  cells for a given (x, eta1, eta2, eta3), which accounts for multi-pair
  emission seen through lossy bucket detectors.  Table 2's g2_measured
  applies the estimator (``detector_model.g2_from_counts``) to a row's
  measured split counts.

The counting estimator is normalized differently from the heralded g2.
For balanced branches (CC12 = CC13) it is exactly half the product form
CC123 * SC1 / (CC12 * CC13).  With ideal detectors the product form tends
to the heralded g2 = 2x as x -> 0, and the counting estimator to x.  So
Table 2's g2_heralded column (2x) and its g2_measured and g2_predicted
columns (the counting estimator, the paper's convention) are on different
scales; the measured/predicted ratio does not depend on the choice.

Each value has one closed form and no other path.  The photon-number
series and raw-moment formulas that define them are test references in
``tests/oracle.py``.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .detector_model import (DEFAULT_ETA2_SCALE, DEFAULT_ETA3_SCALE, click_sets,
                             g2_from_counts, g2_on_cells, pair_outcomes,
                             validate_efficiency)
from .errors import DivergenceError
from .inversion import FailedRow, TableOneRow
from .photon_statistics import SourceLaw, _reduced_moment, emission_probability


def ideal_g(law: SourceLaw, order: int, field: str) -> float:
    """Ideal g^(k), k = order, of the law's "arm", "heralded" or "pooled"
    field, from its reduced factorial moments r_j = G^(j)(1) / mean**j:
    r_k for one arm; r_k P**(k - 1) for the law conditioned on n >= 1, with
    P = ``emission_probability`` (its limit 0 at P = 0); and for both arms
    pooled, N = 2n of generating function G(z**2), Faa di Bruno's sum over
    i <= k of k!/i! C(i, k - i) r_i / (4 mean)**(k - i), every term
    positive, which diverges at mean 0 (DivergenceError).
    """
    if type(order) is not int or order < 1:  # True is no order, 2.5 no factorial
        raise ValueError(f"order must be an integer >= 1, got {order!r}")
    k = order
    if field == "arm":
        return float(_reduced_moment(law, k))
    if field == "heralded":
        return _reduced_moment(law, k) * emission_probability(law) ** (k - 1)
    if field != "pooled":
        raise ValueError(f"unknown field {field!r}")
    if law.mean == 0.0:
        raise DivergenceError("the pooled field's g diverges at mean 0")
    # C(i, k - i) = 0 for i < k/2: skipped, as their power of 4 mean can
    # underflow to 0
    return sum(math.factorial(k) // math.factorial(i) * math.comb(i, k - i)
               * _reduced_moment(law, i) / (4.0 * law.mean) ** (k - i)
               for i in range(k, (k - 1) // 2, -1))


def g2_heralded_predicted(x: float, eta1: float, eta2: float, eta3: float) -> float:
    """g2 the splitter measurement would report: the counting estimator's
    expectation (``detector_model.g2_on_cells``) on the click-set cells of
    the geometric law of x, seen by the herald eta1 and the branches eta2
    and eta3.

    At x = 0 the limit 0 is returned (one pair at most, no accidentals).
    """
    law = SourceLaw.geometric(x)
    etas = [validate_efficiency(eta, f"eta{i}")
            for i, eta in enumerate((eta1, eta2, eta3), 1)]
    if x == 0.0:
        return 0.0
    return g2_on_cells(click_sets(law, pair_outcomes(*etas)))[0]


class CorrelationReport(NamedTuple):
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
    g3_unheralded: float


def report_for_row(
    row: TableOneRow,
    eta2_scale: float = DEFAULT_ETA2_SCALE,
    eta3_scale: float = DEFAULT_ETA3_SCALE,
) -> CorrelationReport:
    """Correlation values for one inverted sweep row."""
    x, law = row.x, SourceLaw.geometric(row.x)
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
        g2_heralded=ideal_g(law, 2, "heralded"),
        g2_unheralded=ideal_g(law, 2, "arm"),
        g2_signal_idler=guarded(ideal_g, law, 2, "pooled"),
        g3_signal_idler=guarded(ideal_g, law, 3, "pooled"),
        g3_unheralded=ideal_g(law, 3, "arm"),
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

