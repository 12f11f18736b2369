"""Bucket-detector click statistics for photon-pair sources.

A bucket detector of efficiency eta fires on at least one detection out of
n incident photons: P(click | n) = 1 - (1 - eta)**n.  Averaging that over
the per-pulse photon-number distribution gives singles rates, two-detector
coincidence rates, and the rates seen when one arm is divided by a
balanced splitter onto two detectors.

Closed forms exist for every rate here because the geometric distribution
has the probability generating function G(z) = (1 - x) / (1 - z x).  Each
rate has one closed form and no other path, written as sums and products
of positive terms so it keeps full relative precision down to x -> 0 and
eta -> 0.  The series sums that define the rates are test references in
``tests/oracle.py``.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

from .photon_statistics import validate_emission_parameter, validate_positive

# Branch efficiencies after the balanced splitter, relative to the full
# signal-arm efficiency recovered by the inversion.  The transmitted
# branch keeps the signal-arm detector; the reflected branch uses a
# detector whose calibrated SDE is 0.56 against the signal arm's 0.68,
# hence the default ratio.  Both are overridable wherever they are used.
DEFAULT_ETA2_SCALE = 1.0
DEFAULT_ETA3_SCALE = 0.56 / 0.68


def validate_efficiency(eta: float, name: str = "eta") -> float:
    eta = float(eta)
    if not 0.0 <= eta <= 1.0 or math.isnan(eta):
        raise ValueError(f"{name} must lie in [0, 1], got {eta!r}")
    return eta


def click_probability(n: int, eta: float) -> float:
    """P(click | n incident photons) = 1 - (1 - eta)**n, for one integer n."""
    eta = validate_efficiency(eta)
    try:
        n = operator.index(n)
    except TypeError:
        raise ValueError("photon count n must be integer") from None
    if n < 0:
        raise ValueError("photon count n must be non-negative")
    if n == 0:
        return 0.0
    if eta == 1.0:
        return 1.0  # log1p(-1) is a domain error
    return -math.expm1(n * math.log1p(-eta))


@dataclass(frozen=True)
class DetectorChain:
    """Heralding-arm efficiency plus one or two analysis-arm efficiencies.

    eta2 and eta3 are the full branch efficiencies after the balanced
    splitter; the factor 1/2 from the splitter itself is applied by the
    rate formulas, not folded into these numbers.
    """

    eta1: float
    eta2: float | None = None
    eta3: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "eta1", validate_efficiency(self.eta1, "eta1"))
        for name in ("eta2", "eta3"):
            value = getattr(self, name)
            if value is not None:
                object.__setattr__(self, name, validate_efficiency(value, name))


@dataclass(frozen=True)
class RatePrediction:
    """Predicted count rates in counts/s.

    sc1, sc2, cc apply to the two-detector configuration; cc12, cc13,
    cc123 and the heralding singles sc1h apply to the split configuration.
    Fields not applicable to the configuration that produced the
    prediction are None.
    """

    sc1: float | None = None
    sc2: float | None = None
    cc: float | None = None
    cc12: float | None = None
    cc13: float | None = None
    cc123: float | None = None
    sc1h: float | None = None


def singles_rate(f: float, x: float, eta: float) -> float:
    """Singles click rate of one bucket detector on one arm, counts/s."""
    validate_positive(f, "repetition rate")
    x = validate_emission_parameter(x)
    eta = validate_efficiency(eta)
    # algebraically equal to 1 - E[(1-eta)**n] but free of the
    # subtractive cancellation that form suffers at small eta*x
    return f * eta * x / (1.0 - (1.0 - eta) * x)


def coincidence_rate(f: float, x: float, eta1: float, eta2: float) -> float:
    """Two-detector coincidence rate with one detector per arm, counts/s.

    Never above ``singles_rate`` of either arm, as no coincidence can be.
    """
    validate_positive(f, "repetition rate")
    x = validate_emission_parameter(x)
    eta1 = validate_efficiency(eta1, "eta1")
    eta2 = validate_efficiency(eta2, "eta2")
    z1, z2 = 1.0 - eta1, 1.0 - eta2
    # positive-term rearrangement of
    # 1 - E[z1**n] - E[z2**n] + E[(z1 z2)**n]; exact algebra, but
    # with every term positive it stays accurate at small eta*x
    a = 1.0 - z1 * x
    b = 1.0 - z2 * x
    c = 1.0 - z1 * z2 * x
    bracket = z1 * x / (a * c) + z2 * x / (b * c) + 1.0 / c
    cc = f * x * eta1 * eta2 * bracket
    # within ~1e-13 of eta = 1, where cc equals a singles rate, rounding
    # can put cc an ulp or two above it
    return min(cc, singles_rate(f, x, eta1), singles_rate(f, x, eta2))


def two_arm_rates(f: float, x: float, eta1: float, eta2: float) -> RatePrediction:
    """Singles and coincidence rates for the two-detector configuration."""
    return RatePrediction(
        sc1=singles_rate(f, x, eta1),
        sc2=singles_rate(f, x, eta2),
        cc=coincidence_rate(f, x, eta1, eta2),
    )


def split_coincidences(
    f: float,
    x: float,
    eta1: float,
    eta2: float,
    eta3: float,
) -> RatePrediction:
    """Rates when one arm feeds a balanced splitter onto two detectors.

    The n photons reaching the splitter divide binomially between the two
    output branches; detector 2 sees k photons with branch efficiency eta2
    and detector 3 sees n - k with eta3.  The closed form follows from the
    generating function and is accurate to near machine precision relative
    to each rate, for every x in [0, 1) and every efficiency in [0, 1].
    """
    validate_positive(f, "repetition rate")
    x = validate_emission_parameter(x)
    eta1 = validate_efficiency(eta1, "eta1")
    eta2 = validate_efficiency(eta2, "eta2")
    eta3 = validate_efficiency(eta3, "eta3")
    # a balanced split followed by a detector of efficiency eta is one
    # detector of efficiency eta/2 as far as branch pairs go
    return RatePrediction(
        cc12=coincidence_rate(f, x, eta1, eta2 / 2.0),
        cc13=coincidence_rate(f, x, eta1, eta3 / 2.0),
        cc123=f * _triple_per_pulse(x, eta1, eta2 / 2.0, eta3 / 2.0),
        sc1h=singles_rate(f, x, eta1),
    )


def _triple_per_pulse(x: float, eta1: float, p: float, q: float) -> float:
    """Per-pulse three-fold probability behind the splitter.

    p and q are the per-photon click probabilities of the two branch
    detectors (half their efficiencies).  Inclusion-exclusion over the
    generating function gives, with a, b, c = 1 - p, 1 - q, 1 - p - q,

        (1 - x) p q [R(x) - R((1 - eta1) x)],
        R(y) = y**2 (2 - (2 - p - q) y) / ((1 - y)(1 - a y)(1 - b y)(1 - c y)).

    R is increasing, so the bracket is R(x) (1 - exp(-delta)) with delta =
    log R(x) - log R((1 - eta1) x) built from log1p terms of d = eta1 x
    directly, and every 1 - s y is formed as (1 - y) + (1 - s) y; nothing
    near-equal is ever subtracted.
    """
    if x == 0.0 or eta1 == 0.0 or p == 0.0 or q == 0.0:
        return 0.0
    u = 1.0 - x
    ts = (0.0, p, q, p + q)  # 1 - s for s = 1, a, b, c
    # (1 - x) R(x), with the (1 - x) factors cancelled
    head = p * q * x * x * (2.0 * u + (p + q) * x)
    for t in ts[1:]:
        head /= u + t * x
    if eta1 == 1.0:
        return head  # R(0) = 0
    d = eta1 * x
    v = x - d
    delta = -2.0 * math.log1p(-eta1) + math.log1p(
        -(2.0 - p - q) * d / (2.0 * (u + d) + (p + q) * v)
    )
    for t in ts:
        delta += math.log1p((1.0 - t) * d / (u + t * x))
    return head * -math.expm1(-delta)


def detected_vs_incident(
    source_kind: str,
    mean: float,
    eta: float,
    variant: str = "click",
) -> float:
    """Per-pulse detected signal versus mean incident photon number.

    source_kind is "thermal" (geometric distribution of mean ``mean``) or
    "coherent" (Poisson of mean ``mean``).  The "click" variant returns
    the click probability E[1 - (1-eta)**n]; the "literal" variant weights
    each term by the incident photon number, E[n (1 - (1-eta)**n)].
    """
    mean = float(mean)
    if mean < 0 or math.isnan(mean):
        raise ValueError(f"mean photon number must be >= 0, got {mean!r}")
    eta = validate_efficiency(eta)
    if source_kind not in ("thermal", "coherent"):
        raise ValueError(f"unknown source_kind {source_kind!r}")
    if variant not in ("click", "literal"):
        raise ValueError(f"unknown variant {variant!r}")

    # with z = eta * mean, the literal forms are written as sums of
    # positive terms: mean - (1 - eta) mean / (1 + z)**2 and
    # mean - mean (1 - eta) exp(-z) cancel as eta -> 0
    z = eta * mean
    if source_kind == "thermal":
        if variant == "click":
            return z / (1.0 + z)
        return z * (1.0 + 2.0 * mean + z * mean) / (1.0 + z) ** 2
    if variant == "click":
        return -math.expm1(-z)
    return mean * (eta * math.exp(-z) - math.expm1(-z))
