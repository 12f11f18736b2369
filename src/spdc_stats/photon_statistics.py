"""Per-pulse photon-number statistics for pulsed pair sources.

A pulsed down-conversion source emits n photon pairs per pulse with a
geometric (single-mode thermal) distribution

    Pr(n) = (1 - x) * x**n,        0 <= x < 1,

where x is the per-pulse emission parameter.  A pulsed attenuated laser
emits single photons with a Poisson distribution of mean nu.  Everything
downstream (click models, rate inversion, correlation functions) is built
on these two distributions.  Each quantity has one exact closed form; the
series sums that define them are test references in ``tests/oracle.py``.

A law is one value, ``SourceLaw``: its kind, its mean, and p, the
parameter the sampler's event count and geometric draw read bit for bit.
("thermal", x) is the geometric law above, G(z) = (1 - x) / (1 - x z), of
mean x / (1 - x); ("coherent", nu) the Poisson law G(z) = exp(-nu (1 - z)).
``click_moment``, the one closed form of every click moment, reads the
mean, since x = mean / (1 + mean) loses about mean ulps.  Miss
probabilities such as G(1 - eta) are cells of ``detector_model.click_sets``,
which serves both laws.  The module also owns the truncation
policy of the test references' series (``truncation_order``) and the check
every repetition rate, counting time and pulse count passes
(``validate_positive``).  It is scalar ``math`` code without numpy; the
Monte Carlo's Poisson and binomial tables live in ``montecarlo``.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .errors import ResourceLimitError

# Absolute tail mass allowed when truncating a photon-number series.
EPS_TRUNC_DEFAULT = 1e-12
# Hard cap on the truncation order; beyond this the source is so close to
# x = 1 that a series evaluation is no longer meaningful.
N_MAX_CAP = 10_000


def validate_emission_parameter(x: float) -> float:
    """Check 0 <= x < 1 and return x as a float; a bool is no x."""
    value = float(x)  # NaN fails the range test
    if isinstance(x, bool) or not 0.0 <= value < 1.0:
        raise ValueError(f"emission parameter x must lie in [0, 1), got {x!r}")
    return value


def validate_positive(value: float, name: str) -> None:
    """Check 0 < value < inf, as a repetition rate or a counting time must
    be; a bool is no such value."""
    if isinstance(value, bool) or not 0 < value < math.inf:
        raise ValueError(f"{name} must be positive and finite, got {value!r}")


class SourceLaw(NamedTuple):
    """A pair-number law: kind "thermal" (geometric) or "coherent"
    (Poisson), its mean, and p, the parameter the sampler reads bit for
    bit: x for the geometric law, the mean for the Poisson law.  Build it
    with ``geometric`` or ``of_mean``, so each parameter has one formula."""

    kind: str
    mean: float
    p: float

    @classmethod
    def geometric(cls, x: float) -> SourceLaw:
        """The geometric law (1 - x) x**n of the emission parameter x."""
        x = validate_emission_parameter(x)
        return cls("thermal", x / (1.0 - x), x)

    @classmethod
    def of_mean(cls, kind: str, mean: float) -> SourceLaw:
        """The thermal or coherent law of the given mean, which must be
        finite and >= 0, and not a bool."""
        if kind not in ("thermal", "coherent"):
            raise ValueError(f"unknown source_kind {kind!r}")
        if mean is None or isinstance(mean, bool) or not 0.0 <= mean < math.inf:
            raise ValueError(
                f"mean photon number must be finite and >= 0, got {mean!r}")
        return cls(kind, mean, mean / (1.0 + mean) if kind == "thermal" else mean)


def truncation_order(x: float, eps_trunc: float = EPS_TRUNC_DEFAULT) -> int:
    """Smallest n_max >= 1 such that the geometric tail mass x**(n_max+1)
    does not exceed eps_trunc.
    """
    x = validate_emission_parameter(x)
    if not 0.0 < eps_trunc < 1.0:
        raise ValueError(f"eps_trunc must lie in (0, 1), got {eps_trunc!r}")
    if x == 0.0:
        return 1
    n_max = max(1, math.ceil(math.log(eps_trunc) / math.log(x) - 1.0))
    # float log rounding can put us one step off in either direction
    while x ** (n_max + 1) > eps_trunc:
        n_max += 1
    while n_max > 1 and x ** n_max <= eps_trunc:
        n_max -= 1
    if n_max > N_MAX_CAP:
        raise ResourceLimitError(
            f"truncation order {n_max} exceeds cap {N_MAX_CAP} "
            f"(x={x}, eps_trunc={eps_trunc})"
        )
    return n_max


def emission_probability(law: SourceLaw) -> float:
    """P(n >= 1) = 1 - G(0) of the law."""
    return law.p if law.kind == "thermal" else -math.expm1(-law.p)


def _reduced_moment(law: SourceLaw, j: int) -> int:
    """The reduced factorial moment G^(j)(1) / mean**j: j! (thermal) or 1."""
    return math.factorial(j) if law.kind == "thermal" else 1


def _stirling2(k: int) -> list[int]:
    """Stirling numbers of the second kind S(k, j) for j = 0 .. k."""
    row = [1]
    for m in range(k):
        row = [0] + [j * row[j] + row[j - 1] for j in range(1, m + 1)] + [1]
    return row


def click_moment(law: SourceLaw, eta: float, k: int) -> float:
    """E[n**k 1{click}] of the law before a bucket detector of
    efficiency eta, for k >= 0: the click probability at k = 0, the raw
    moment E[n**k] at eta = 1.

    With z = 1 - eta and w = eta * mean it is E[n**k] - E[n**k z**n]
    = sum_j S(k, j) G^(j)(1) [(1 - z**j) + z**j D_j], where the factorial
    moment G^(j)(1) is j! mean**j (thermal) or mean**j (coherent) and
    D_j = 1 - G^(j)(z) / G^(j)(1) = 1 - (1 + w)**-(j+1) or 1 - exp(-w),
    written w sum_{i<=j} (1 + w)**i / (1 + w)**(j+1) and -expm1(-w).  With
    1 - z**j = eta sum_{i<j} z**i every term is positive, and at eta = 1
    (z**0 = 1) it is sum_j S(k, j) G^(j)(1) with no branch.
    """
    thermal, mean = law.kind == "thermal", law.mean
    z, w, total = 1.0 - eta, eta * mean, 0.0
    near = far = 0.0  # sum_{i<j} z**i and sum_{i<=j} (1 + w)**i
    for j, s in enumerate(_stirling2(k)):
        far += (1.0 + w) ** j
        d = w * far / (1.0 + w) ** (j + 1) if thermal else -math.expm1(-w)
        bracket = eta * near + z**j * d
        total += s * _reduced_moment(law, j) * mean**j * bracket
        near += z**j
    return total
