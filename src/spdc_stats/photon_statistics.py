"""Per-pulse photon-number statistics for pulsed pair sources.

A pulsed down-conversion source emits n photon pairs per pulse with a
geometric (single-mode thermal) distribution

    Pr(n) = (1 - x) * x**n,        0 <= x < 1,

where x is the per-pulse emission parameter.  A pulsed attenuated laser
emits single photons with a Poisson distribution of mean nu.  Everything
downstream (click models, rate inversion, correlation functions) is built
on these two distributions.  Each quantity has one exact closed form; the
series sums that define them are test references in ``tests/oracle.py``.

A law is named by a pair (kind, p): ("thermal", x) is the geometric law
above, with generating function G(z) = (1 - x) / (1 - x z), and
("coherent", nu) the Poisson law, G(z) = exp(-nu (1 - z)).  This module
holds their closed forms once (``emission_probability``,
``source_moment``), for the Monte Carlo sampler and its judge alike.  It
also owns the one series-truncation policy (``truncation_order``) the test
references use, and the one check (``validate_positive``) that every
repetition rate, counting time and pulse count passes.  It is scalar
``math`` code and does not import numpy; the Poisson and binomial tables
the Monte Carlo draws from live in ``montecarlo``.
"""

from __future__ import annotations

import math

from .errors import ResourceLimitError

# Absolute tail mass allowed when truncating a photon-number series.
EPS_TRUNC_DEFAULT = 1e-12
# Hard cap on the truncation order; beyond this the source is so close to
# x = 1 that a series evaluation is no longer meaningful.
N_MAX_CAP = 10_000


def validate_emission_parameter(x: float) -> float:
    """Check 0 <= x < 1 and return x as a float."""
    x = float(x)
    if not 0.0 <= x < 1.0 or math.isnan(x):
        raise ValueError(f"emission parameter x must lie in [0, 1), got {x!r}")
    return x


def validate_positive(value: float, name: str) -> None:
    """Check 0 < value < inf, as a repetition rate or a counting time must be."""
    if not 0 < value < math.inf:
        raise ValueError(f"{name} must be positive and finite, got {value!r}")


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


def mean_pairs_per_pulse(x: float) -> float:
    """Mean number of pairs per pulse, x / (1 - x)."""
    x = validate_emission_parameter(x)
    return x / (1.0 - x)


def pair_rate(f: float, x: float) -> float:
    """Total pair generation rate N = f * x / (1 - x), in pairs/s."""
    validate_positive(f, "repetition rate")
    return f * mean_pairs_per_pulse(x)


def one_pair_rate(f: float, x: float) -> float:
    """Rate of pulses containing exactly one pair, N1 = f * (1-x) * x."""
    validate_positive(f, "repetition rate")
    x = validate_emission_parameter(x)
    return f * (1.0 - x) * x


def emission_probability(kind: str, p: float) -> float:
    """P(n >= 1) = 1 - G(0) of the law (kind, p)."""
    return p if kind == "thermal" else -math.expm1(-p)


def _stirling2(k: int) -> list[int]:
    """Stirling numbers of the second kind S(k, j) for j = 0 .. k."""
    row = [1]
    for m in range(k):
        row = [0] + [j * row[j] + row[j - 1] for j in range(1, m + 1)] + [1]
    return row


def source_moment(kind: str, p: float, k: int) -> float:
    """E[n**k] of the law (kind, p), for k >= 1.

    E[n**k] = sum_j S(k, j) G^(j)(1), where the factorial moment G^(j)(1)
    is j! r**j with r = x / (1 - x) for the geometric law, and nu**j for
    the Poisson law.
    """
    thermal = kind == "thermal"
    r = p / (1.0 - p) if thermal else p
    return sum(
        s * (math.factorial(j) if thermal else 1) * r**j
        for j, s in enumerate(_stirling2(k)) if j
    )
