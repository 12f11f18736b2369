"""Per-pulse photon-number statistics for pulsed pair sources.

A pulsed down-conversion source emits n photon pairs per pulse with a
geometric (single-mode thermal) distribution

    Pr(n) = (1 - x) * x**n,        0 <= x < 1,

where x is the per-pulse emission parameter.  A pulsed attenuated laser
emits single photons with a Poisson distribution of mean nu.  Everything
downstream (click models, rate inversion, correlation functions) is built
on these two distributions.  Each quantity has one exact closed form; the
series sums that define them are test references in ``tests/oracle.py``.
This module owns the one series-truncation policy (``truncation_order``)
those references use, the one Poisson table (``poisson_pmf``) and the one
log-binomial helper (``log_binomial_half``) the rest of the package shares.
"""

from __future__ import annotations

import math

import numpy as np

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


def poisson_pmf(nu: float, n_max: int, n_min: int = 0) -> np.ndarray:
    """Poisson(nu) probabilities for n = n_min .. n_max.

    One anchor at the mode (clipped to the range) is evaluated in log
    space; every other entry follows from it by the recurrence
    Pr(n + 1) = Pr(n) nu / (n + 1), run outward in both directions.
    """
    if nu == 0.0:
        out = np.zeros(n_max - n_min + 1)
        if n_min == 0:
            out[0] = 1.0
        return out
    m = min(max(int(nu), n_min), n_max)
    up = np.cumprod(nu / np.arange(m + 1, n_max + 1, dtype=np.float64))
    down = np.cumprod(np.arange(m, n_min, -1, dtype=np.float64) / nu)
    anchor = math.exp(m * math.log(nu) - nu - math.lgamma(m + 1.0))
    return anchor * np.concatenate((down[::-1], [1.0], up))


def log_factorials(n_max: int) -> np.ndarray:
    """log(k!) for k = 0 .. n_max."""
    return np.array([math.lgamma(k + 1.0) for k in range(n_max + 1)])


def log_binomial_half(n: int, log_fact: np.ndarray) -> np.ndarray:
    """log(C(n, k) / 2**n) for k = 0 .. n, given log_fact = log_factorials(m)
    for some m >= n."""
    head = log_fact[: n + 1]
    return head[n] - head - head[::-1] - n * math.log(2.0)


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
    _validate_rep_rate(f)
    return f * mean_pairs_per_pulse(x)


def one_pair_rate(f: float, x: float) -> float:
    """Rate of pulses containing exactly one pair, N1 = f * (1-x) * x."""
    _validate_rep_rate(f)
    x = validate_emission_parameter(x)
    return f * (1.0 - x) * x


def _validate_rep_rate(f: float) -> None:
    if not f > 0:
        raise ValueError(f"repetition rate must be positive, got {f!r}")
