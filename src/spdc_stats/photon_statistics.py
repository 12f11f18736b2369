"""Per-pulse photon-number statistics for pulsed pair sources.

A pulsed down-conversion source emits n photon pairs per pulse with a
geometric (single-mode thermal) distribution

    Pr(n) = (1 - x) * x**n,        0 <= x < 1,

where x is the per-pulse emission parameter.  A pulsed attenuated laser
emits single photons with a Poisson distribution of mean nu.  Everything
downstream (click models, rate inversion, correlation functions) is built
on these two distributions, so this module also owns the series-truncation
policy used whenever an infinite sum over n is evaluated numerically, the
one Poisson table (``poisson_pmf``) and the one log-binomial helper
(``log_binomial_half``) the rest of the package shares.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import ResourceLimitError

# Absolute tail mass allowed when truncating a photon-number series.
EPS_TRUNC_DEFAULT = 1e-12
# Hard cap on the truncation order; beyond this the source is so close to
# x = 1 that a series evaluation is no longer meaningful.
N_MAX_CAP = 10_000

_SERIES_BLOCK = 256


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


def pair_probability(n, x: float):
    """Probability of emitting exactly n pairs in one pulse.

    Vectorized over n; returns a scalar for scalar n.
    """
    x = validate_emission_parameter(x)
    n_arr = np.asarray(n)
    if not np.issubdtype(n_arr.dtype, np.integer):
        raise ValueError("pair count n must be integer")
    if np.any(n_arr < 0):
        raise ValueError("pair count n must be non-negative")
    out = (1.0 - x) * np.power(float(x), n_arr, dtype=np.float64)
    if np.isscalar(n) or n_arr.ndim == 0:
        return float(out)
    return out


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


def weighted_pair_sum(
    x: float,
    weight: Callable[[np.ndarray], np.ndarray],
    eps_trunc: float = EPS_TRUNC_DEFAULT,
    n_start: int = 0,
) -> float:
    """Evaluate sum_{n >= n_start} weight(n) * Pr(n) adaptively.

    ``weight`` must be vectorized over an int64 array and polynomially
    bounded in n.  Summation proceeds in blocks past the tail-mass
    truncation order until the geometric tail bound of the weighted series
    falls below eps_trunc relative to the accumulated sum, so the result
    is accurate to ~eps_trunc even when the weights grow with n or the sum
    itself is small.
    """
    x = validate_emission_parameter(x)
    if x == 0.0:
        if n_start > 0:
            return 0.0
        return float(weight(np.array([0]))[0])
    n_floor = truncation_order(x, eps_trunc)
    total = 0.0
    n0 = n_start
    prev_last = None
    while True:
        n1 = min(n0 + _SERIES_BLOCK, N_MAX_CAP + 1)
        n = np.arange(n0, n1, dtype=np.int64)
        terms = np.asarray(weight(n), dtype=np.float64) * (1.0 - x) * x ** n
        total += float(terms.sum())
        last = abs(float(terms[-1]))
        if n1 > n_floor:
            # empirical growth ratio over the block, with the previous
            # block's last term included so single-block sums are covered
            mags = np.abs(terms)
            if prev_last is not None:
                mags = np.concatenate(([prev_last], mags))
            with np.errstate(divide="ignore", invalid="ignore"):
                ratios = mags[1:] / mags[:-1]
            ratios = ratios[np.isfinite(ratios)]
            r = float(ratios[-min(32, ratios.size):].max()) if ratios.size else x
            if r < 1.0:
                tail_bound = last * r / (1.0 - r)
                if tail_bound <= eps_trunc * max(abs(total), 1e-300):
                    return total
                if last == 0.0:
                    return total
        if n1 > N_MAX_CAP:
            raise ResourceLimitError(
                f"series for x={x} did not converge within {N_MAX_CAP} terms"
            )
        prev_last = last
        n0 = n1


def mean_pairs_per_pulse(
    x: float,
    method: str = "closed",
    eps_trunc: float = EPS_TRUNC_DEFAULT,
) -> float:
    """Mean number of pairs per pulse, x / (1 - x)."""
    x = validate_emission_parameter(x)
    if method == "closed":
        return x / (1.0 - x)
    if method == "series":
        return weighted_pair_sum(x, lambda n: n.astype(float), eps_trunc)
    raise ValueError(f"unknown method {method!r}")


def factorial_moment(
    x: float,
    order: int,
    method: str = "closed",
    eps_trunc: float = EPS_TRUNC_DEFAULT,
) -> float:
    """k-th factorial moment E[n (n-1) ... (n-k+1)] of the pair number.

    For the geometric distribution this is k! * (x / (1-x))**k.
    """
    x = validate_emission_parameter(x)
    k = int(order)
    if k < 1:
        raise ValueError("moment order must be >= 1")
    if method == "closed":
        return math.factorial(k) * (x / (1.0 - x)) ** k
    if method == "series":
        def weight(n):
            w = np.ones(len(n), dtype=np.float64)
            for j in range(k):
                w *= n - j
            return w
        return weighted_pair_sum(x, weight, eps_trunc, n_start=k)
    raise ValueError(f"unknown method {method!r}")


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


@dataclass(frozen=True)
class PairDistribution:
    """Truncated geometric pair-number distribution.

    Fields
    ------
    x : emission parameter.
    n_max : truncation order (pmf kept for n = 0 .. n_max).
    tail_mass : probability mass beyond n_max, x**(n_max+1).
    """

    x: float
    n_max: int = field(init=False)
    tail_mass: float = field(init=False)
    eps_trunc: float = EPS_TRUNC_DEFAULT

    def __post_init__(self):
        x = validate_emission_parameter(self.x)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "n_max", truncation_order(x, self.eps_trunc))
        object.__setattr__(self, "tail_mass", x ** (self.n_max + 1))

    def probabilities(self) -> np.ndarray:
        """pmf values for n = 0 .. n_max as an array."""
        n = np.arange(self.n_max + 1)
        return (1.0 - self.x) * self.x ** n

    def pmf(self, n):
        return pair_probability(n, self.x)


@dataclass(frozen=True)
class CoherentDistribution:
    """Truncated Poisson photon-number distribution of mean nu."""

    nu: float
    n_max: int = field(init=False)
    tail_mass: float = field(init=False)
    eps_trunc: float = EPS_TRUNC_DEFAULT

    def __post_init__(self):
        nu = float(self.nu)
        if nu < 0 or math.isnan(nu):
            raise ValueError(f"mean photon number nu must be >= 0, got {nu!r}")
        object.__setattr__(self, "nu", nu)
        if nu == 0.0:
            n_max, tail = 1, 0.0
        else:
            n_max, tail = _poisson_truncation(nu, self.eps_trunc)
        object.__setattr__(self, "n_max", n_max)
        object.__setattr__(self, "tail_mass", tail)

    def probabilities(self) -> np.ndarray:
        return poisson_pmf(self.nu, self.n_max)

    def pmf(self, n):
        n_arr = np.asarray(n)
        if not np.issubdtype(n_arr.dtype, np.integer):
            raise ValueError("photon count n must be integer")
        if np.any(n_arr < 0):
            raise ValueError("photon count n must be non-negative")
        # past nu + 40 sqrt(nu) + 800 every probability underflows to 0.0
        top = int(self.nu + 40.0 * math.sqrt(self.nu) + 800.0)
        top = min(top, int(n_arr.max(initial=0)))
        table = np.append(poisson_pmf(self.nu, top), 0.0)
        out = table[np.minimum(n_arr, top + 1)]
        if np.isscalar(n) or n_arr.ndim == 0:
            return float(out)
        return out


def _poisson_truncation(nu: float, eps_trunc: float) -> tuple[int, float]:
    """(n_max, Pr(n > n_max)) for Poisson(nu > 0): n_max is one past the
    smallest k with Pr(n > k) <= eps_trunc, and at least 1."""
    if not 0.0 < eps_trunc < 1.0:
        raise ValueError(f"eps_trunc must lie in (0, 1), got {eps_trunc!r}")
    # 12 standard deviations below the mean, Pr(n > k) is 1 to double precision
    if nu - 12.0 * math.sqrt(nu) > N_MAX_CAP:
        raise ResourceLimitError(
            f"Poisson truncation order exceeds cap {N_MAX_CAP} (nu={nu})"
        )
    margin = 12.0 * math.sqrt(nu) + 40.0
    while True:
        n_hi = int(nu + margin)
        pmf = poisson_pmf(nu, n_hi)
        # from n_hi on the terms fall faster than a geometric of ratio
        # nu / (n_hi + 1), which bounds the mass the table leaves out
        beyond = pmf[-1] / (1.0 - nu / (n_hi + 1.0))
        if beyond <= eps_trunc * 2.0**-53:
            break
        margin *= 2.0
    # sf[k] = Pr(n > k), summed from the small end of the tail up
    sf = np.append(np.cumsum(pmf[::-1])[::-1][1:], 0.0)
    n_max = max(1, int(np.argmax(sf <= eps_trunc)) + 1)
    if n_max > N_MAX_CAP:
        raise ResourceLimitError(
            f"Poisson truncation order {n_max} exceeds cap {N_MAX_CAP}"
        )
    return n_max, float(sf[n_max])
