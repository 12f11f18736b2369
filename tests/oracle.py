"""Series references for the package's closed forms.

Every rate and correlation value the package computes in closed form is
defined by a sum over the per-pulse photon-number distribution.  This module
evaluates those defining sums term by term, and the pooled signal-idler
correlations also through raw moments, so the tests can check each closed
form against an independent path.  It shares the package's truncation
policy (``truncation_order``), computes its own Poisson and binomial
weights (``poisson_pmf`` in decimal arithmetic, ``_split_weights`` from
exact integers), writes the per-photon click law in numpy itself, imports
nothing from the Monte Carlo and calls none of the package's closed forms.
The pair-mode click probabilities are also given as exact rationals, by
inclusion-exclusion over the generating function (``exact_all_click``), and
so are the click-set cells (``exact_click_sets``) and the counting g2
estimator's standard error on them, as the unreduced quadratic form
(``exact_g2_stderr``), the thermal law's raw moments
(``exact_thermal_moment``) and the ideal g^(k) of Table 2 that they give
(``exact_ideal_g``).  The literal detected-vs-incident response,
whose defining closed forms cancel as eta -> 0, the variance of the
photon-weighted click tally and every click moment E[n**k 1{click}] are
evaluated in decimal arithmetic (``detected_literal_decimal``,
``clicked_photons_variance_decimal``, ``click_moment_decimal``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from decimal import Context, Decimal, localcontext
from fractions import Fraction
from typing import Callable

import numpy as np

from spdc_stats import ResourceLimitError
from spdc_stats.photon_statistics import (
    EPS_TRUNC_DEFAULT,
    N_MAX_CAP,
    truncation_order,
    validate_emission_parameter,
)

_SERIES_BLOCK = 256


def poisson_pmf(nu: float, n_max: int) -> np.ndarray:
    """Poisson(nu) probabilities for n = 0 .. n_max: Pr(0) = exp(-nu) and
    Pr(n) = Pr(n - 1) nu / n in 40-digit decimal arithmetic, each rounded
    once to a double.  The decimal exponent range holds every term, so
    none underflows before that rounding."""
    with localcontext(Context(prec=40)):
        d = Decimal(nu)
        terms = [(-d).exp()]
        for n in range(1, n_max + 1):
            terms.append(terms[-1] * d / n)
    return np.array([float(t) for t in terms])


def click_probability(n, eta: float):
    """P(click | n incident photons) = 1 - (1 - eta)**n over an integer
    array n (or one integer n)."""
    n = np.asarray(n)
    # eta = 1 gives log1p(-1) = -inf and, at n = 0, 0 * -inf = nan
    with np.errstate(divide="ignore", invalid="ignore"):
        p = -np.expm1(n * np.log1p(-eta))
    return np.where(n == 0, 0.0, p)


def pair_probability(n, x: float):
    """Probability of emitting exactly n pairs in one pulse, (1 - x) x**n.

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


def weighted_pair_sum(
    x: float,
    weight: Callable[[np.ndarray], np.ndarray],
    n_start: int = 0,
) -> float:
    """Evaluate sum_{n >= n_start} weight(n) * Pr(n) adaptively.

    ``weight`` must be vectorized over an int64 array and polynomially
    bounded in n.  Summation proceeds in blocks past the tail-mass
    truncation order until the geometric tail bound of the weighted series
    falls below EPS_TRUNC_DEFAULT relative to the accumulated sum, so the
    result is accurate to ~1e-12 even when the weights grow with n or the
    sum itself is small.
    """
    x = validate_emission_parameter(x)
    if x == 0.0:
        if n_start > 0:
            return 0.0
        return float(weight(np.array([0]))[0])
    n_floor = truncation_order(x)
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
                if tail_bound <= EPS_TRUNC_DEFAULT * max(abs(total), 1e-300):
                    return total
                if last == 0.0:
                    return total
        if n1 > N_MAX_CAP:
            raise ResourceLimitError(
                f"series for x={x} did not converge within {N_MAX_CAP} terms"
            )
        prev_last = last
        n0 = n1


@dataclass(frozen=True)
class PairDistribution:
    """Geometric pair-number distribution truncated by ``truncation_order``.

    Fields
    ------
    x : emission parameter.
    n_max : truncation order (pmf kept for n = 0 .. n_max).
    tail_mass : probability mass beyond n_max, x**(n_max+1).
    """

    x: float
    n_max: int = field(init=False)
    tail_mass: float = field(init=False)

    def __post_init__(self):
        x = validate_emission_parameter(self.x)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "n_max", truncation_order(x))
        object.__setattr__(self, "tail_mass", x ** (self.n_max + 1))

    def probabilities(self) -> np.ndarray:
        """pmf values for n = 0 .. n_max as an array."""
        n = np.arange(self.n_max + 1)
        return (1.0 - self.x) * self.x ** n

    def pmf(self, n):
        return pair_probability(n, self.x)


@dataclass(frozen=True)
class CoherentDistribution:
    """Poisson photon-number distribution of mean nu, truncated where its
    tail mass falls to EPS_TRUNC_DEFAULT."""

    nu: float
    n_max: int = field(init=False)
    tail_mass: float = field(init=False)

    def __post_init__(self):
        nu = float(self.nu)
        if nu < 0 or math.isnan(nu):
            raise ValueError(f"mean photon number nu must be >= 0, got {nu!r}")
        object.__setattr__(self, "nu", nu)
        if nu == 0.0:
            n_max, tail = 1, 0.0
        else:
            n_max, tail = _poisson_truncation(nu, EPS_TRUNC_DEFAULT)
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


# ----------------------------------------------------------- moments


def mean_pairs_per_pulse(x: float) -> float:
    """E[n] = sum n Pr(n)."""
    return weighted_pair_sum(x, lambda n: n.astype(float))


def source_moment(kind: str, p: float, k: int, z: float = 1.0) -> float:
    """E[n**k z**n] summed term by term over the geometric law of x = p
    (kind "thermal") or the Poisson law of mean p (kind "coherent")."""
    if kind == "thermal":
        return weighted_pair_sum(p, lambda n: n.astype(float) ** k * z**n)
    # past p + 40 sqrt(p) + 800 every Poisson probability underflows to 0.0
    n = np.arange(int(p + 40.0 * math.sqrt(p) + 800.0) + 1)
    return float((poisson_pmf(p, n[-1]) * n.astype(float) ** k * z**n).sum())


def factorial_moment(x: float, order: int) -> float:
    """k-th factorial moment E[n (n-1) ... (n-k+1)] of the pair number."""
    k = int(order)
    if k < 1:
        raise ValueError("moment order must be >= 1")

    def weight(n):
        w = np.ones(len(n), dtype=np.float64)
        for j in range(k):
            w *= n - j
        return w

    return weighted_pair_sum(x, weight, n_start=k)


# ------------------------------------------------------------ rates


def singles_rate(f: float, x: float, eta: float) -> float:
    """f * E[P(click | n)] for one bucket detector on one arm."""
    return f * weighted_pair_sum(x, lambda n: click_probability(n, eta))


def coincidence_rate(f: float, x: float, eta1: float, eta2: float) -> float:
    """f * E[P(click1 | n) P(click2 | n)], one detector per arm."""
    def weight(n):
        return click_probability(n, eta1) * click_probability(n, eta2)
    return f * weighted_pair_sum(x, weight)


def _split_weights(n: int) -> np.ndarray:
    """Binomial weights C(n, k) / 2**n for k = 0 .. n; Python's true
    division of integers rounds each correctly, for every n."""
    return np.array([math.comb(n, k) / 2**n for k in range(n + 1)])


def _split_weight_fn(eta1, eta2, eta3, which):
    """Weight of n pairs for the heralded branch rate ``which`` ("12",
    "13" or "123"): the herald click times the binomial average over the
    k photons sent to detector 2 and the n - k sent to detector 3."""
    def weight(ns: np.ndarray) -> np.ndarray:
        out = np.empty(len(ns), dtype=np.float64)
        for i, n in enumerate(ns):
            n = int(n)
            herald = click_probability(n, eta1)
            if herald == 0.0:
                out[i] = 0.0
                continue
            w = _split_weights(n)
            k = np.arange(n + 1)
            p2 = click_probability(k, eta2)
            p3 = click_probability(k[::-1], eta3)  # n - k photons
            if which == "12":
                inner = float((w * p2).sum())
            elif which == "13":
                inner = float((w * p3).sum())
            else:
                inner = float((w * p2 * p3).sum())
            out[i] = herald * inner
        return out
    return weight


def split_coincidences(
    f: float, x: float, eta1: float, eta2: float, eta3: float
) -> dict[str, float]:
    """Heralding singles and branch coincidences behind a balanced
    splitter, keyed as the package's ``split_coincidences`` keys them, with
    the binomial photon split averaged explicitly for each n."""
    rates = {
        name: f * weighted_pair_sum(x, _split_weight_fn(eta1, eta2, eta3, which))
        for name, which in (("pair12", "12"), ("pair13", "13"), ("triple123", "123"))
    }
    return dict(rates, clicks1=singles_rate(f, x, eta1))


def exact_all_click(x: float, eta1: float, eta2: float, eta3=None) -> list:
    """Per-pulse P(every detector in mask a clicks) for every mask a, as
    exact rationals of the float inputs.

    Detector 1 (bit 1) sees the idler at eta1 and detector 2 (bit 2) the
    signal at eta2; given eta3, a balanced splitter sends the signal to
    detector 2 at eta2/2 or detector 3 (bit 4) at eta3/2.  Inclusion-
    exclusion over the subsets S of a gives sum_S (-1)**|S| G(z_S), where
    G(z) = (1 - x) / (1 - z x) and z_S is the probability that one pair
    fires no detector in S.
    """
    x, eta1, eta2 = map(Fraction, (x, eta1, eta2))
    if eta3 is None:
        size, signal = 4, {2: eta2}
    else:
        size, signal = 8, {2: eta2 / 2, 4: Fraction(eta3) / 2}

    def vacuum(s: int) -> Fraction:
        idler = 1 - eta1 if s & 1 else 1
        z = idler * (1 - sum(p for b, p in signal.items() if s & b))
        return (-1) ** bin(s).count("1") * (1 - x) / (1 - z * x)

    signed = [vacuum(s) for s in range(size)]
    return [sum(signed[s] for s in range(size) if s & a == s) for a in range(size)]


def exact_click_sets(x: float, eta1: float, eta2: float, eta3=None) -> list:
    """Per-pulse P(the detectors that click are exactly S) for every mask
    S, as exact rationals: the Moebius inversion of ``exact_all_click``,
    sum over the supersets m of S of (-1)**|m - S| P(all of m click),
    taken one detector bit at a time."""
    cells = exact_all_click(x, eta1, eta2, eta3)
    size = len(cells)
    for bit in range(size.bit_length() - 1):
        for m in range(size):
            if not m >> bit & 1:
                cells[m] -= cells[m | 1 << bit]
    return cells


def exact_g2_stderr(t, q, h, pulses) -> Fraction:
    """Delta-method standard error of the counting estimator g = 2 s t /
    u**2 (s = t + q + h, u = 2t + q) over ``pulses`` pulses, for the cells
    triple t, pair without triple q and herald alone h.

    The variance is the full quadratic form grad @ (diag(p) - p p^T) @
    grad over the cells p = (t, q, h), with the gradient taken term by
    term, in exact integers: with p = P / d for integers P, and g of degree
    0, grad g(p) = d N / U**3 where N is the gradient's numerator at P and
    U = 2 T + Q.  The square root is taken to 60 digits.
    """
    t, q, h = map(Fraction, (t, q, h))
    d = math.lcm(t.denominator, q.denominator, h.denominator)
    cells = [int(c * d) for c in (t, q, h)]
    T, Q, H = cells
    S, U = T + Q + H, 2 * T + Q
    grad = (2 * (T + S) * U - 8 * S * T, 2 * T * U - 4 * S * T, 2 * T * U)
    mean = sum(c * n for c, n in zip(cells, grad))
    variance = Fraction(d * sum(c * n * n for c, n in zip(cells, grad)) - mean**2,
                        U**6)
    with localcontext(Context(prec=60)):
        band = (Decimal(variance.numerator) / Decimal(variance.denominator)
                / Decimal(pulses)).sqrt()
    return Fraction(band)


def detected_vs_incident(
    source_kind: str, mean: float, eta: float, variant: str = "click"
) -> float:
    """E[P(click | n)] ("click") or E[n P(click | n)] ("literal") for a
    thermal (geometric) or coherent (Poisson) source of the given mean."""
    if source_kind == "thermal":
        x = mean / (1.0 + mean)
        if variant == "click":
            return weighted_pair_sum(x, lambda n: click_probability(n, eta))
        return weighted_pair_sum(x, lambda n: n * click_probability(n, eta))
    # Poisson: tighten the tail so the n-weighted sum stays within budget
    n_max, _ = _poisson_truncation(mean, EPS_TRUNC_DEFAULT)
    n_max, _ = _poisson_truncation(mean, EPS_TRUNC_DEFAULT / (10.0 * (n_max + 1)))
    n = np.arange(n_max + 1)
    terms = poisson_pmf(mean, n_max) * click_probability(n, eta)
    if variant == "literal":
        terms = terms * n
    return float(terms.sum())


def detected_literal_decimal(source_kind: str, mean: float, eta: float) -> float:
    """E[n (1 - (1 - eta)**n)] from its defining closed forms,
    mean - (1 - eta) mean / (1 + eta mean)**2 (thermal) and
    mean - mean (1 - eta) exp(-eta mean) (coherent), in 50-digit decimal
    arithmetic, so the subtraction loses nothing a double can hold.  The
    inputs are rounded to 50 digits first, so that eta = 0 gives 0."""
    with localcontext(Context(prec=50)):
        m, e = +Decimal(mean), +Decimal(eta)
        if source_kind == "thermal":
            return float(m - (1 - e) * m / (1 + e * m) ** 2)
        return float(m - m * (1 - e) * (-e * m).exp())


def clicked_photons_variance_decimal(
    source_kind: str, mean: float, eta: float
) -> float:
    """Var(n 1{click}) = E[n**2 1{click}] - E[n 1{click}]**2 from the
    defining closed forms E[n**k] - E[n**k z**n], z = 1 - eta, in 60-digit
    decimal arithmetic on the inputs rounded to 60 digits; 0 at eta = 0,
    where no photon clicks."""
    if eta == 0.0:
        return 0.0
    with localcontext(Context(prec=60)):
        m, e = +Decimal(mean), +Decimal(eta)
        z = 1 - e
        if source_kind == "thermal":
            # z G'(z) and z**2 G''(z) of G(z) = 1 / (1 + m (1 - z))
            d = 1 + m * e
            first, second = m * z / d**2, 2 * m**2 * z**2 / d**3
            e1, e2 = m - first, m + 2 * m**2 - first - second
        else:
            g = (-m * e).exp()
            e1 = m - m * z * g
            e2 = m + m**2 - (m * z + m**2 * z**2) * g
        return float(e2 - e1**2)


def stirling2(k: int) -> list[int]:
    """Stirling numbers of the second kind S(k, j), j = 0 .. k, from the
    explicit sum S(k, j) = sum_i (-1)**i C(j, i) (j - i)**k / j!."""
    return [sum((-1) ** i * math.comb(j, i) * (j - i) ** k for i in range(j + 1))
            // math.factorial(j) for j in range(k + 1)]


def exact_thermal_moment(mean: float | Fraction, k: int) -> Fraction:
    """E[n**k] = sum_j S(k, j) j! mean**j of the thermal law of the given
    mean, as an exact rational of the float (or rational) mean."""
    m = Fraction(mean)
    return sum(s * math.factorial(j) * m**j for j, s in enumerate(stirling2(k)))


def click_moment_decimal(kind: str, mean: float, eta: float, k: int) -> float:
    """E[n**k 1{click}] = sum_j S(k, j) [G^(j)(1) - z**j G^(j)(z)], z = 1 - eta,
    from the law's derivatives G^(j)(z) = j! mean**j / (1 + mean eta)**(j+1)
    (thermal) or mean**j exp(-mean eta) (coherent), in 60-digit decimal
    arithmetic on the inputs rounded to 60 digits.  At eta = 1e-12 the
    difference cancels about 12 digits, so the result keeps ~48."""
    with localcontext(Context(prec=60)):
        m, e = +Decimal(mean), +Decimal(eta)
        z = 1 - e
        total, m_j, z_j = Decimal(0), Decimal(1), Decimal(1)
        for j, s in enumerate(stirling2(k)):
            if kind == "thermal":
                g1 = math.factorial(j) * m_j
                gz = g1 / (1 + m * e) ** (j + 1)
            else:
                g1 = m_j
                gz = g1 * (-m * e).exp()
            total += s * (g1 - z_j * gz)
            m_j, z_j = m_j * m, z_j * z
        return float(total)


# ----------------------------------------------------- correlations


def exact_ideal_g(x: float, order: int, field: str) -> Fraction:
    """Ideal g^(k), k = order, of the geometric law of x as an exact
    rational: E[N (N - 1) ... (N - k + 1)] / E[N]**k from the exact raw
    moments E[n**j] (``exact_thermal_moment``, mean x / (1 - x)), with the
    falling factorial expanded as a polynomial in n.  N is n for field
    "arm", n given n >= 1 for "heralded" (every expectation over P(n >= 1)
    = x) and 2n for "pooled"."""
    xq = Fraction(x)
    mean = xq / (1 - xq)
    scale, norm = {"arm": (1, 1), "heralded": (1, xq), "pooled": (2, 1)}[field]
    falling = [Fraction(1)]  # coefficients of n**0, n**1, ...
    for i in range(order):  # times (scale n - i)
        falling = [scale * low - i * high
                   for low, high in zip([0] + falling, falling + [0])]
    moments = [exact_thermal_moment(mean, j) / norm for j in range(order + 1)]
    return (sum(c * e for c, e in zip(falling, moments))
            / (scale * moments[1]) ** order)


def g2_unheralded(x: float) -> float:
    """Single-arm E[n(n-1)] / E[n]**2."""
    return factorial_moment(x, 2) / factorial_moment(x, 1) ** 2


def g3_unheralded(x: float) -> float:
    """Single-arm E[n(n-1)(n-2)] / E[n]**3."""
    return factorial_moment(x, 3) / factorial_moment(x, 1) ** 3


def g2_heralded_ideal(x: float) -> float:
    """g2 of the signal arm under a perfect herald, from the moments of
    Pr(n | n >= 1); 0 at x = 0."""
    if x == 0.0:
        return 0.0
    # conditional moments: E[w(n) | n >= 1] = sum w(n) Pr(n) / x
    num = weighted_pair_sum(x, lambda n: n * (n - 1.0), n_start=2) / x
    mean = weighted_pair_sum(x, lambda n: n.astype(float), n_start=1) / x
    return num / mean**2


def g2_signal_idler(x: float) -> float:
    """g2 of the pooled field, N = 2n photons per pulse, as a series."""
    num = weighted_pair_sum(x, lambda n: 2.0 * n * (2.0 * n - 1.0), n_start=1)
    mean = weighted_pair_sum(x, lambda n: 2.0 * n.astype(float), n_start=1)
    return num / mean**2


def g3_signal_idler(x: float) -> float:
    """g3 of the pooled field, N = 2n photons per pulse, as a series."""
    num = weighted_pair_sum(
        x, lambda n: 2.0 * n * (2.0 * n - 1.0) * (2.0 * n - 2.0), n_start=1
    )
    mean = weighted_pair_sum(x, lambda n: 2.0 * n.astype(float), n_start=1)
    return num / mean**3


def _pooled_raw_moments(x: float) -> tuple[float, float, float]:
    """E[N], E[N**2], E[N**3] of N = 2n from the geometric moments."""
    mu = x / (1.0 - x)
    return (
        2.0 * mu,
        4.0 * (2.0 * mu**2 + mu),
        8.0 * (6.0 * mu**3 + 6.0 * mu**2 + mu),
    )


def g2_signal_idler_moments(x: float) -> float:
    """Pooled g2 through raw moments: (E[N^2] - E[N]) / E[N]^2."""
    m1, m2, _ = _pooled_raw_moments(x)
    return (m2 - m1) / m1**2


def g3_signal_idler_moments(x: float) -> float:
    """Pooled g3 through raw moments:
    (E[N^3] - 3 E[N^2] + 2 E[N]) / E[N]^3."""
    m1, m2, m3 = _pooled_raw_moments(x)
    return (m3 - 3.0 * m2 + 2.0 * m1) / m1**3
