"""Bucket-detector click statistics for photon-pair sources.

A bucket detector of efficiency eta fires on at least one detection out of
n incident photons: P(click | n) = 1 - (1 - eta)**n.  Averaging that over
the per-pulse photon-number distribution gives singles rates, two-detector
coincidence rates, and the rates seen when one arm is divided by a
balanced splitter onto two detectors.

Every pair-mode rate is an entry of ``all_click``, a sum of cells of
``click_sets``: the distribution of the final click set, driven by the
click sets one pair fires (``pair_outcomes``), for the thermal and the
coherent law alike.  ``two_arm_rates`` and ``split_coincidences`` each read
all their rates from one such pass, and so does the Monte Carlo's judge.
Its terms are all positive, so each cell and rate keeps full relative
precision for every x in [0, 1) and eta in [0, 1].  The series sums that define the
rates are test references in ``tests/oracle.py``.

The module also owns the counting g2 estimator.  ``g2_from_counts`` applies
it to counts: measured rows and a run's tallies.  ``g2_on_cells`` gives its
expectation and variance on the split setup's click-set cells, which
``correlation``'s predicted g2, the Monte Carlo's judge and ``g2_stderr`` read.
"""

from __future__ import annotations

import math
import operator
from typing import NamedTuple

from .errors import DivergenceError
from .photon_statistics import SourceLaw, validate_positive

# Branch efficiencies after the balanced splitter, relative to the full
# signal-arm efficiency recovered by the inversion.  The transmitted
# branch keeps the signal-arm detector; the reflected branch uses a
# detector whose calibrated SDE is 0.56 against the signal arm's 0.68,
# hence the default ratio.  Both are overridable wherever they are used.
DEFAULT_ETA2_SCALE = 1.0
DEFAULT_ETA3_SCALE = 0.56 / 0.68


def validate_efficiency(eta: float, name: str = "eta") -> float:
    """Check 0 <= eta <= 1 and return eta as a float; a bool is no eta."""
    value = float(eta)  # NaN fails the range test
    if isinstance(eta, bool) or not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must lie in [0, 1], got {eta!r}")
    return value


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


class _ChainFields(NamedTuple):
    eta1: float
    eta2: float | None = None
    eta3: float | None = None


class DetectorChain(_ChainFields):
    """Heralding-arm efficiency plus one or two analysis-arm efficiencies.

    eta2 and eta3 are the full branch efficiencies after the balanced
    splitter; the factor 1/2 from the splitter itself is applied by
    ``pair_outcomes``, not folded into these numbers.  Every given eta is
    checked and stored as a float, also through ``_replace``.
    """

    __slots__ = ()

    def __new__(cls, eta1: float, eta2: float | None = None,
                eta3: float | None = None):
        eta1 = validate_efficiency(eta1, "eta1")
        if eta2 is not None:
            eta2 = validate_efficiency(eta2, "eta2")
        if eta3 is not None:
            eta3 = validate_efficiency(eta3, "eta3")
        return super().__new__(cls, eta1, eta2, eta3)

    @classmethod
    def _make(cls, iterable):  # _replace builds through here
        return cls(*iterable)


class RatePrediction(NamedTuple):
    """``two_arm_rates``' singles and coincidence rates in counts/s.

    It stays only because the benchmark's row check reads these names;
    ROADMAP item 14 retires it with the benchmark's next change.
    """

    sc1: float
    sc2: float
    cc: float


# each click tally and the mask of detectors (the bits of ``pair_outcomes``)
# that must all click for it to count.  A setup of D detectors forms the
# entries below 2**D: the Monte Carlo counts them, and the judge reads
# their ``all_click`` entries.
CLICK_MASKS = {"clicks1": 1, "clicks2": 2, "clicks3": 4, "pair12": 3, "pair13": 5,
               "triple123": 7}


def pair_outcomes(eta1: float, eta2: float | None = None,
                  eta3: float | None = None) -> list[float]:
    """Probability of each click set one pair fires, indexed by bitmask.

    The idler reaches detector 1 (bit 1) with probability eta1 and the
    signal detector 2 (bit 2) with eta2; without eta2, detector 1 is
    alone.  Given eta3, a balanced splitter sends the signal to detector 2
    with eta2/2 or to detector 3 (bit 4) with eta3/2.
    """
    if eta2 is None:
        signal = [1.0, 0.0]
    elif eta3 is None:
        signal = [1.0 - eta2, 0.0, eta2, 0.0]
    else:
        # the miss as a sum of positive terms keeps its relative precision
        # when both branches are near-perfect
        miss = ((1.0 - eta2) + (1.0 - eta3)) / 2.0
        signal = [miss, 0.0, eta2 / 2.0, 0.0, eta3 / 2.0, 0.0, 0.0, 0.0]
    idler = (1.0 - eta1, eta1)
    return [idler[t & 1] * signal[t & ~1] for t in range(len(signal))]


def click_sets(law: SourceLaw, outcomes: list[float]) -> list[float]:
    """Per-pulse P(the detectors that click are exactly S), for every mask S,
    when each pair of the law fires click set t with probability outcomes[t].

    Thermal: the law is memoryless, so a pulse is a walk over the sets of
    detectors that have clicked.  Leaving c, it stops with
    1 / den(c) or moves to c | t != c with mean * outcomes[t] / den(c),
    where den(c) = 1 + mean * (sum of those outcomes[t]).  Moves go to
    larger masks, so a pass in increasing order has the probability of
    reaching c complete when it leaves c.  It is plain arithmetic, so it
    also runs on complex numbers.  Coherent: the pairs that fire each set t
    are independent Poisson(w) clusters, w = mean * outcomes[t], so step t
    keeps a cell with exp(-w) and moves it to c | t with -expm1(-w).  Every
    term is positive.
    """
    mean = law.mean
    cells = [1.0] + [0.0] * (len(outcomes) - 1)
    if law.kind == "coherent":
        for t, p in enumerate(outcomes):
            if p:
                stay, fire = math.exp(-mean * p), -math.expm1(-mean * p)
                for c in range(len(cells)):
                    if c | t != c:
                        cells[c | t] += cells[c] * fire
                        cells[c] *= stay
        return cells
    for c in range(len(outcomes)):
        moves = [(c | t, p) for t, p in enumerate(outcomes) if p and c | t != c]
        den = 1.0 + mean * sum(p for _, p in moves)
        for b, p in moves:
            cells[b] += cells[c] * mean * p / den
        cells[c] /= den
    return cells


def all_click(sets: list[float]) -> list[float]:
    """Per-pulse P(every detector in mask m clicks): ``click_sets``' sums
    over the supersets of m, for every mask m."""
    return [math.fsum(p for s, p in enumerate(sets) if s & m == m)
            for m in range(len(sets))]


def _pair_rates(f: float, law: SourceLaw, *etas: float) -> dict[str, float]:
    """f times the ``all_click`` entry of each ``CLICK_MASKS`` tally that
    the len(etas) detectors form, from one ``click_sets`` pass of law."""
    validate_positive(f, "repetition rate")
    etas = [validate_efficiency(eta, f"eta{i}") for i, eta in enumerate(etas, 1)]
    p = all_click(click_sets(law, pair_outcomes(*etas)))
    return {name: f * p[m] for name, m in CLICK_MASKS.items() if m < len(p)}


def two_arm_rates(f: float, x: float, eta1: float, eta2: float) -> RatePrediction:
    """Singles and coincidence rates for the two-detector configuration,
    counts/s.  Each is f times a correctly rounded sum of non-negative
    ``click_sets`` cells, and cc sums a subset of either singles' cells,
    so cc never exceeds sc1 or sc2."""
    r = _pair_rates(f, SourceLaw.geometric(x), eta1, eta2)
    return RatePrediction(sc1=r["clicks1"], sc2=r["clicks2"], cc=r["pair12"])


def split_coincidences(
    f: float, x: float, eta1: float, eta2: float, eta3: float
) -> dict[str, float]:
    """Rates in counts/s when one arm feeds a balanced splitter onto two
    detectors, keyed by the ``CLICK_MASKS`` tally that counts each:
    clicks1, clicks2, clicks3, pair12, pair13 and triple123.

    The n photons reaching the splitter divide binomially between the two
    output branches; detector 2 sees k photons with branch efficiency eta2
    and detector 3 sees n - k with eta3.  Every rate is an entry of
    ``all_click`` over one ``click_sets`` pass.
    """
    return _pair_rates(f, SourceLaw.geometric(x), eta1, eta2, eta3)


def g2_from_counts(sc1: float, cc12: float, cc13: float, cc123: float) -> float:
    """Experimental zero-delay g2 estimator 2 * cc123 * sc1 / (cc12 + cc13)**2."""
    for name, v in (("sc1", sc1), ("cc12", cc12), ("cc13", cc13), ("cc123", cc123)):
        if v < 0:
            raise ValueError(f"{name} must be non-negative, got {v!r}")
    denom = cc12 + cc13
    if denom == 0:
        raise DivergenceError("cc12 + cc13 = 0: g2 estimator undefined")
    return 2.0 * cc123 * sc1 / denom**2


def g2_on_cells(sets: list[float]) -> tuple[float, float]:
    """The counting estimator's per-pulse expectation and variance on the
    split setup's ``click_sets`` cells.

    t = cell 7 (the triple), q = cells 3 + 5 (a pair without the triple)
    and h = cell 1 (the herald alone) are exclusive; a negative one, which
    no pulse can produce, raises ValueError.  With s = t + q + h (click1)
    and u = 2t + q (pair12 + pair13) the estimator is g = 2 s t / u**2,
    whose derivatives in t, q, h are 2A/u**2, -2B/u**2 and 2t/u**2 for
    A = (q**2 + q h - 2 t h)/u, B = t (q + 2h)/u.  The delta method under
    the cells' multinomial covariance is a sum of positive terms and
    nothing cancels:

        Var(g) * pulses = (2 / u**2)**2 (t A**2 + q B**2 + h t**2).
    """
    t, q, h = sets[7], sets[3] + sets[5], sets[1]
    for name, v in (("t", t), ("q", q), ("h", h)):
        if v < 0:
            raise ValueError(f"cell {name} must be non-negative, got {v!r}")
    # g has degree 0 and the variance degree -1, so the largest cell scaled
    # by a power of two into [1, 2) keeps u * u off underflow at small x; the
    # variance scales back exactly, and u * u, unlike pow, rounds alike at any scale
    k = 1 - math.frexp(max(t, q, h))[1]
    t, q, h = math.ldexp(t, k), math.ldexp(q, k), math.ldexp(h, k)
    u = 2.0 * t + q
    if u == 0:
        raise DivergenceError("pair12 + pair13 = 0: g2 estimator undefined")
    a = (q * q + q * h - 2.0 * t * h) / u
    b = t * (q + 2.0 * h) / u
    w = 2.0 / (u * u)
    return (2.0 * (t + q + h) * t / (u * u),
            math.ldexp(w * w * (t * a * a + q * b * b + h * t * t), k))


def g2_stderr(t: float, q: float, h: float, pulses: float) -> float:
    """Standard error of the counting estimator over ``pulses`` pulses, from
    the variance of ``g2_on_cells`` at cells 7, 3 + 5 and 1 of t, q, h."""
    validate_positive(pulses, "pulses")
    return math.sqrt(g2_on_cells([0.0, h, 0.0, q, 0.0, 0.0, 0.0, t])[1] / pulses)
