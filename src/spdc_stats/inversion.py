"""Recover source and detector parameters from measured count rates.

Measured singles rates SC1, SC2 and the coincidence rate CC of a
two-detector pair experiment overdetermine nothing: they are exactly three
equations in the three unknowns (x, eta1, eta2), where x = p * tau is the
per-pulse emission parameter at pump power p.  This module solves that
system and derives the generation-rate columns that follow from x.

The system has an exact solution.  Write s_i = SC_i/f and c = CC/f for
the per-pulse click probabilities and z_i = 1 - eta_i.  A geometric
source with Pr(n) = (1 - x) x^n leaves detector i dark with probability
(1 - x)/(1 - z_i x) and both detectors dark with (1 - x)/(1 - z1 z2 x), so

    1 - s_i            = (1 - x) / (1 - z_i x)
    1 - s1 - s2 + c    = (1 - x) / (1 - z1 z2 x).

The first pair gives z_i x = (x - s_i)/(1 - s_i).  Putting both into the
second and dividing by 1 - x leaves an equation linear in x:

    x   = s1 s2 (1 - s1 - s2 + c) / (c - s1 s2)
    eta_i = s_i (1 - x) / ((1 - s_i) x).

Feasibility is explicit.  Beyond positive rates, cc <= min(sc1, sc2) and
singles below f, a solution needs

- c > s1 s2: coincidences above the accidental floor, which makes x > 0;
- 0 < x < 1: x < 1 is the same as eta_i > 0, and x = 0 can only come
  from s1 s2 underflowing at rates near 1e-170 counts/s.

Each raises DataInconsistencyError naming the inequality.  eta_i <= 1
needs no test of its own: exactly, 1 - eta1 = (1 - s2)(s2 - c) /
((1 - s1) s2 (1 - s1 - s2 + c)), so cc <= sc2 implies it.  In floating
point a row with cc == sc2 rounds to eta1 = 1 + 2.2e-16, so each eta is
clamped to 1.

The returned residual is the largest relative miss of the forward rates
(``two_arm_rates``) at the solution.  It sits near machine precision; a
result above RESIDUAL_MAX raises InversionError instead of being returned.

The solution is written once, in ``_solve``, in plain arithmetic.  The
counting bands differentiate it by a complex step (W. Squire and G. Trapp,
SIAM Rev. 40, 110 (1998)): for an analytic g, Im g(s + i h) / h is g'(s)
to rounding for any small h, as no difference of nearby values is formed.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .detector_model import two_arm_rates, validate_efficiency
from .errors import DataInconsistencyError, InversionError
from .photon_statistics import (SourceLaw, validate_emission_parameter,
                                validate_positive)

# largest relative forward residual a returned inversion may carry
RESIDUAL_MAX = 1e-9


class _RecordFields(NamedTuple):
    power_mw: float
    sc1: float
    sc2: float
    cc: float
    cc12: float | None = None
    cc13: float | None = None
    cc123: float | None = None


class CountRecord(_RecordFields):
    """One measured sweep row: pump power and count rates in counts/s.

    cc12, cc13, cc123 are the split-configuration coincidences; they are
    optional and must be given together or not at all.  The checks run on
    every construction, ``_replace`` included.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        for name, value in zip(self._fields, self):
            if value is not None and not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
        if self.power_mw <= 0:
            raise ValueError(f"power must be positive, got {self.power_mw!r}")
        for name in ("sc1", "sc2", "cc"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")
        split = [self.cc12, self.cc13, self.cc123]
        present = [v is not None for v in split]
        if any(present) and not all(present):
            raise ValueError("cc12, cc13, cc123 must be all present or all absent")
        if all(present) and any(v < 0 for v in split):
            raise ValueError("split coincidence rates must be non-negative")
        return self

    @classmethod
    def _make(cls, iterable):  # _replace builds through here
        return cls(*iterable)


class InversionResult(NamedTuple):
    """Solution of the three-rate system with its forward residual.

    iterations is always 0: the solution is explicit.  The field stays so
    that table1.json keeps its schema.
    """

    tau: float
    eta1: float
    eta2: float
    x: float
    residual: float
    iterations: int
    tau_sigma: float | None = None
    eta1_sigma: float | None = None
    eta2_sigma: float | None = None


class _RowFields(NamedTuple):
    power_mw: float
    sc1: float
    sc2: float
    cc: float
    tau: float
    eta1: float
    eta2: float
    pair_rate: float
    one_pair_rate: float
    mean_pairs: float
    x: float
    residual: float
    iterations: int
    cc12: float | None = None
    cc13: float | None = None
    cc123: float | None = None


class TableOneRow(_RowFields):
    """Measured rates plus everything the inversion derives from them.

    x, eta1 and eta2 are checked on every construction, ``_replace``
    included.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        # Table 2 reads these from a table1.json that may have been edited
        validate_emission_parameter(self.x)
        validate_efficiency(self.eta1, "eta1")
        validate_efficiency(self.eta2, "eta2")
        return self

    @classmethod
    def _make(cls, iterable):  # _replace builds through here
        return cls(*iterable)


class FailedRow(NamedTuple):
    """A sweep row whose inversion raised; the sweep continues without it."""

    record: CountRecord
    error: str


def invert_counts(
    f: float,
    power_mw: float,
    sc1: float,
    sc2: float,
    cc: float,
    with_sigma: bool = False,
    integration_time: float = 1.0,
) -> InversionResult:
    """Solve (sc1, sc2, cc) for (tau, eta1, eta2) at pump power power_mw.

    Optionally propagates counting noise through the explicit solution
    (the delta method) into 1-sigma bands.  The noise model is per-pulse
    multinomial over the f * integration_time pulses counted: every
    coincidence is also a single in both arms, so the three rates are
    correlated, not independent Poisson counts.
    """
    validate_positive(f, "repetition rate")
    validate_positive(power_mw, "power")
    validate_positive(integration_time, "integration_time")
    if not (sc1 > 0 and sc2 > 0 and cc > 0):
        raise DataInconsistencyError(
            f"all rates must be positive, got sc1={sc1}, sc2={sc2}, cc={cc}"
        )
    if cc > min(sc1, sc2):
        raise DataInconsistencyError(
            f"coincidence rate {cc} exceeds a singles rate "
            f"(sc1={sc1}, sc2={sc2}): inconsistent"
        )
    if max(sc1, sc2) >= f:
        raise DataInconsistencyError(
            f"singles rate exceeds the repetition rate {f}"
        )
    s1, s2, c = sc1 / f, sc2 / f, cc / f
    if not c - s1 * s2 > 0:
        raise DataInconsistencyError(
            "count rates admit no solution: c > s1*s2 fails, coincidences "
            f"{cc} are at or below the accidental floor sc1*sc2/f = "
            f"{sc1 * sc2 / f:.6g}"
        )
    eta1, eta2, x = _solve(s1, s2, c)
    if not 0.0 < x < 1.0:
        raise DataInconsistencyError(
            f"count rates admit no solution: 0 < x < 1 fails, x = {x:.6g}"
        )
    eta1, eta2 = min(eta1, 1.0), min(eta2, 1.0)

    pred = two_arm_rates(f, x, eta1, eta2)
    res = max(abs(pred.sc1 / sc1 - 1.0), abs(pred.sc2 / sc2 - 1.0),
              abs(pred.cc / cc - 1.0))
    if not res <= RESIDUAL_MAX:
        raise InversionError(
            f"forward residual {res:.3e} of the explicit solution exceeds "
            f"{RESIDUAL_MAX:g}",
            residual=res,
        )

    sigmas = (None, None, None)
    if with_sigma:
        sigmas = _propagate_sigma(f, power_mw, (s1, s2, c), integration_time)
    return InversionResult(
        tau=x / power_mw,
        eta1=eta1,
        eta2=eta2,
        x=x,
        residual=res,
        iterations=0,
        tau_sigma=sigmas[0],
        eta1_sigma=sigmas[1],
        eta2_sigma=sigmas[2],
    )


def _solve(s1, s2, c):
    """The explicit solution (eta1, eta2, x) of the per-pulse rates, before
    any check or clamp, in plain arithmetic that complex rates pass
    through."""
    x = s1 * s2 * ((1.0 - s1 - s2) + c) / (c - s1 * s2)
    if x == 0.0:  # s1 s2 underflowed, and no efficiency solves the rates
        return math.nan, math.nan, x
    return (s1 * (1.0 - x) / ((1.0 - s1) * x),
            s2 * (1.0 - x) / ((1.0 - s2) * x), x)


def _propagate_sigma(f, power_mw, probs, integration_time):
    """1-sigma bands of (tau, eta1, eta2): the delta method on the explicit
    solution, with the gradients taken in (s1, s2, c) by a complex step of
    1e-30 relative."""
    steps = []
    for k, p in enumerate(probs):
        h = p * 1e-30
        shifted = list(probs)
        shifted[k] += h * 1j
        steps.append([v.imag / h for v in _solve(*shifted)])
    grads = list(zip(*steps))
    s1, s2, c = probs
    # multinomial covariance of the per-pulse click indicators: a
    # coincidence pulse is a click pulse in both arms
    cov_rates = (
        (s1 * (1.0 - s1), c - s1 * s2, c * (1.0 - s1)),
        (c - s1 * s2, s2 * (1.0 - s2), c * (1.0 - s2)),
        (c * (1.0 - s1), c * (1.0 - s2), c * (1.0 - c)),
    )
    pulses = f * integration_time

    def sigma(g):
        var = sum(g[i] * cov_rates[i][j] * g[j] for i in range(3) for j in range(3))
        return math.sqrt(max(var / pulses, 0.0))

    sig_eta1, sig_eta2, sig_x = map(sigma, grads)
    return sig_x / power_mw, sig_eta1, sig_eta2


def row_from_inversion(
    record: CountRecord, inv: InversionResult, f: float
) -> TableOneRow:
    law = SourceLaw.geometric(inv.x)
    return TableOneRow(
        power_mw=record.power_mw,
        sc1=record.sc1,
        sc2=record.sc2,
        cc=record.cc,
        tau=inv.tau,
        eta1=inv.eta1,
        eta2=inv.eta2,
        pair_rate=f * law.mean,
        one_pair_rate=f * (1.0 - inv.x) * inv.x,
        mean_pairs=law.mean,
        x=inv.x,
        residual=inv.residual,
        iterations=inv.iterations,
        cc12=record.cc12,
        cc13=record.cc13,
        cc123=record.cc123,
    )


def build_table(
    records: list[CountRecord], f: float
) -> list[TableOneRow | FailedRow]:
    """Invert every sweep row, collecting failures instead of aborting.

    A bad repetition rate would fail every row, so it raises instead.
    """
    validate_positive(f, "repetition rate")
    out: list[TableOneRow | FailedRow] = []
    for rec in records:
        try:
            inv = invert_counts(f, rec.power_mw, rec.sc1, rec.sc2, rec.cc)
        except (ValueError, InversionError) as exc:
            out.append(FailedRow(record=rec, error=str(exc)))
            continue
        out.append(row_from_inversion(rec, inv, f))
    return out
