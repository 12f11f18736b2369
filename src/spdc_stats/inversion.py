"""Recover source and detector parameters from measured count rates.

Measured singles rates SC1, SC2 and the coincidence rate CC of a
two-detector pair experiment overdetermine nothing: they are exactly three
equations in the three unknowns (x, eta1, eta2), where x = p * tau is the
per-pulse emission parameter at pump power p.  This module solves that
system, derives the generation-rate columns that follow from x, and
calibrates detector efficiency from an attenuated-laser measurement.

The production solver is a damped Newton iteration in logit coordinates
(logit eta1, logit eta2, logit x), which keeps every iterate inside the
physical box (0,1)^3.  If Newton stalls, a bisection of the equivalent
one-dimensional problem in x (eta1 and eta2 eliminated through the singles
equations) provides a guaranteed-bracketed fallback.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DataInconsistencyError, InversionError
from .photon_statistics import mean_pairs_per_pulse, one_pair_rate, pair_rate

# exact SI values (2019 redefinition)
_PLANCK = 6.62607015e-34  # J s
_SPEED_OF_LIGHT = 299792458.0  # m/s

TOL_INV_DEFAULT = 1e-9
MAX_ITER_DEFAULT = 200

_LOGIT_CLAMP = 34.0


@dataclass(frozen=True)
class CountRecord:
    """One measured sweep row: pump power and count rates in counts/s.

    cc12, cc13, cc123 are the split-configuration coincidences; they are
    optional and must be given together or not at all.
    """

    power_mw: float
    sc1: float
    sc2: float
    cc: float
    cc12: float | None = None
    cc13: float | None = None
    cc123: float | None = None

    def __post_init__(self):
        for name in ("power_mw", "sc1", "sc2", "cc", "cc12", "cc13", "cc123"):
            value = getattr(self, name)
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
            raise ValueError("cc12, cc13, cc123 must be given together")
        if all(present) and any(v < 0 for v in split):
            raise ValueError("split coincidence rates must be non-negative")

    @property
    def has_split_counts(self) -> bool:
        return self.cc12 is not None


@dataclass(frozen=True)
class InversionResult:
    """Solution of the three-rate system with convergence diagnostics."""

    tau: float
    eta1: float
    eta2: float
    x: float
    residual: float
    iterations: int
    solver: str
    tau_sigma: float | None = None
    eta1_sigma: float | None = None
    eta2_sigma: float | None = None


@dataclass(frozen=True)
class TableOneRow:
    """Measured rates plus everything the inversion derives from them."""

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


@dataclass(frozen=True)
class FailedRow:
    """A sweep row whose inversion raised; the sweep continues without it."""

    record: CountRecord
    error: str


def _model_rates(x: float, eta1: float, eta2: float) -> tuple[float, float, float]:
    """Per-pulse click probabilities (sc1/f, sc2/f, cc/f)."""
    z1, z2 = 1.0 - eta1, 1.0 - eta2
    r1 = (1.0 - x) / (1.0 - z1 * x)
    r2 = (1.0 - x) / (1.0 - z2 * x)
    r12 = (1.0 - x) / (1.0 - z1 * z2 * x)
    return 1.0 - r1, 1.0 - r2, 1.0 - r1 - r2 + r12


def _jacobian(x: float, eta1: float, eta2: float) -> np.ndarray:
    """d(model rates)/d(eta1, eta2, x), rows in (m1, m2, mc) order."""
    z1, z2 = 1.0 - eta1, 1.0 - eta2
    d1 = 1.0 - z1 * x
    d2 = 1.0 - z2 * x
    d12 = 1.0 - z1 * z2 * x
    gx = (1.0 - x) * x
    j = np.zeros((3, 3))
    j[0, 0] = gx / d1**2
    j[0, 2] = eta1 / d1**2
    j[1, 1] = gx / d2**2
    j[1, 2] = eta2 / d2**2
    j[2, 0] = gx / d1**2 - gx * z2 / d12**2
    j[2, 1] = gx / d2**2 - gx * z1 / d12**2
    j[2, 2] = eta1 / d1**2 + eta2 / d2**2 - (1.0 - z1 * z2) / d12**2
    return j


def _logit(p: float) -> float:
    p = min(max(p, 1e-12), 1.0 - 1e-12)
    return math.log(p / (1.0 - p))


def _expit(u: float) -> float:
    u = min(max(u, -_LOGIT_CLAMP), _LOGIT_CLAMP)
    return 1.0 / (1.0 + math.exp(-u))


def _residual_vec(theta: np.ndarray, targets: tuple[float, float, float]) -> np.ndarray:
    eta1, eta2, x = (_expit(u) for u in theta)
    m = _model_rates(x, eta1, eta2)
    return np.array([m[i] / targets[i] - 1.0 for i in range(3)])


def _newton(targets, theta0, tol_inv, max_iter):
    theta = np.array(theta0, dtype=float)
    r = _residual_vec(theta, targets)
    res = float(np.max(np.abs(r)))
    for it in range(1, max_iter + 1):
        if res <= tol_inv:
            return theta, res, it - 1
        eta1, eta2, x = (_expit(u) for u in theta)
        j = _jacobian(x, eta1, eta2)
        # chain rule to logit coordinates and to relative residuals
        scale = np.array([eta1 * (1 - eta1), eta2 * (1 - eta2), x * (1 - x)])
        jl = (j * scale[None, :]) / np.array(targets)[:, None]
        try:
            step = np.linalg.solve(jl, -r)
        except np.linalg.LinAlgError:
            return theta, res, it - 1
        lam = 1.0
        for _ in range(25):
            trial = np.clip(theta + lam * step, -_LOGIT_CLAMP, _LOGIT_CLAMP)
            r_trial = _residual_vec(trial, targets)
            res_trial = float(np.max(np.abs(r_trial)))
            if res_trial < res * (1.0 - 1e-4 * lam) or res_trial <= tol_inv:
                theta, r, res = trial, r_trial, res_trial
                break
            lam *= 0.5
        else:
            return theta, res, it
    return theta, res, max_iter


def _bisect_x(s1: float, s2: float, c: float, iterations: int = 200):
    """Solve the 1-D reduction for x with the eta's eliminated.

    Substituting the singles equations into the coincidence equation gives
    h(x) = (1-x) / (1 - A(x) B(x) / x) - (1 - s1 - s2 + c) with
    A = (x - s1)/(1 - s1) = (1-eta1) x and B likewise for arm 2.  h is
    positive at x = max(s1, s2) and negative at x -> 1 for consistent
    data, so plain bisection cannot miss the root.
    """
    target = 1.0 - s1 - s2 + c

    def h(x):
        a = (x - s1) / (1.0 - s1)
        b = (x - s2) / (1.0 - s2)
        return (1.0 - x) / (1.0 - a * b / x) - target

    lo = max(s1, s2) * (1.0 + 1e-15)
    hi = 1.0 - 1e-15
    if h(lo) < 0 or h(hi) > 0:
        raise DataInconsistencyError(
            "count rates admit no solution with 0 < x < 1"
        )
    count = 0
    for _ in range(iterations):
        mid = 0.5 * (lo + hi)
        count += 1
        if h(mid) > 0:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-17 * hi:
            break
    x = 0.5 * (lo + hi)
    eta1 = 1.0 - (x - s1) / ((1.0 - s1) * x)
    eta2 = 1.0 - (x - s2) / ((1.0 - s2) * x)
    return x, eta1, eta2, count


def invert_counts(
    f: float,
    power_mw: float,
    sc1: float,
    sc2: float,
    cc: float,
    tol_inv: float = TOL_INV_DEFAULT,
    max_iter: int = MAX_ITER_DEFAULT,
    with_sigma: bool = False,
    integration_time: float = 1.0,
) -> InversionResult:
    """Solve (sc1, sc2, cc) for (tau, eta1, eta2) at pump power power_mw.

    Optionally propagates Poissonian counting noise (sqrt of the counts
    accumulated over ``integration_time`` seconds, the three rates treated
    as independent) through the linearized system into 1-sigma bands.
    """
    if f <= 0:
        raise ValueError(f"repetition rate must be positive, got {f!r}")
    if power_mw <= 0:
        raise ValueError(f"power must be positive, got {power_mw!r}")
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
    targets = (s1, s2, c)

    theta0 = (
        _logit(cc / sc2),
        _logit(cc / sc1),
        _logit(sc1 * sc2 / (cc * f)),
    )
    theta, res, iters = _newton(targets, theta0, tol_inv, max_iter)
    solver = "newton"
    if res > tol_inv:
        x, eta1, eta2, bis_iters = _bisect_x(s1, s2, c)
        theta = np.array([_logit(eta1), _logit(eta2), _logit(x)])
        res = float(np.max(np.abs(_residual_vec(theta, targets))))
        iters += bis_iters
        solver = "bisection"
        if res > tol_inv:
            raise InversionError(
                f"inversion did not converge: residual {res:.3e} "
                f"after {iters} iterations",
                residual=res,
            )
    eta1, eta2, x = (_expit(u) for u in theta)

    sigmas = (None, None, None)
    if with_sigma:
        sigmas = _propagate_sigma(
            f, power_mw, (sc1, sc2, cc), (eta1, eta2, x), integration_time
        )
    return InversionResult(
        tau=x / power_mw,
        eta1=eta1,
        eta2=eta2,
        x=x,
        residual=res,
        iterations=iters,
        solver=solver,
        tau_sigma=sigmas[0],
        eta1_sigma=sigmas[1],
        eta2_sigma=sigmas[2],
    )


def _propagate_sigma(f, power_mw, rates, params, integration_time):
    eta1, eta2, x = params
    if integration_time <= 0:
        raise ValueError("integration_time must be positive")
    j = _jacobian(x, eta1, eta2)  # d(per-pulse rates)/d(eta1, eta2, x)
    try:
        jinv = np.linalg.inv(j)
    except np.linalg.LinAlgError:
        return None, None, None
    # sigma of each per-pulse probability from Poisson counts over T
    sig_rates = np.array([math.sqrt(r / integration_time) / f for r in rates])
    cov = jinv @ np.diag(sig_rates**2) @ jinv.T
    sig = np.sqrt(np.clip(np.diag(cov), 0.0, None))
    return sig[2] / power_mw, sig[0], sig[1]


def naive_pair_rate(sc1: float, sc2: float, cc: float) -> float:
    """Loss-independent pair-rate estimate sc1 * sc2 / cc.

    Valid only in the low-gain limit; raises ZeroDivisionError when cc = 0.
    """
    return sc1 * float(sc2) / float(cc)


def sde_from_attenuated_laser(sc: float, power: float, wavelength: float) -> float:
    """System detection efficiency from an attenuated-laser calibration.

    The incident photon flux is power * wavelength / (h c), so
    SDE = sc * h * c / (power * wavelength).  SI units: power in W,
    wavelength in m, sc in counts/s.
    """
    if sc < 0:
        raise ValueError(f"count rate must be non-negative, got {sc!r}")
    if power <= 0 or wavelength <= 0:
        raise ValueError("power and wavelength must be positive")
    return sc * _PLANCK * _SPEED_OF_LIGHT / (power * wavelength)


def row_from_inversion(
    record: CountRecord, inv: InversionResult, f: float
) -> TableOneRow:
    return TableOneRow(
        power_mw=record.power_mw,
        sc1=record.sc1,
        sc2=record.sc2,
        cc=record.cc,
        tau=inv.tau,
        eta1=inv.eta1,
        eta2=inv.eta2,
        pair_rate=pair_rate(f, inv.x),
        one_pair_rate=one_pair_rate(f, inv.x),
        mean_pairs=mean_pairs_per_pulse(inv.x),
        x=inv.x,
        residual=inv.residual,
        iterations=inv.iterations,
        cc12=record.cc12,
        cc13=record.cc13,
        cc123=record.cc123,
    )


def build_table(
    records: list[CountRecord],
    f: float,
    tol_inv: float = TOL_INV_DEFAULT,
    max_iter: int = MAX_ITER_DEFAULT,
) -> list[TableOneRow | FailedRow]:
    """Invert every sweep row, collecting failures instead of aborting."""
    out: list[TableOneRow | FailedRow] = []
    for rec in records:
        try:
            inv = invert_counts(
                f, rec.power_mw, rec.sc1, rec.sc2, rec.cc,
                tol_inv=tol_inv, max_iter=max_iter,
            )
        except (ValueError, InversionError) as exc:
            out.append(FailedRow(record=rec, error=str(exc)))
            continue
        out.append(row_from_inversion(rec, inv, f))
    return out
