"""Seeded count-rate rows for the fit_rows workload, with their ground truth.

Each row is what a two-detector experiment would report: pump power and
the rates sc1, sc2, cc in counts/s at repetition rate F.  The truth
(x, eta1, eta2) stays on the benchmark side; the package only sees the
rates.  Forward rates come from the benchmark's own closed forms, not
from the package, so the exact rows are an independent oracle.

Three kinds, in fixed shares so every seed has the same mix:

- exact: the forward rates of (x, eta1, eta2);
- noisy: Poisson counting noise over a short integration time;
- infeasible: cc below the accidental floor sc1 * sc2 / F, which no
  (x, eta1, eta2) can produce.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

F = 76e6
SHARES = {"exact": 0.5, "noisy": 0.3, "infeasible": 0.2}
X_RANGE = (1e-4, 0.9)
ETA_RANGE = (0.01, 0.99)
POWER_RANGE_MW = (1.0, 400.0)
INTEGRATION_RANGE_S = (1e-3, 1.0)
INFEASIBLE_FACTOR = (0.2, 0.95)
EXACT_TOL = 1e-6
RESIDUAL_TOL = 1e-6


@dataclass(frozen=True)
class Row:
    kind: str
    power_mw: float
    sc1: float
    sc2: float
    cc: float
    x: float
    eta1: float
    eta2: float


def forward_rates(x: float, eta1: float, eta2: float) -> tuple[float, float, float]:
    """(sc1, sc2, cc) in counts/s, in positive-term form so that small
    eta * x keeps full precision."""
    z1, z2 = 1.0 - eta1, 1.0 - eta2
    a, b, c = 1.0 - z1 * x, 1.0 - z2 * x, 1.0 - z1 * z2 * x
    sc1 = F * eta1 * x / a
    sc2 = F * eta2 * x / b
    cc = F * x * eta1 * eta2 * (z1 * x / (a * c) + z2 * x / (b * c) + 1.0 / c)
    return sc1, sc2, cc


def kind_counts(n: int) -> dict[str, int]:
    counts = {k: int(round(share * n)) for k, share in SHARES.items()}
    counts["exact"] += n - sum(counts.values())
    return counts


def make_rows(seed: int, n: int) -> list[Row]:
    """n rows in shuffled order; the same seed always gives the same rows."""
    rng = np.random.default_rng(seed)
    kinds = [k for k, m in kind_counts(n).items() for _ in range(m)]
    kinds = [kinds[i] for i in rng.permutation(n)]
    log_x = rng.uniform(math.log(X_RANGE[0]), math.log(X_RANGE[1]), n)
    etas = rng.uniform(*ETA_RANGE, (n, 2))
    powers = rng.uniform(*POWER_RANGE_MW, n)
    log_t = rng.uniform(*np.log(INTEGRATION_RANGE_S), n)
    factors = rng.uniform(*INFEASIBLE_FACTOR, n)
    rows = []
    for i, kind in enumerate(kinds):
        x = math.exp(log_x[i])
        eta1, eta2 = float(etas[i, 0]), float(etas[i, 1])
        sc1, sc2, cc = forward_rates(x, eta1, eta2)
        if kind == "noisy":
            t = math.exp(log_t[i])
            sc1, sc2, cc = (float(k) / t for k in rng.poisson((sc1 * t, sc2 * t, cc * t)))
        elif kind == "infeasible":
            cc = sc1 * sc2 / F * float(factors[i])
        rows.append(Row(kind, float(powers[i]), sc1, sc2, cc, x, eta1, eta2))
    return rows


def check(row: Row, result, forward, error: BaseException | None,
          reject_types: tuple) -> str | None:
    """None when the package's answer for this row is right, else why not.

    result is the InversionResult, forward the two_arm_rates prediction at
    the recovered parameters, error the exception raised instead.
    """
    if error is not None:
        if row.kind == "exact":
            return f"exact row rejected: {type(error).__name__}: {error}"
        if not isinstance(error, reject_types):
            return f"untyped rejection {type(error).__name__}: {error}"
        return None
    if row.kind == "infeasible":
        return "infeasible row accepted"
    residual = max(
        abs(forward.sc1 / row.sc1 - 1.0),
        abs(forward.sc2 / row.sc2 - 1.0),
        abs(forward.cc / row.cc - 1.0),
    )
    if not residual <= RESIDUAL_TOL:
        return f"{row.kind} row: forward residual {residual:.3e}"
    if row.kind == "exact":
        err = max(
            abs(result.x / row.x - 1.0),
            abs(result.eta1 / row.eta1 - 1.0),
            abs(result.eta2 / row.eta2 - 1.0),
        )
        if not err <= EXACT_TOL:
            return f"exact row: parameter error {err:.3e}"
    return None
