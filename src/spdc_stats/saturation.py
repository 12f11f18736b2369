"""Thermal-vs-coherent detector saturation curve families.

At equal mean incident photon number, a thermal (geometric) source drives
a bucket detector into saturation sooner than a coherent (Poisson) source:
in the click picture the detected fractions are eta*mean/(1 + eta*mean)
and 1 - exp(-eta*mean), and exp(-z) < 1/(1 + z) for every z > 0, so the
coherent curve dominates pointwise.

The click-variant gap depends on the product z = eta * mean alone and has
a single interior maximum at z* where (1 + z)^2 = exp(z), z* ~ 2.513.
Below z* the gap grows with eta at fixed mean; past it the detector is
deep in saturation for both sources and the gap shrinks again.

Every curve point and gap is read from ``photon_statistics.click_moment``
E[n**k 1{click}]: k = 0 for the click variant, k = 1 for the literal one.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import NamedTuple

from .detector_model import validate_efficiency
from .photon_statistics import SourceLaw, click_moment

# z where (1 + z)^2 = exp(z): the click-variant gap peaks here.
GAP_PEAK_Z = 2.5128624172523393


# The default logarithmic mean-photon-number grid, 1e-2 to 1e2, 60 points.
# The exponents are built as numpy's linspace builds them, k * (4/59) - 2
# with the last one exactly 2.
MEAN_GRID = tuple(
    10.0 ** y for y in [k * (4.0 / 59) - 2.0 for k in range(59)] + [2.0])


class SaturationCurve(NamedTuple):
    """Detected signal versus mean incident photon number for one source."""

    source_kind: str
    eta: float
    variant: str
    means: tuple[float, ...]
    detected: tuple[float, ...]

    @property
    def points(self) -> list[tuple[float, float]]:
        return list(zip(self.means, self.detected))


def curve(
    source_kind: str,
    eta: float,
    variant: str = "click",
    mean_grid: Sequence[float] | None = None,
) -> SaturationCurve:
    """Evaluate the detected-vs-incident curve on a mean grid: the click
    probability E[1{click}] ("click") or E[n 1{click}] ("literal")."""
    eta = validate_efficiency(eta)
    if variant not in ("click", "literal"):
        raise ValueError(f"unknown variant {variant!r}")
    means = MEAN_GRID if mean_grid is None else tuple(float(m) for m in mean_grid)
    if not means:
        raise ValueError("mean_grid must be non-empty")
    k = 0 if variant == "click" else 1
    detected = tuple(
        click_moment(SourceLaw.of_mean(source_kind, m), eta, k) for m in means
    )
    return SaturationCurve(
        source_kind=source_kind,
        eta=eta,
        variant=variant,
        means=means,
        detected=detected,
    )


def saturation_gap(
    eta: float,
    variant: str = "click",
    mean_grid: Sequence[float] | None = None,
) -> list[tuple[float, float]]:
    """Coherent-minus-thermal detected signal at each grid mean.

    Non-negative everywhere for the click variant; the literal variant
    changes sign around eta*mean ~ 2.5 and is provided for completeness.
    """
    coherent = curve("coherent", eta, variant, mean_grid)
    thermal = curve("thermal", eta, variant, mean_grid)
    return [
        (m, c - t)
        for m, c, t in zip(coherent.means, coherent.detected, thermal.detected)
    ]


def click_gap(z: float) -> float:
    """Click-variant gap as a function of z = eta * mean alone, for z
    finite and >= 0."""
    return (click_moment(SourceLaw.of_mean("coherent", z), 1.0, 0)
            - click_moment(SourceLaw.of_mean("thermal", z), 1.0, 0))
