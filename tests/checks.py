"""Shared test helpers: comparisons against printed references and exact
rationals, the float uniforms the Monte Carlo kernel's word identities
reproduce, pair numbers drawn by the kernel, a sweep CSV writer for round
trips through ``read_sweep``, a reader of the bundled reference CSVs, and
the attenuated-laser efficiency calibration, which no package code calls."""

from __future__ import annotations

import csv
import math
from fractions import Fraction

import numpy as np

from spdc_stats.montecarlo import _geometric_draw
from spdc_stats.sweepio import SWEEP_COLUMNS, SWEEP_OPTIONAL, _fmt, bundled_path

# exact SI values (2019 redefinition)
_PLANCK = 6.62607015e-34  # J s
_SPEED_OF_LIGHT = 299792458.0  # m/s


def half_ulp(literal: str) -> float:
    """Half of the last printed decimal place of a numeric literal.

    A reference table printed as "0.215" or "1.04e6" carries rounding of
    up to half its last digit; comparisons against such values widen the
    band by this amount.
    """
    text = literal.strip().lower().lstrip("+-")
    if "e" in text:
        mantissa, exponent = text.split("e")
        exp = int(exponent)
    else:
        mantissa, exp = text, 0
    decimals = len(mantissa.split(".")[1]) if "." in mantissa else 0
    return 0.5 * 10.0 ** (exp - decimals)


def within_printed(computed: float, literal: str, rel: float) -> bool:
    """True when computed matches the printed literal within max(rel
    relative, half a printed ulp)."""
    ref = float(literal)
    tol = max(rel * abs(ref), half_ulp(literal))
    return abs(computed - ref) <= tol


def printed_deviation(computed: float, literal: str) -> float:
    """Signed relative deviation of computed from the printed literal."""
    ref = float(literal)
    return (computed - ref) / ref


def rational_rel_error(got: float, ref: Fraction) -> float:
    """|got / ref - 1| in exact arithmetic; 0 when both are 0."""
    if ref == 0:
        return 0.0 if got == 0.0 else math.inf
    return abs(float(Fraction(got) / ref - 1))


def g2_cells(clicks1: int, pair12: int, pair13: int, triple123: int) -> tuple:
    """The exclusive click-set counts (triple, pair without the triple,
    herald alone) that ``detector_model.g2_stderr`` reads, formed from integer
    tallies, so exactly."""
    return (triple123, pair12 + pair13 - 2 * triple123,
            clicks1 - pair12 - pair13 + triple123)


def _uniforms(words: np.ndarray) -> np.ndarray:
    """Map raw 64-bit words to floats in (0, 1]: ((w >> 11) + 1) / 2**53.

    This is the float reference the kernel's draws and click tests were
    defined on; the kernel itself reads the words through identities that
    are exact for every word.
    """
    return (np.right_shift(words, np.uint64(11)).astype(np.float64) + 1.0) / 2.0**53


def geometric_counts(x: float, seed: int, size: int) -> np.ndarray:
    """How often each pair number n = 0, 1, ... occurs in ``size`` draws
    from Pr(n) = (1 - x) x**n.

    The draws are the kernel's ``_geometric_draw`` on the words of
    Philox(seed), taken a million at a time; that draw returns n + 1, the
    pair number of a pulse known to emit.
    """
    draw, _ = _geometric_draw(x)
    bit_generator = np.random.Philox(seed)
    block = 1 << 20
    a = np.empty(block, dtype=np.uint64)
    n = np.empty(block, dtype=np.int64)
    mask = np.empty(block, dtype=bool)
    counts = np.zeros(1, dtype=np.int64)
    for start in range(0, size, block):
        m = min(block, size - start)
        draw(bit_generator.random_raw(m), a[:m], n[:m], mask[:m])
        c = np.bincount(n[:m] - 1)
        if c.size > counts.size:
            counts = np.pad(counts, (0, c.size - counts.size))
        counts[: c.size] += c
    return counts


def write_sweep(records, path) -> None:
    """Write CountRecords as a sweep CSV, with the split columns when any
    record has them."""
    has_optional = any(r.cc12 is not None for r in records)
    cols = SWEEP_COLUMNS + (SWEEP_OPTIONAL if has_optional else ())
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(cols)
        for r in records:
            row = [_fmt(r.power_mw), _fmt(r.sc1), _fmt(r.sc2), _fmt(r.cc)]
            if has_optional:
                row += [_fmt(r.cc12), _fmt(r.cc13), _fmt(r.cc123)]
            writer.writerow(row)


def load_bundled_csv(name: str) -> list[dict[str, str]]:
    """Bundled CSV as a list of raw string dicts (values as printed)."""
    with bundled_path(name).open(newline="") as fh:
        return list(csv.DictReader(fh))


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
