"""Exception types shared across the package.

Plain ``ValueError`` is raised for ordinary argument-domain violations
(probabilities outside [0, 1), negative rates, and so on).  The types here
mark conditions a caller may want to handle specially: quantities whose
defining ratio diverges, measured tables that no parameter set can
reproduce, inversions whose forward residual fails its gate, and
computations that would exceed hard resource caps.
"""


class DivergenceError(ValueError):
    """A correlation function is evaluated where its denominator vanishes."""


class DataInconsistencyError(ValueError):
    """Measured count rates violate a structural constraint.

    Example: a coincidence rate exceeding one of its singles rates, which
    no (tau, eta1, eta2) triple can produce.
    """


class InversionError(RuntimeError):
    """The count-rate inversion's forward residual exceeds its gate.

    The inversion is explicit, so this marks rounding gone wrong, not a
    solver that stopped early: the forward rates at the solution miss the
    measured ones by more than ``inversion.RESIDUAL_MAX`` (relative).

    Attributes
    ----------
    residual : float
        The largest relative miss of the three forward rates.
    """

    def __init__(self, message: str, residual: float = float("nan")):
        super().__init__(message)
        self.residual = residual


class ResourceLimitError(RuntimeError):
    """A computation would exceed a hard size or iteration cap."""


class SweepFormatError(ValueError):
    """A sweep CSV file is malformed.

    Carries the 1-based line number of the offending row when known.
    """

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line
