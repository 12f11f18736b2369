"""Pulsed photon-pair statistics through bucket detectors.

Core model: a pulsed pair source emits n pairs per pulse with geometric
probability (1 - x) x**n; non-photon-number-resolving detectors of
efficiency eta click with probability 1 - (1 - eta)**n.  The package
inverts measured count rates into (tau, eta1, eta2), evaluates the g2/g3
correlation-function family, models thermal-vs-coherent detector
saturation, and validates everything against a deterministic Monte Carlo
pulse simulator.  Only the Monte Carlo imports numpy; its names load it on
first use.
"""

from .correlation import (
    CorrelationReport,
    build_table_two,
    g2_from_counts,
    g2_heralded_ideal,
    g2_heralded_predicted,
    g2_signal_idler,
    g2_unheralded,
    g3_signal_idler,
    g3_unheralded,
    report_for_row,
)
from .detector_model import (
    DetectorChain,
    RatePrediction,
    click_probability,
    coincidence_rate,
    detected_vs_incident,
    singles_rate,
    split_coincidences,
    two_arm_rates,
)
from .errors import (
    DataInconsistencyError,
    DivergenceError,
    InversionError,
    ResourceLimitError,
    SweepFormatError,
)
from .inversion import (
    CountRecord,
    FailedRow,
    InversionResult,
    TableOneRow,
    build_table,
    invert_counts,
    naive_pair_rate,
    sde_from_attenuated_laser,
)
from .photon_statistics import (
    mean_pairs_per_pulse,
    one_pair_rate,
    pair_rate,
    truncation_order,
)
from .saturation import (
    GAP_PEAK_Z,
    SaturationCurve,
    click_gap,
    curve,
    default_mean_grid,
    saturation_gap,
)
from .sweepio import (
    bundled_path,
    load_bundled_csv,
    load_bundled_sweep,
    read_sweep,
    read_table1_json,
    write_sweep,
    write_table1_csv,
    write_table1_json,
    write_table2_csv,
)

__version__ = "0.1.0"

# The Monte Carlo is the one module that needs numpy, which takes longer to
# import than the rest of the package; it loads on first use of these names.
_MONTECARLO_NAMES = frozenset({
    "SimConfig",
    "SimCounts",
    "analytic_expectations",
    "compare_with_analytic",
    "g2_with_stderr",
    "resolve_threads",
    "simulate",
})


def __getattr__(name):
    if name in _MONTECARLO_NAMES:
        from . import montecarlo

        return getattr(montecarlo, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | _MONTECARLO_NAMES)

__all__ = [
    "CorrelationReport",
    "CountRecord",
    "DataInconsistencyError",
    "DetectorChain",
    "DivergenceError",
    "FailedRow",
    "GAP_PEAK_Z",
    "InversionError",
    "InversionResult",
    "RatePrediction",
    "ResourceLimitError",
    "SaturationCurve",
    "SimConfig",
    "SimCounts",
    "SweepFormatError",
    "TableOneRow",
    "analytic_expectations",
    "build_table",
    "build_table_two",
    "bundled_path",
    "click_gap",
    "click_probability",
    "coincidence_rate",
    "compare_with_analytic",
    "curve",
    "default_mean_grid",
    "detected_vs_incident",
    "g2_from_counts",
    "g2_heralded_ideal",
    "g2_heralded_predicted",
    "g2_signal_idler",
    "g2_unheralded",
    "g2_with_stderr",
    "g3_signal_idler",
    "g3_unheralded",
    "invert_counts",
    "load_bundled_csv",
    "load_bundled_sweep",
    "mean_pairs_per_pulse",
    "naive_pair_rate",
    "one_pair_rate",
    "pair_rate",
    "read_sweep",
    "read_table1_json",
    "report_for_row",
    "resolve_threads",
    "saturation_gap",
    "sde_from_attenuated_laser",
    "simulate",
    "singles_rate",
    "split_coincidences",
    "truncation_order",
    "two_arm_rates",
    "write_sweep",
    "write_table1_csv",
    "write_table1_json",
    "write_table2_csv",
]
