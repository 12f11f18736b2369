"""Pulsed photon-pair statistics through bucket detectors.

Core model: a pulsed pair source emits n pairs per pulse with geometric
probability (1 - x) x**n; non-photon-number-resolving detectors of
efficiency eta click with probability 1 - (1 - eta)**n.  The package
inverts measured count rates into (tau, eta1, eta2), evaluates the g2/g3
correlation-function family, models thermal-vs-coherent detector
saturation, and validates everything against a deterministic Monte Carlo
pulse simulator.

``import spdc_stats`` loads no submodule.  Each public name, and each
submodule, loads its module on first access (PEP 562), so a caller pays
only for the modules it uses; only the Monte Carlo imports numpy.
"""

from importlib import import_module

__version__ = "0.1.0"

# Every submodule and the public names it owns.
_PUBLIC = {
    "cli": (),
    "correlation": (
        "CorrelationReport", "build_table_two", "g2_heralded_predicted",
        "ideal_g", "report_for_row",
    ),
    "detector_model": (
        "DetectorChain", "g2_from_counts", "split_coincidences",
        "two_arm_rates",
    ),
    "errors": (
        "DataInconsistencyError", "DivergenceError", "InversionError",
        "ResourceLimitError", "SweepFormatError",
    ),
    "inversion": (
        "CountRecord", "FailedRow", "InversionResult", "TableOneRow",
        "build_table", "invert_counts",
    ),
    "expectations": ("analytic_expectations", "compare_with_analytic"),
    "montecarlo": ("SimConfig", "SimCounts", "simulate"),
    "photon_statistics": (
        "SourceLaw", "truncation_order",
    ),
    "saturation": (
        "GAP_PEAK_Z", "SaturationCurve", "click_gap", "curve",
        "default_mean_grid", "saturation_gap",
    ),
    "sweepio": (
        "bundled_path", "load_bundled_sweep", "read_sweep",
        "read_table1_json", "write_table1_csv", "write_table1_json",
        "write_table2_csv",
    ),
}
_OWNER = {name: module for module, names in _PUBLIC.items() for name in names}

__all__ = sorted(_OWNER)


def __getattr__(name):
    if name in _OWNER:
        value = getattr(import_module(f".{_OWNER[name]}", __name__), name)
    elif name in _PUBLIC:
        value = import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # later lookups find the value here and skip this function
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_OWNER) | set(_PUBLIC))
