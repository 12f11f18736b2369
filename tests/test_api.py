"""The public API and the names the benchmark harness reads from it.

``bench/run.py`` imports the package from this checkout and reads some
names defensively: when one goes missing, its metric turns null instead of
the run failing.  These tests fail first.
"""

import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import spdc_stats
from checks import write_sweep

BENCH = Path(__file__).resolve().parent.parent / "bench"
F = 76e6

# Run in a fresh interpreter: import the package, run one subcommand (or
# none), then report what is loaded and which public names fail to resolve.
# argv[1] is the JSON list of extra names, parsed only after the run so that
# the script's own json import does not hide the run's; the run's
# arguments follow it.
FRESH_PROCESS = """
import contextlib, io, sys
argv = sys.argv[2:]
import spdc_stats
code = None
if argv:
    from spdc_stats import cli
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
loaded = sorted(m for m in sys.modules if m.split(".")[0] == "spdc_stats")
numpy = "numpy" in sys.modules
# neither is needed: the records are named tuples, the workers plain threads
dataclasses = "dataclasses" in sys.modules
futures = "concurrent.futures" in sys.modules
has_json = "json" in sys.modules  # before this script imports it
import json
extra_names = json.loads(sys.argv[1])
unresolved = []
for dotted in spdc_stats.__all__ + extra_names:
    obj = spdc_stats
    try:
        for part in dotted.split("."):
            obj = getattr(obj, part)
    except AttributeError:
        unresolved.append(dotted)
print(json.dumps({"code": code, "loaded": loaded, "numpy": numpy,
                  "dataclasses": dataclasses, "futures": futures,
                  "json": has_json, "unresolved": unresolved}))
"""

# What each fresh run loads: a subcommand loads only the modules it runs.
PATH_MODULES = {"cli", "detector_model", "errors", "photon_statistics"}
LOADED = {
    "import": set(),
    "invert": PATH_MODULES | {"inversion", "sweepio"},
    "correlations": PATH_MODULES | {"correlation", "inversion", "sweepio"},
    "saturation": PATH_MODULES | {"saturation", "sweepio"},
    "simulate": PATH_MODULES | {"expectations", "montecarlo"},
}


def bench_names() -> set[str]:
    """Dotted package names read by the benchmark scripts: ``pkg.NAME``,
    ``getattr(pkg, "NAME", ...)`` and ``from spdc_stats import NAME``."""
    names = set()
    for path in sorted(BENCH.glob("*.py")):
        text = path.read_text()
        names.update(re.findall(r"\bpkg\.([A-Za-z_][\w.]*)", text))
        names.update(re.findall(r"getattr\(pkg,\s*\"(\w+)\"", text))
        for group in re.findall(
            r"from spdc_stats import (?:\(([^)]*)\)|([\w, ]+)$)", text, re.M
        ):
            names.update(n.strip() for n in ",".join(group).split(",") if n.strip())
    return names


def test_all_names_resolve():
    for name in spdc_stats.__all__:
        assert hasattr(spdc_stats, name), name


def test_all_sorted_without_duplicates():
    names = spdc_stats.__all__
    assert names == sorted(names)
    assert len(set(names)) == len(names)


def test_names_the_benchmark_reads_exist():
    names = bench_names()
    if not names:
        pytest.skip("benchmark scripts not in this tree")
    for dotted in names:
        obj = spdc_stats
        for part in dotted.split("."):
            assert hasattr(obj, part), dotted
            obj = getattr(obj, part)


def test_benchmark_metric_sources():
    # photon_statistics.series_terms sums truncation_order over rows,
    # inversion.rejected_nonconvergent counts InversionError, and
    # inversion.mean_iterations averages the iterations field
    assert type(spdc_stats.truncation_order(0.392)) is int
    assert isinstance(spdc_stats.InversionError, type)
    assert issubclass(spdc_stats.InversionError, Exception)
    result = spdc_stats.invert_counts(F, 10, 223e3, 205e3, 45e3)
    assert type(result.iterations) is int


# every public entry point that takes a repetition rate, a counting time or
# a pulse count, with valid values for all its other arguments
POSITIVE_FINITE = {
    "two_arm_rates": lambda v: spdc_stats.two_arm_rates(v, 0.1, 0.2, 0.3),
    "split_coincidences": lambda v: spdc_stats.split_coincidences(
        v, 0.1, 0.2, 0.3, 0.4),
    "build_table": lambda v: spdc_stats.build_table([], v),
    "invert_counts.f": lambda v: spdc_stats.invert_counts(
        v, 10, 223e3, 205e3, 45e3),
    "invert_counts.integration_time": lambda v: spdc_stats.invert_counts(
        F, 10, 223e3, 205e3, 45e3, with_sigma=True, integration_time=v),
    "g2_stderr.pulses": lambda v: spdc_stats.detector_model.g2_stderr(
        0.001, 0.018, 0.081, v),
}


# a bool is no rate, time or count, though True > 0
@pytest.mark.parametrize("bad", [math.nan, math.inf, 0.0, -1.0, True, False])
@pytest.mark.parametrize("entry", sorted(POSITIVE_FINITE))
def test_rates_and_times_must_be_positive_and_finite(entry, bad):
    with pytest.raises(ValueError, match="must be positive and finite") as info:
        POSITIVE_FINITE[entry](bad)
    assert type(info.value) is ValueError


def test_lookups_are_cached_in_the_package():
    value = spdc_stats.simulate
    assert vars(spdc_stats)["simulate"] is value
    assert spdc_stats.sweepio is sys.modules["spdc_stats.sweepio"]


def test_unknown_names_raise_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        spdc_stats.no_such_name
    assert "RatePrediction" not in spdc_stats.__all__


# each validating record: valid keyword arguments, one field set invalid,
# and the error its checks raise
VALID_RECORD = {
    "DetectorChain": dict(eta1=0.2, eta2=0.3, eta3=0.4),
    "CountRecord": dict(power_mw=10.0, sc1=2e5, sc2=2e5, cc=4e4),
    "TableOneRow": dict(power_mw=10.0, sc1=2e5, sc2=2e5, cc=4e4, tau=1e-3,
                        eta1=0.2, eta2=0.2, pair_rate=1e6, one_pair_rate=1e6,
                        mean_pairs=0.01, x=0.01, residual=0.0, iterations=0),
    "SimConfig": dict(mode="two_arm", pulses=1000, seed=1, x=0.1,
                      chain=spdc_stats.DetectorChain(eta1=0.2, eta2=0.2)),
}
INVALID_FIELD = [
    ("DetectorChain", "eta1", -0.5, "eta1 must lie in [0, 1], got -0.5"),
    ("DetectorChain", "eta3", math.nan, "eta3 must lie in [0, 1], got nan"),
    ("DetectorChain", "eta2", True, "eta2 must lie in [0, 1], got True"),
    ("CountRecord", "power_mw", 0.0, "power must be positive, got 0.0"),
    ("CountRecord", "sc2", math.inf, "sc2 must be finite, got inf"),
    ("CountRecord", "cc12", 1.0,
     "cc12, cc13, cc123 must be all present or all absent"),
    ("TableOneRow", "x", 1.0, "emission parameter x must lie in [0, 1), got 1.0"),
    ("TableOneRow", "eta2", 1.5, "eta2 must lie in [0, 1], got 1.5"),
    ("TableOneRow", "eta1", False, "eta1 must lie in [0, 1], got False"),
    ("SimConfig", "mode", "split", "unknown mode 'split'"),
    ("SimConfig", "pulses", 0, "pulses must be a positive integer, got 0"),
    ("SimConfig", "mean", 5.0, "mode two_arm does not use mean"),
]


@pytest.mark.parametrize("how", ["positional", "keyword", "_make", "_replace"])
@pytest.mark.parametrize("record, field, value, message", INVALID_FIELD,
                         ids=[f"{r}.{f}" for r, f, *_ in INVALID_FIELD])
def test_records_cannot_be_built_invalid(record, field, value, message, how):
    cls = getattr(spdc_stats, record)
    valid = cls(**VALID_RECORD[record])
    values = valid._asdict()
    values[field] = value
    build = {
        "positional": lambda: cls(*values.values()),
        "keyword": lambda: cls(**values),
        "_make": lambda: cls._make(values.values()),
        "_replace": lambda: valid._replace(**{field: value}),
    }[how]
    with pytest.raises(ValueError) as info:
        build()
    assert type(info.value) is ValueError
    assert str(info.value) == message


def test_detector_chain_stores_floats_on_replace():
    chain = spdc_stats.DetectorChain(eta1=1)._replace(eta2=0)
    assert chain == (1.0, 0.0, None)
    assert [type(eta) for eta in chain[:2]] == [float, float]


@pytest.fixture(scope="module")
def cli_inputs(tmp_path_factory, bundled_records, inverted_rows):
    d = tmp_path_factory.mktemp("fresh")
    write_sweep(bundled_records, d / "sweep.csv")
    spdc_stats.write_table1_json(inverted_rows, F, d / "table1.json")
    return d


@pytest.mark.parametrize("command", sorted(LOADED))
def test_fresh_process_loads_only_its_path(command, cli_inputs, tmp_path):
    argv = {
        "import": [],
        "invert": ["invert", str(cli_inputs / "sweep.csv"),
                   "--out", str(tmp_path)],
        "correlations": ["correlations", str(cli_inputs / "table1.json"),
                         "--out", str(tmp_path / "table2.csv")],
        "saturation": ["saturation", "--out", str(tmp_path / "curves.csv")],
        "simulate": ["simulate", "--mode", "two_arm", "--x", "0.1",
                     "--eta1", "0.2", "--eta2", "0.2", "--pulses", "10000",
                     "--out", str(tmp_path / "sim.json")],
    }[command]
    extra = ["sweepio.write_curves_csv"] + sorted(bench_names())
    src = Path(spdc_stats.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-c", FRESH_PROCESS, json.dumps(extra), *argv],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=str(src)),
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert result["code"] == (0 if argv else None)
    assert result["loaded"] == sorted(
        {"spdc_stats"} | {f"spdc_stats.{m}" for m in LOADED[command]}
    )
    assert result["numpy"] is (command == "simulate")
    assert result["dataclasses"] is False
    assert result["futures"] is False
    # only the commands that read or write JSON load it
    assert result["json"] is (command in {"invert", "correlations", "simulate"})
    assert result["unresolved"] == []


def test_judge_loads_without_numpy():
    # the Monte Carlo's judge reads a config by duck typing, so it loads
    # neither the sampler nor numpy
    code = ("import json, sys, spdc_stats.expectations; print(json.dumps("
            "['numpy' in sys.modules, 'spdc_stats.montecarlo' in sys.modules]))")
    src = Path(spdc_stats.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=str(src)),
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [False, False]
