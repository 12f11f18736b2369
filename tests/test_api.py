"""The public API and the names the benchmark harness reads from it.

``bench/run.py`` imports the package from this checkout and reads some
names defensively: when one goes missing, its metric turns null instead of
the run failing.  These tests fail first.
"""

import re
from pathlib import Path

import pytest

import spdc_stats

BENCH = Path(__file__).resolve().parent.parent / "bench"
F = 76e6


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
