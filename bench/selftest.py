"""Self-tests of the benchmark itself (not part of the package's test suite).

    python3 -m pytest bench/selftest.py

The smoke runs use ``--smoke`` sizes and take about a minute in total.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import fitrows  # noqa: E402
from run import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
# per-layer metrics that read a field or function the roadmap plans to
# remove; they are reported as null once it is gone
MAY_BE_NULL = {
    "inversion.mean_iterations",
    "inversion.rejected_nonconvergent",
    "photon_statistics.series_terms",
}


def run_bench(workload: str, trace: int, cwd: Path = ROOT):
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def test_declared_workloads_exist():
    assert {w["name"] for w in SPEC["workloads"]} <= set(WORKLOADS)


def test_same_seed_gives_same_rows():
    assert fitrows.make_rows(7, 300) == fitrows.make_rows(7, 300)
    assert fitrows.make_rows(7, 300) != fitrows.make_rows(8, 300)


def test_row_mix_is_fixed_by_shares():
    rows = fitrows.make_rows(11, 1000)
    kinds = {k: sum(r.kind == k for r in rows) for k in fitrows.SHARES}
    assert kinds == fitrows.kind_counts(1000) == {
        "exact": 500, "noisy": 300, "infeasible": 200}


def test_oracle_agrees_with_package_forward_rates():
    from spdc_stats import two_arm_rates

    for row in fitrows.make_rows(5, 200):
        pred = two_arm_rates(fitrows.F, row.x, row.eta1, row.eta2)
        mine = fitrows.forward_rates(row.x, row.eta1, row.eta2)
        for a, b in zip((pred.sc1, pred.sc2, pred.cc), mine):
            assert abs(a / b - 1.0) < 1e-12


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_passes_and_emits_every_metric(workload, trace):
    proc = run_bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {n: m["unit"] for n, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared}
    for name, metric in result["metrics"].items():
        if metric["value"] is None:
            assert name in MAY_BE_NULL
        else:
            assert isinstance(metric["value"], (int, float)), name
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_exits_nonzero_without_the_package():
    (BENCH / ".work").mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(dir=BENCH / ".work"))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(BENCH, bare / "bench",
                        ignore=shutil.ignore_patterns(".work", "__pycache__"))
        proc = run_bench(WORKLOADS[0], 0, cwd=bare)
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
