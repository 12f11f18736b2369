#!/usr/bin/env python3
"""Benchmark of spdc-stats: three workloads against its public API and CLI.

Run from the root of a checkout (no install step; the package is imported
from ``src/``):

    python3 bench/run.py --workload fit_rows --seed 1 --seconds 20 --trace 0

Workloads (see bench/README.md for why each was chosen):

- cli_pipeline: fresh-interpreter runs of ``invert``, ``correlations``,
  ``saturation`` and ``simulate``, one after another; one op is one
  subcommand.
- fit_rows: ``invert_counts`` then a forward ``two_arm_rates`` check on
  seeded count-rate rows (exact, noisy, infeasible); one op is one row.
  Not among BENCHMARK.json's workloads (see bench/README.md); traced runs
  of the others still report its layers.
- mc_validate: ``simulate`` + ``compare_with_analytic`` over ten Monte
  Carlo configurations; one op is one configuration.

Each workload is a closed loop with one caller.  Every op's output is
checked; a failed op is counted, never dropped.  With ``--trace 0`` the
last stdout line carries the end-to-end metrics; with ``--trace 1`` it
carries the per-layer metrics, taken from spans the benchmark records
around its own calls into each module.  The line before it holds
provenance and detail (failure causes, row mix, sizes).
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from collections import Counter
from dataclasses import asdict, dataclass
from importlib import metadata
from pathlib import Path
from time import perf_counter, perf_counter_ns

import numpy as np

import fitrows
from tracing import NullTracer, Tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
DATA = SRC / "spdc_stats" / "data"
SWEEP = DATA / "table1_measured.csv"
WORK = BENCH / ".work"

F = fitrows.F
WORKLOADS = ("cli_pipeline", "fit_rows", "mc_validate")
CLI_COMMANDS = ("invert", "correlations", "saturation", "simulate")
CLI_TIMEOUT_S = 60
SIGMA_LIMIT = 5.0
# the CLI's default saturation efficiencies and click variant
SATURATION_ETAS = (0.3, 0.6, 0.9)
# reflected-branch efficiency relative to the signal arm, as in the
# acceptance suite's criterion 5 and the CLI's default --eta3-scale
ETA3_RATIO = 0.56 / 0.68
# the simulate call of cli_pipeline, as a user at the bench would type it
CLI_SIM = {"x": 0.0135, "eta1": 0.215, "eta2": 0.198, "eta3": 0.163}
# criterion-5 operating points: pump power of the bundled row -> x
MC_POINTS = {"lo": (10.0, 0.0135), "mid": (100.0, 0.128), "hi": (400.0, 0.392)}
MC_SATURATION_ETA = 0.6
MC_MEANS = {"lo": 0.1, "hi": 10.0}

IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import {}; "
    "print(time.perf_counter() - t)"
)


@dataclass(frozen=True)
class Sizes:
    setup_repeats: int = 5
    fit_rows: int = 4000
    fit_warmup_rows: int = 200
    mc_pulses: int = 10_000_000
    mc_warmup_pulses: int = 1 << 18
    cli_pulses: int = 10_000_000


SMOKE = Sizes(
    setup_repeats=1, fit_rows=200, fit_warmup_rows=20, mc_pulses=1 << 16,
    mc_warmup_pulses=1 << 12, cli_pulses=100_000,
)


def derive_seed(*keys: int) -> int:
    """A 64-bit seed for the program, fixed by the run seed and op position."""
    return int(np.random.SeedSequence(list(keys)).generate_state(1, np.uint64)[0])


def percentile(values: list[float], q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def slot_medians(passes: list[list[float]]) -> list[float]:
    """Each op position's median latency over the passes of a run.

    Every pass runs the same ops in the same order, so a slowdown that
    hits fewer than half of the passes does not reach the metrics.
    """
    return [statistics.median(slot) for slot in zip(*passes)]


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("SPDC_STATS_THREADS", None)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    return env


def load_package():
    """Import spdc_stats from this checkout's src/, or exit without a result."""
    if not (SRC / "spdc_stats" / "__init__.py").is_file():
        sys.exit(f"bench: package source not found at {SRC / 'spdc_stats'}; "
                 "run from the root of a checkout")
    os.environ.pop("SPDC_STATS_THREADS", None)
    sys.path.insert(0, str(SRC))
    import spdc_stats

    if Path(spdc_stats.__file__).resolve().parent != SRC / "spdc_stats":
        sys.exit(f"bench: imported spdc_stats from {spdc_stats.__file__}, "
                 f"not from {SRC}")
    return spdc_stats


def import_probe(module: str, env: dict) -> tuple[float, float]:
    """(wall time of a fresh interpreter that imports module, the import
    time it reports itself), both in seconds."""
    t0 = perf_counter()
    out = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE.format(module)],
        env=env, cwd=ROOT, capture_output=True, text=True, check=True,
        timeout=CLI_TIMEOUT_S,
    )
    return perf_counter() - t0, float(out.stdout.strip())


class Context:
    """What every workload shares within one run: package, sizes, seed, the
    scratch directory, and the op tally."""

    def __init__(self, pkg, sizes: Sizes, seed: int, work: Path):
        self.pkg = pkg
        self.sizes = sizes
        self.seed = seed
        self.work = work
        self.attempted = 0
        self.failures: Counter[str] = Counter()

    def record(self, failure: str | None) -> None:
        self.attempted += 1
        if failure is not None:
            self.failures[failure[:200]] += 1

    @property
    def failed(self) -> int:
        return sum(self.failures.values())


# ---------------------------------------------------------------- cli_pipeline


def half_ulp(literal: str) -> float:
    """Half the last printed decimal place of a reference literal."""
    text = literal.strip().lower().lstrip("+-")
    mantissa, _, exponent = text.partition("e")
    decimals = len(mantissa.split(".")[1]) if "." in mantissa else 0
    return 0.5 * 10.0 ** (int(exponent or 0) - decimals)


def cell_ok(value: float, printed: str, rel: float) -> bool:
    """The acceptance suite's band: max(rel relative, half a printed ulp)."""
    ref = float(printed)
    return abs(value - ref) <= max(rel * abs(ref), half_ulp(printed))


def read_csv(path: Path) -> list[dict[str, str]]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def compare_table(got: list[dict], expected: list[dict],
                  bands: dict[str, float]) -> str | None:
    if len(got) != len(expected):
        return f"{len(got)} rows, expected {len(expected)}"
    for row, ref in zip(got, expected):
        if row["status"] != "ok":
            return f"{row['power_mw']} mW: {row['status']}"
        for col, rel in bands.items():
            if not cell_ok(float(row[col]), ref[col], rel):
                return f"{row['power_mw']} mW: {col} {row[col]} vs {ref[col]}"
    return None


class CliPipeline:
    name = "cli_pipeline"

    def prepare(self, ctx: Context) -> None:
        self.env = child_env()
        self.table1 = read_csv(DATA / "table1_expected.csv")
        self.table2 = read_csv(DATA / "table2_expected.csv")
        self.series_terms: int | None = None

    def argv(self, cmd: str, d: Path, sim_seed: int, pulses: int) -> list[str]:
        if cmd == "invert":
            return ["invert", str(SWEEP), "--out", str(d)]
        if cmd == "correlations":
            return ["correlations", str(d / "table1.json"),
                    "--out", str(d / "table2.csv")]
        if cmd == "saturation":
            return ["saturation", "--out", str(d / "curves.csv")]
        return [
            "simulate", "--mode", "heralded_split",
            *(a for k, v in CLI_SIM.items() for a in (f"--{k}", str(v))),
            "--pulses", str(pulses), "--seed", str(sim_seed),
            "--out", str(d / "sim.json"),
        ]

    def check(self, cmd: str, d: Path, pulses: int) -> str | None:
        if cmd == "invert":
            return compare_table(
                read_csv(d / "table1.csv"), self.table1,
                dict.fromkeys(("tau", "eta1", "eta2", "pair_rate",
                               "one_pair_rate", "mean_pairs"), 0.02),
            )
        if cmd == "correlations":
            got = read_csv(d / "table2.csv")
            for row in got:
                if row["status"] == "ok" and (
                        abs(float(row["g2_unheralded"]) - 2.0) > 1e-8
                        or abs(float(row["g3_unheralded"]) - 6.0) > 1e-8):
                    return f"{row['power_mw']} mW: unheralded g2/g3 off"
            return compare_table(got, self.table2, {
                "g2_heralded": 0.01, "g2_signal_idler": 0.01,
                "g3_signal_idler": 0.01, "g2_predicted": 0.15,
            })
        if cmd == "saturation":
            rows = read_csv(d / "curves.csv")
            if len(rows) != 2 * len(SATURATION_ETAS) * 60:
                return f"{len(rows)} curve points"
            for row in rows:
                z = float(row["eta"]) * float(row["mean"])
                want = z / (1.0 + z) if row["source_kind"] == "thermal" \
                    else -math.expm1(-z)
                if not abs(float(row["detected"]) - want) <= 1e-9 * want:
                    return f"curve point {row} off (want {want})"
            return None
        with open(d / "sim.json") as fh:
            sim = json.load(fh)
        sigmas = [e["sigma"] for e in sim["comparison"].values()]
        if sim["counts"]["pulses"] != pulses or not sigmas:
            return "simulate output incomplete"
        if not max(sigmas) < SIGMA_LIMIT:
            return f"max sigma {max(sigmas):.2f}"
        return None

    def replay(self, ctx: Context, tr: Tracer, cmd: str, d: Path,
               sim_seed: int) -> None:
        """The same command's calls into each module, in process, so the
        subprocess wall time splits into layers plus CLI overhead."""
        pkg, r = ctx.pkg, d / "replay"
        r.mkdir(exist_ok=True)
        with tr.span(f"replay.{cmd}"):
            if cmd == "invert":
                with tr.span("sweepio.read_sweep"):
                    records = pkg.read_sweep(SWEEP)
                with tr.span("inversion.build_table"):
                    rows = pkg.build_table(records, F)
                with tr.span("sweepio.write_table1"):
                    pkg.write_table1_csv(rows, r / "table1.csv")
                    pkg.write_table1_json(rows, F, r / "table1.json")
            elif cmd == "correlations":
                with tr.span("sweepio.read_table1_json"):
                    _, rows = pkg.read_table1_json(r / "table1.json")
                with tr.span("correlation.build_table_two"):
                    reports = pkg.build_table_two(rows)
                with tr.span("sweepio.write_table2"):
                    pkg.write_table2_csv(reports, r / "table2.csv")
            elif cmd == "saturation":
                with tr.span("saturation.curve"):
                    curves = [pkg.curve(kind, eta)
                              for kind in ("coherent", "thermal")
                              for eta in SATURATION_ETAS]
                with tr.span("sweepio.write_curves"):
                    pkg.sweepio.write_curves_csv(curves, r / "curves.csv")
            else:
                cfg = pkg.SimConfig(
                    mode="heralded_split", pulses=ctx.sizes.cli_pulses,
                    seed=sim_seed, x=CLI_SIM["x"],
                    chain=pkg.DetectorChain(eta1=CLI_SIM["eta1"],
                                            eta2=CLI_SIM["eta2"],
                                            eta3=CLI_SIM["eta3"]),
                )
                with tr.span("montecarlo.simulate.cli"):
                    counts = pkg.simulate(cfg)
                with tr.span("montecarlo.compare.cli"):
                    pkg.compare_with_analytic(cfg, counts)
        if cmd == "correlations":
            self.probe_rows(
                ctx, tr, [row for row in rows if isinstance(row, pkg.TableOneRow)])

    def probe_rows(self, ctx: Context, tr: Tracer, rows: list) -> None:
        """Per-call costs of the Table 2 building blocks, at every row."""
        pkg = ctx.pkg
        for row in rows:
            eta3 = row.eta2 * ETA3_RATIO
            with tr.span("detector_model.split_coincidences"):
                pkg.split_coincidences(F, row.x, row.eta1, row.eta2, eta3)
            with tr.span("correlation.g2_heralded_predicted"):
                pkg.g2_heralded_predicted(row.x, row.eta1, row.eta2, eta3)
        order = getattr(pkg, "truncation_order", None)
        if order is not None:
            self.series_terms = sum(order(row.x) for row in rows)

    def run_pass(self, ctx: Context, tr, p: int) -> list[float]:
        d = ctx.work / f"cli-{p}"
        d.mkdir()
        sim_seed = derive_seed(ctx.seed, 1, p)
        pulses = ctx.sizes.cli_pulses
        latencies = []
        for cmd in CLI_COMMANDS:
            tr.new_op()
            argv = [sys.executable, "-m", "spdc_stats.cli",
                    *self.argv(cmd, d, sim_seed, pulses)]
            t0 = perf_counter()
            with tr.span(f"cli.{cmd}"):
                try:
                    proc = subprocess.run(
                        argv, cwd=d, env=self.env, capture_output=True,
                        text=True, timeout=CLI_TIMEOUT_S,
                    )
                    failure = None if proc.returncode == 0 else (
                        f"exit {proc.returncode}: {proc.stderr.strip()[-120:]}"
                    )
                except subprocess.TimeoutExpired:
                    failure = f"timed out after {CLI_TIMEOUT_S} s"
            latencies.append(perf_counter() - t0)
            if failure is None:
                try:
                    failure = self.check(cmd, d, pulses)
                    if failure is None and tr.enabled:
                        self.replay(ctx, tr, cmd, d, sim_seed)
                except Exception as exc:  # a broken op is counted, not fatal
                    failure = f"{type(exc).__name__}: {exc}"
            ctx.record(None if failure is None else f"{cmd}: {failure}")
        return latencies

    def layer_metrics(self, ctx: Context, tr: Tracer) -> dict:
        out = {}
        for cmd in CLI_COMMANDS:
            walls = tr.by_op(f"cli.{cmd}")
            inner = tr.child_time(f"replay.{cmd}")
            out[f"cli.wall_s.{cmd}"] = tr.median(f"cli.{cmd}")
            out[f"cli.overhead_s.{cmd}"] = statistics.median(
                walls[op] - t for op, t in inner.items()) if inner else None
        for name in ("read_sweep", "write_table1", "read_table1_json",
                     "write_table2", "write_curves"):
            out[f"sweepio.{name}_ms"] = tr.median(f"sweepio.{name}", 1e3)
        for layer in ("inversion.build_table", "detector_model.split_coincidences",
                      "correlation.build_table_two",
                      "correlation.g2_heralded_predicted", "saturation.curve"):
            out[f"{layer}_ms"] = tr.median(layer, 1e3)
        out["photon_statistics.series_terms"] = self.series_terms
        return out


# -------------------------------------------------------------------- fit_rows


class FitRows:
    name = "fit_rows"

    def prepare(self, ctx: Context) -> None:
        pkg = ctx.pkg
        self.rows = fitrows.make_rows(ctx.seed, ctx.sizes.fit_rows)
        # InversionError goes away with the closed-form inversion
        self.inconsistent = pkg.DataInconsistencyError
        self.nonconvergent = getattr(pkg, "InversionError", None)
        self.reject = tuple(
            t for t in (self.inconsistent, self.nonconvergent) if t is not None
        )
        self.tally: dict | None = None
        self.run_rows(ctx, NullTracer(), self.rows[: ctx.sizes.fit_warmup_rows])

    def run_rows(self, ctx: Context, tr, rows) -> tuple[list[float], dict]:
        invert, forward = ctx.pkg.invert_counts, ctx.pkg.two_arm_rates
        latencies = []
        tally = {"inconsistent": 0, "nonconvergent": 0, "iterations": []}
        for row in rows:
            tr.new_op()
            result = fwd = error = None
            t0 = perf_counter_ns()
            try:
                with tr.span("inversion.invert_counts"):
                    result = invert(F, row.power_mw, row.sc1, row.sc2, row.cc)
                with tr.span("detector_model.two_arm_rates"):
                    fwd = forward(F, result.x, result.eta1, result.eta2)
            except Exception as exc:  # judged by fitrows.check
                error = exc
            latencies.append((perf_counter_ns() - t0) * 1e-9)
            ctx.record(fitrows.check(row, result, fwd, error, self.reject))
            if isinstance(error, self.inconsistent):
                tally["inconsistent"] += 1
            elif self.nonconvergent and isinstance(error, self.nonconvergent):
                tally["nonconvergent"] += 1
            elif error is None:
                tally["iterations"].append(getattr(result, "iterations", None))
        return latencies, tally

    def run_pass(self, ctx: Context, tr, p: int) -> list[float]:
        latencies, tally = self.run_rows(ctx, tr, self.rows)
        if self.tally is None:
            self.tally = tally
        return latencies

    def layer_metrics(self, ctx: Context, tr: Tracer) -> dict:
        inv = tr.durations("inversion.invert_counts")
        iters = self.tally["iterations"]
        return {
            "inversion.invert_counts_p50_us": 1e6 * percentile(inv, 50),
            "inversion.invert_counts_p90_us": 1e6 * percentile(inv, 90),
            "inversion.rejected_inconsistent": self.tally["inconsistent"],
            "inversion.rejected_nonconvergent": (
                self.tally["nonconvergent"] if self.nonconvergent else None),
            "inversion.mean_iterations": (
                statistics.fmean(iters) if iters and None not in iters
                else None),
            "detector_model.two_arm_rates_us": tr.median(
                "detector_model.two_arm_rates", 1e6),
        }

    def detail(self) -> dict:
        n = len(self.rows)
        return {
            "rows": n,
            "share": {k: m / n for k, m in fitrows.kind_counts(n).items()},
        }


# ----------------------------------------------------------------- mc_validate


def mc_configs(pkg) -> dict[str, dict]:
    """The ten SimConfig parameter sets, pulses and seed left out.

    two_arm/heralded_split replay the acceptance suite's criterion 5:
    x at its three points, etas of the bundled inversion rounded to 1e-3.
    """
    rows = {r.power_mw: r for r in pkg.build_table(pkg.load_bundled_sweep(), F)}
    configs = {}
    for tag, (power, x) in MC_POINTS.items():
        eta1, eta2 = round(rows[power].eta1, 3), round(rows[power].eta2, 3)
        configs[f"two_arm_{tag}"] = dict(
            mode="two_arm", x=x, chain=pkg.DetectorChain(eta1=eta1, eta2=eta2))
        configs[f"split_{tag}"] = dict(
            mode="heralded_split", x=x,
            chain=pkg.DetectorChain(eta1=eta1, eta2=eta2,
                                    eta3=eta2 * ETA3_RATIO))
    for kind in ("thermal", "coherent"):
        for tag, mean in MC_MEANS.items():
            configs[f"{kind}_{tag}"] = dict(
                mode="saturation", source_kind=kind, mean=mean,
                chain=pkg.DetectorChain(eta1=MC_SATURATION_ETA))
    return configs


class MCValidate:
    name = "mc_validate"

    def prepare(self, ctx: Context) -> None:
        self.configs = mc_configs(ctx.pkg)
        self.emitting: dict[str, float] = {}
        for i, name in enumerate(self.configs):
            self.op(ctx, NullTracer(), name, ctx.sizes.mc_warmup_pulses,
                    derive_seed(ctx.seed, 2, 1 << 30, i))

    def op(self, ctx: Context, tr, name: str, pulses: int, seed: int):
        pkg = ctx.pkg
        tr.new_op()
        counts = failure = None
        t0 = perf_counter()
        try:
            cfg = pkg.SimConfig(pulses=pulses, seed=seed, **self.configs[name])
            with tr.span(f"montecarlo.simulate.{name}"):
                counts = pkg.simulate(cfg)
            with tr.span(f"montecarlo.compare.{name}"):
                comparison = pkg.compare_with_analytic(cfg, counts)
        except Exception as exc:  # a broken op is counted, not fatal
            failure = f"{name}: {type(exc).__name__}: {exc}"
        elapsed = perf_counter() - t0
        if failure is None:
            worst = max((e["sigma"] for e in comparison.values()), default=math.nan)
            if not worst < SIGMA_LIMIT:
                failure = f"{name}: max sigma {worst:.2f}"
        ctx.record(failure)
        return elapsed, counts

    def run_pass(self, ctx: Context, tr, p: int) -> list[float]:
        latencies = []
        pulses = ctx.sizes.mc_pulses
        for i, name in enumerate(self.configs):
            elapsed, counts = self.op(ctx, tr, name, pulses,
                                      derive_seed(ctx.seed, 2, p, i))
            latencies.append(elapsed)
            if counts is not None and name not in self.emitting:
                self.emitting[name] = counts.pulses_with_emission / counts.pulses
        return latencies

    def layer_metrics(self, ctx: Context, tr: Tracer) -> dict:
        pulses = ctx.sizes.mc_pulses
        out = {}
        ops = busy = 0
        for name in self.configs:
            sim = tr.durations(f"montecarlo.simulate.{name}")
            cmp = tr.durations(f"montecarlo.compare.{name}")
            ops += len(sim)
            busy += sum(sim) + sum(cmp)
            out[f"montecarlo.simulate_mpps.{name}"] = (
                pulses / statistics.median(sim) / 1e6 if sim else None)
            out[f"montecarlo.compare_ms.{name}"] = tr.median(
                f"montecarlo.compare.{name}", 1e3)
            out[f"montecarlo.emitting_frac.{name}"] = self.emitting.get(name)
        out["montecarlo.mpulses_per_s"] = pulses * ops / busy / 1e6
        return out


# ------------------------------------------------------------------ the run


def provenance(seed: int, sizes: Sizes) -> dict:
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), None)
    except OSError:
        pass
    try:
        scipy_version = metadata.version("scipy")
    except metadata.PackageNotFoundError:
        scipy_version = None
    sha = dirty = None
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=10, check=True,
            ).stdout.strip()
            dirty = bool(subprocess.run(
                ["git", "-C", str(ROOT), "status", "--porcelain",
                 "--untracked-files=no"],
                capture_output=True, text=True, timeout=10, check=True,
            ).stdout.strip())
        except (OSError, subprocess.SubprocessError):
            sha = dirty = None
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu or platform.processor() or None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy_version,
        "git_sha": sha,
        "git_dirty": dirty,
        "seed": seed,
        "sizes": asdict(sizes),
    }


def run(workload: str, seed: int, seconds: float, trace: bool,
        sizes: Sizes) -> tuple[dict, dict]:
    pkg = load_package()
    env = child_env()
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK))
    try:
        ctx = Context(pkg, sizes, seed, work)
        # a fresh interpreter importing the package, as every CLI call does
        probes = [import_probe("spdc_stats", env)
                  for _ in range(sizes.setup_repeats)]
        numpy_probes = [import_probe("numpy", env)
                        for _ in range(sizes.setup_repeats if trace else 0)]

        workloads = {w.name: w for w in (CliPipeline(), FitRows(), MCValidate())}
        main = workloads[workload]
        main.prepare(ctx)

        tracer = Tracer() if trace else None
        # traced runs alternate traced and untraced passes so the tracing
        # overhead is measured under the same conditions
        passes = {True: [], False: []}
        start = perf_counter()
        p = 0
        while True:
            traced = trace and p % 2 == 0
            passes[traced].append(main.run_pass(
                ctx, tracer if traced else NullTracer(), p))
            p += 1
            if perf_counter() - start >= seconds and (not trace or p >= 2):
                break
        loop_s = perf_counter() - start

        detail = {
            "workload": workload,
            "seconds": seconds,
            "trace": int(trace),
            "provenance": provenance(seed, sizes),
            "passes": p,
            "loop_s": loop_s,
        }
        if trace:
            # one traced pass of every other workload, so that every
            # per-layer metric is reported on every workload
            for other in workloads.values():
                if other is not main:
                    other.prepare(ctx)
                    other.run_pass(ctx, tracer, p)
            metrics = {
                "import.spdc_stats_s": statistics.median(c for _, c in probes),
                "import.numpy_s": statistics.median(c for _, c in numpy_probes),
            }
            for w in workloads.values():
                metrics.update(w.layer_metrics(ctx, tracer))
            metrics["trace.overhead_pct"] = 100.0 * (
                sum(slot_medians(passes[True]))
                / sum(slot_medians(passes[False])) - 1.0)
            tracer.dump(WORK / f"trace-{workload}.json.gz")
        else:
            slots = slot_medians(passes[False])
            rss_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                         resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
            metrics = {
                "setup_s": statistics.median(w for w, _ in probes),
                "peak_rss_mb": rss_kb / 1024.0,
                "ok_frac": (ctx.attempted - ctx.failed) / ctx.attempted,
                "ops_per_s": len(slots) / sum(slots),
                "op_p50_ms": 1e3 * statistics.median(slots),
                "op_p90_ms": 1e3 * percentile(slots, 90),
            }
        detail["ops"] = sum(map(len, passes[True] + passes[False]))
        detail["attempted"] = ctx.attempted
        detail["failed_frac"] = ctx.failed / ctx.attempted
        detail["failure_causes"] = dict(ctx.failures.most_common(20))
        if isinstance(main, FitRows) or trace:
            detail["fit_rows"] = workloads["fit_rows"].detail()
    finally:
        shutil.rmtree(work, ignore_errors=True)

    result = {
        "correct": ctx.failed == 0,
        "attempted": ctx.attempted,
        "failed": ctx.failed,
        "metrics": metrics,
    }
    return detail, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--smoke", action="store_true",
        help="tiny sizes, for the benchmark's own self-tests",
    )
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    # on SIGTERM, unwind so a running CLI child is killed and waited for
    # and the scratch directory is removed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    detail, result = run(args.workload, args.seed, args.seconds,
                         bool(args.trace), SMOKE if args.smoke else Sizes())
    result["metrics"] = {
        name: {"value": value, "unit": unit_of(name)}
        for name, value in result["metrics"].items()
    }
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0


_UNIT_SUFFIXES = (("_ms", "ms"), ("_us", "us"), ("_mb", "MB"), ("_pct", "%"),
                  ("_frac", "frac"), ("_s", "s"))


def unit_of(name: str) -> str:
    """A metric's unit, read off the measure part of its name: the whole
    name, or the segment after the module ("cli.wall_s.invert" -> "s")."""
    measure = name.split(".")[1] if "." in name else name
    if measure.endswith(("mpps", "mpulses_per_s")):
        return "Mpulse/s"
    if measure.endswith("per_s"):
        return "1/s"
    for suffix, unit in _UNIT_SUFFIXES:
        if measure.endswith(suffix):
            return unit
    return "count"


if __name__ == "__main__":
    sys.exit(main())
