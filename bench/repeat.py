#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarise each metric.

    python3 bench/repeat.py --workload fit_rows --seeds 1-10 --seconds 20
    python3 bench/repeat.py --seeds 1-10 --out bench/baseline.json

Without --workload every workload in BENCHMARK.json is run.  For each
metric the summary gives the values, their median, the first and third
quartiles (``statistics.quantiles(values, n=4)``) and the spread, the
quartile distance as a share of the median.  For an end-to-end metric the
spread is flagged when it is not below a third of the metric's bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_list(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(spec: dict, workload: str, seed: int, seconds: int,
             trace: int) -> tuple[dict, dict]:
    out = subprocess.run(
        spec["command"] + ["--workload", workload, "--seed", str(seed),
                           "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True, timeout=900,
    )
    *_, detail_line, result_line = out.stdout.strip().splitlines()
    return json.loads(detail_line)["detail"], json.loads(result_line)


def summarise(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 \
        else values * 3
    return {"values": values, "median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else None}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append")
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    report = {"seconds": seconds, "trace": args.trace, "workloads": {}}
    for workload in workloads:
        runs = [run_once(spec, workload, s, seconds, args.trace)
                for s in seed_list(args.seeds)]
        metrics = {}
        for name in runs[0][1]["metrics"]:
            values = [r["metrics"][name]["value"] for _, r in runs]
            if None in values:
                metrics[name] = {"values": values}
                continue
            metrics[name] = summarise(values)
            metrics[name]["unit"] = runs[0][1]["metrics"][name]["unit"]
        report["workloads"][workload] = {
            "provenance": runs[0][0]["provenance"],
            "failed_frac": [d["failed_frac"] for d, _ in runs],
            "failure_causes": [d["failure_causes"] for d, _ in runs],
            "correct": [r["correct"] for _, r in runs],
            "metrics": metrics,
        }
        print(f"{workload}: failed_frac "
              f"{report['workloads'][workload]['failed_frac']}")
        for name, m in metrics.items():
            if "median" not in m:
                continue
            flag = ""
            if name in bounds and name != "setup_s" and m["spread"] is not None \
                    and m["spread"] >= bounds[name] / 3:
                flag = f"  <-- spread above bound/3 ({bounds[name] / 3:.4f})"
            print(f"  {name:40s} median {m['median']:.6g} {m['unit']:8s} "
                  f"spread {m['spread']:.4f}{flag}")
        sys.stdout.flush()
    if args.out:
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
