"""Command-line front end.

Subcommands
-----------
invert        sweep.csv -> table1.csv + table1.json (exact count-rate inversion)
correlations  table1.json -> table2.csv (correlation-function table)
saturation    -> curves.csv (thermal vs coherent detector response)
simulate      -> simcounts.json (Monte Carlo with analytic comparison)

Exit codes: 0 success; 1 usage or input error; 2 some sweep rows failed
inversion; 3 Monte Carlo disagreed with the analytic model beyond 5 sigma.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

# Each command imports the modules it runs, so a fresh process loads only
# its own command's path; every command needs detector_model and errors.
from .detector_model import DEFAULT_ETA2_SCALE, DEFAULT_ETA3_SCALE, DetectorChain
from .errors import ResourceLimitError

REP_RATE_DEFAULT = 76e6
DEFAULT_SATURATION_ETAS = (0.3, 0.6, 0.9)
SIGMA_LIMIT = 5.0


class _Parser(argparse.ArgumentParser):
    """argparse exits with code 2 on usage errors; the exit-code contract
    reserves 2 for partial row failures, so remap to 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="spdc-stats",
        description=(
            "Model pulsed photon-pair statistics through bucket detectors: "
            "invert count rates, tabulate correlation functions, compare "
            "detector saturation, and cross-check by Monte Carlo."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p_inv = sub.add_parser(
        "invert",
        help="recover (tau, eta1, eta2) and generation rates from a sweep CSV",
        description="Invert each sweep row's singles and coincidences in "
        "closed form; rows no (tau, eta1, eta2) can produce are reported "
        "and skipped.",
    )
    p_inv.add_argument("sweep", type=Path, help="input sweep CSV")
    p_inv.add_argument(
        "--rep-rate", type=float, default=REP_RATE_DEFAULT,
        help="pulse repetition rate in Hz (default %(default)s)",
    )
    p_inv.add_argument(
        "--out", type=Path, default=Path("."),
        help="output directory for table1.csv and table1.json",
    )

    p_cor = sub.add_parser(
        "correlations",
        help="tabulate g2/g3 correlation functions from inversion output",
    )
    p_cor.add_argument("table1", type=Path, help="table1.json from invert")
    p_cor.add_argument(
        "--eta2-scale", type=float, default=DEFAULT_ETA2_SCALE,
        help="transmitted-branch efficiency as a fraction of the "
        "signal-arm efficiency (default %(default)s)",
    )
    p_cor.add_argument(
        "--eta3-scale", type=float, default=DEFAULT_ETA3_SCALE,
        help="reflected-branch efficiency as a fraction of the "
        "signal-arm efficiency (default %(default).6g)",
    )
    p_cor.add_argument(
        "--out", type=Path, default=Path("table2.csv"),
        help="output CSV path (default %(default)s)",
    )

    p_sat = sub.add_parser(
        "saturation",
        help="emit thermal and coherent detected-vs-incident curves",
    )
    p_sat.add_argument(
        "--eta", type=float, action="append", dest="etas", metavar="ETA",
        help="detector efficiency; repeatable "
        f"(default {', '.join(str(e) for e in DEFAULT_SATURATION_ETAS)})",
    )
    p_sat.add_argument(
        "--variant", choices=("click", "literal"), default="click",
        help="click probability or photon-weighted response "
        "(default %(default)s)",
    )
    p_sat.add_argument(
        "--out", type=Path, default=Path("curves.csv"),
        help="output CSV path (default %(default)s)",
    )

    p_sim = sub.add_parser(
        "simulate",
        help="run the Monte Carlo oracle and compare with the analytic model",
    )
    p_sim.add_argument(
        "--mode", choices=("two_arm", "heralded_split", "saturation"),
        required=True,
    )
    p_sim.add_argument("--pulses", type=int, default=10**6)
    p_sim.add_argument("--seed", type=int, default=12345)
    p_sim.add_argument("--x", type=float, help="per-pulse emission parameter")
    p_sim.add_argument("--eta1", type=float)
    p_sim.add_argument("--eta2", type=float)
    p_sim.add_argument("--eta3", type=float)
    p_sim.add_argument(
        "--source-kind", choices=("thermal", "coherent"),
        help="saturation-mode source distribution",
    )
    p_sim.add_argument(
        "--mean", type=float, help="saturation-mode mean photon number"
    )
    p_sim.add_argument(
        "--threads", type=int, default=None,
        help="worker threads (default: the CPU count; results never "
        "depend on this)",
    )
    p_sim.add_argument(
        "--out", type=Path, default=Path("simcounts.json"),
        help="output JSON path (default %(default)s)",
    )
    return parser


def cmd_invert(args) -> int:
    from .inversion import FailedRow, build_table
    from .sweepio import read_sweep, write_table1_csv, write_table1_json

    records = read_sweep(args.sweep)
    rows = build_table(records, args.rep_rate)
    args.out.mkdir(parents=True, exist_ok=True)
    csv_path = args.out / "table1.csv"
    json_path = args.out / "table1.json"
    write_table1_csv(rows, csv_path)
    write_table1_json(rows, args.rep_rate, json_path)
    failures = [r for r in rows if isinstance(r, FailedRow)]
    print(f"wrote {csv_path} and {json_path}: "
          f"{len(rows) - len(failures)} rows inverted, {len(failures)} failed")
    for fail in failures:
        print(
            f"  {fail.record.power_mw} mW: {fail.error}",
            file=sys.stderr,
        )
    return 2 if failures else 0


def cmd_correlations(args) -> int:
    from .correlation import build_table_two
    from .inversion import FailedRow
    from .sweepio import read_table1_json, write_table2_csv

    _, rows = read_table1_json(args.table1)
    reports = build_table_two(
        rows, eta2_scale=args.eta2_scale, eta3_scale=args.eta3_scale
    )
    write_table2_csv(reports, args.out)
    failures = [r for r in reports if isinstance(r, FailedRow)]
    print(f"wrote {args.out}: {len(reports) - len(failures)} rows, "
          f"{len(failures)} carried over as failed")
    return 2 if failures else 0


def cmd_saturation(args) -> int:
    from .saturation import curve, default_mean_grid
    from .sweepio import write_curves_csv

    etas = args.etas if args.etas else list(DEFAULT_SATURATION_ETAS)
    grid = default_mean_grid()
    curves = [
        curve(kind, eta, args.variant, grid)
        for kind in ("coherent", "thermal")
        for eta in etas
    ]
    write_curves_csv(curves, args.out)
    print(f"wrote {args.out}: {len(curves)} curves x {len(grid)} points")
    return 0


def cmd_simulate(args) -> int:
    import json

    # the one subcommand that needs numpy, so the only one that loads it
    from . import expectations, montecarlo

    chain = None
    if args.eta1 is not None:
        chain = DetectorChain(eta1=args.eta1, eta2=args.eta2, eta3=args.eta3)
    config = montecarlo.SimConfig(
        mode=args.mode,
        pulses=args.pulses,
        seed=args.seed,
        x=args.x,
        chain=chain,
        source_kind=args.source_kind,
        mean=args.mean,
    )
    counts = montecarlo.simulate(config, threads=args.threads)
    comparison = expectations.compare_with_analytic(config, counts)
    sigmas = [entry["sigma"] for entry in comparison.values()]
    max_sigma = max(sigmas) if sigmas else 0.0
    payload = {
        "config": dict(config._asdict(), chain=config.chain._asdict()),
        "counts": counts._asdict(),
        "comparison": comparison,
        "max_sigma": max_sigma,
        "sigma_limit": SIGMA_LIMIT,
    }
    with open(args.out, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {args.out}: max sigma distance {max_sigma:.3f}")
    if max_sigma > SIGMA_LIMIT or math.isnan(max_sigma):
        print(
            "monte carlo disagrees with the analytic model beyond "
            f"{SIGMA_LIMIT} sigma",
            file=sys.stderr,
        )
        return 3
    return 0


_COMMANDS = {
    "invert": cmd_invert,
    "correlations": cmd_correlations,
    "saturation": cmd_saturation,
    "simulate": cmd_simulate,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ValueError, OSError, ResourceLimitError) as exc:
        print(f"spdc-stats: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
