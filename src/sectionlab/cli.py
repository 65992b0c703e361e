"""Command-line entry point.

Subcommands: scan-periods, trace, verify, build-metric, common-period.
Global flags: --config PATH, --seed N, --out DIR.  All angles are radians
and every output file carries the effective configuration in its header, so
identical config plus seed reproduces byte-identical output.

Exit codes: 0 success, 2 bad config or input, 3 solver failure, 4 verification
failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from pathlib import Path

import numpy as np

from .circle import TWO_PI, ConvergenceFailure, circle_distance
from .config import Config, ConfigError, load_config
from .dynamics import TransitionMap, classify_scan
from .geodesics import GeodesicState, integrate, section_verdict, trace_section
from .table import csv_text
from .verify import rational_closure, run_all_checks

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVER = 3
EXIT_VERIFY = 4


def _out_dir(cfg: Config, override) -> Path:
    path = Path(override) if override else Path(cfg.directory)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _headers(cfg: Config, seed: int) -> list[str]:
    return cfg.header_lines() + [f"seed = {seed}"]


def cmd_scan_periods(cfg: Config, seed: int, out: Path) -> int:
    f = cfg.build_diffeo()
    report = classify_scan(
        TransitionMap(f), n_samples=cfg.n_samples, k_max=cfg.k_max, tol=cfg.tol
    )
    csv_path = out / "periods.csv"
    csv_path.write_text(report.to_csv_text(_headers(cfg, seed)), encoding="utf-8")
    print(report.summary_text())
    print(f"wrote {csv_path}")
    return EXIT_OK


def cmd_trace(cfg: Config, seed: int, out: Path, theta0: float, max_legs: int, numeric: bool) -> int:
    f = cfg.build_diffeo()
    trace = trace_section(f, theta0, max_legs=max_legs, k_max=cfg.k_max, tol=cfg.tol)
    verdict = section_verdict(trace)
    doc = trace.to_json_dict()
    doc["verdict"] = {
        "closed": verdict.closed,
        "period": verdict.period.k,
        "searched": verdict.period.searched,
        "length": None if verdict.length == float("inf") else verdict.length,
        "injective": verdict.injective,
        "witness": None if verdict.witness is None else dict(vars(verdict.witness)),
    }
    doc["effective_config"] = _headers(cfg, seed)
    if numeric:
        metric = cfg.build_metric()
        # launch the same section numerically: radial from the chart-1 center
        traj = integrate(
            metric,
            GeodesicState(1, 0.0, theta0, 1.0, 0.0),
            ds=cfg.ds,
            s_max=min(cfg.s_max, 2.0 * max_legs),
        )
        dev = 0.0
        for num_c, exact_c in zip(traj.crossings, trace.crossings):
            d1 = circle_distance(num_c.theta1, exact_c.theta1)
            d2 = circle_distance(num_c.theta2, exact_c.theta2)
            dev = max(dev, d1, d2)
        doc["numeric_crossing_deviation"] = dev
        traj_path = out / "trajectory.csv"
        traj_path.write_text(traj.to_records_text(_headers(cfg, seed)), encoding="utf-8")
        print(f"numeric cross-check: {len(traj.crossings)} crossings, max deviation {dev:.3e}")
        print(f"wrote {traj_path}")
    json_path = out / "trace.json"
    text = json.dumps(doc, indent=2, sort_keys=True, allow_nan=False)
    json_path.write_text(text + "\n", encoding="utf-8")
    closed_str = f"closed, period {verdict.period.k}, length {verdict.length:g}" if verdict.closed else (
        f"not closed within {verdict.period.searched} returns"
    )
    print(f"section at theta0={theta0!r}: {closed_str}; injective={verdict.injective}")
    if verdict.witness is not None:
        w = verdict.witness
        print(
            f"  witness: chart-{w.chart} center crossed by legs {w.leg_a} and {w.leg_b} "
            f"along lines {w.line_a:.6f} / {w.line_b:.6f} (separation {w.separation:.3e})"
        )
    print(f"wrote {json_path}")
    return EXIT_OK


def cmd_verify(cfg: Config, seed: int, out: Path, tamper_psi1: float) -> int:
    # the flags are checked here, so that their errors do not blame the config
    if seed < 0:
        raise ValueError(f"--seed must be non-negative for verify, got {seed}")
    if not 0.0 < tamper_psi1 < math.inf:
        raise ValueError(f"--tamper-psi1 must be positive and finite, got {tamper_psi1!r}")
    metric = cfg.build_metric(psi1_scale=tamper_psi1)
    report = run_all_checks(metric, seed=seed, s_max=cfg.s_max, ds=cfg.ds)
    csv_path = out / "verify.csv"
    csv_path.write_text(report.to_csv_text(_headers(cfg, seed)), encoding="utf-8")
    print(report.summary_text())
    print(f"wrote {csv_path}")
    return EXIT_OK if report.all_passed else EXIT_VERIFY


def cmd_build_metric(cfg: Config, seed: int, out: Path, n_t: int, n_theta: int) -> int:
    for flag, n in (("--n-t", n_t), ("--n-theta", n_theta)):
        if n < 1:
            raise ValueError(f"build-metric {flag} must be >= 1, got {n}")
    metric = cfg.build_metric()
    ts = np.linspace(0.0, 1.0, n_t).tolist()
    thetas = np.linspace(0.0, TWO_PI, n_theta, endpoint=False).tolist()
    # a float's repr is the costly part of a row, so each grid angle's is
    # formatted once, and each radius's once per chart
    theta_cells = [f",{theta!r}," for theta in thetas]
    warp, rows = metric.warp_with_partials, []
    for chart in (1, 2):
        for t in ts:
            head = f"{chart},{t!r}"
            for theta, cell in zip(thetas, theta_cells):
                phi, phi_t, phi_theta = warp(chart, t, theta)
                rows.append(f"{head}{cell}{phi!r},{phi_t!r},{phi_theta!r}")
    columns = ("chart", "t", "theta", "phi", "phi_t", "phi_theta")
    csv_path = out / "metric_grid.csv"
    csv_path.write_text(csv_text(_headers(cfg, seed), columns, rows), encoding="utf-8")
    print(f"wrote {csv_path} ({2 * n_t * n_theta} samples)")
    return EXIT_OK


def cmd_common_period(args) -> int:
    value = rational_closure(
        (args.r_num, args.r_den), (args.s_num, args.s_den), irrational_ratio=args.irrational
    )
    print("never closes" if value is None else f"L / (2*pi) = {value}")
    return EXIT_OK


# built once per process and reused by every main() call: a parse leaves no
# state in the parser
@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sectionlab",
        description="Period dynamics, glued metrics and section tracing on the two-disk surface.",
    )
    parser.add_argument("--config", default=None, help="Path to an INI config file")
    parser.add_argument("--seed", type=int, default=0, help="Seed for randomized checks")
    parser.add_argument("--out", default=None, help="Output directory (overrides [output])")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("scan-periods", help="Classify equispaced boundary angles by period")

    p_trace = sub.add_parser("trace", help="Trace the exact section from a start angle")
    p_trace.add_argument("theta0", type=float, help="Start boundary angle in radians")
    p_trace.add_argument("--max-legs", type=int, default=102)
    p_trace.add_argument(
        "--numeric", action="store_true", help="Cross-check crossings against the integrator"
    )

    p_verify = sub.add_parser("verify", help="Run the metric verification checks")
    p_verify.add_argument(
        "--tamper-psi1",
        type=float,
        default=1.0,
        metavar="SCALE",
        help="Deliberately scale the derived plateau profile (negative control)",
    )

    p_grid = sub.add_parser("build-metric", help="Export a sampled warp grid as CSV")
    p_grid.add_argument("--n-t", type=int, default=49)
    p_grid.add_argument("--n-theta", type=int, default=72)

    p_cp = sub.add_parser("common-period", help="Exact common period of two circular motions")
    p_cp.add_argument("r_num", type=int, nargs="?", default=1)
    p_cp.add_argument("r_den", type=int, nargs="?", default=1)
    p_cp.add_argument("s_num", type=int, nargs="?", default=1)
    p_cp.add_argument("s_den", type=int, nargs="?", default=1)
    p_cp.add_argument("--irrational", action="store_true", help="Irrational radius ratio")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "common-period":
            return cmd_common_period(args)
        cfg = load_config(args.config)
        out = _out_dir(cfg, args.out)
        if args.command == "scan-periods":
            return cmd_scan_periods(cfg, args.seed, out)
        if args.command == "trace":
            return cmd_trace(cfg, args.seed, out, args.theta0, args.max_legs, args.numeric)
        if args.command == "verify":
            return cmd_verify(cfg, args.seed, out, args.tamper_psi1)
        if args.command == "build-metric":
            return cmd_build_metric(cfg, args.seed, out, args.n_t, args.n_theta)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ConvergenceFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except (ValueError, OSError) as exc:  # bad input or output path; after ConfigError above
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":
    raise SystemExit(main())
