"""The jobs of one round of each workload, with their digests and checks.

A round is one pass over a workload's jobs, each started after the previous
one finishes, all in this process.  CLI jobs go through
`sectionlab.cli.main(argv)`; library jobs call the public functions through
their modules, so a traced run sees them.  Each job counts one operation,
except the section batch, which counts one per traced section.

`run` is the timed part.  `digests` (one per operation) and `check` (a list
of (operation index, problem)) run outside the timing.
"""

from __future__ import annotations

import io
import math
import shutil
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from sectionlab import cli, geodesics, verify
from sectionlab.metric import GluedMetric

import checks
from workloads import NONRADIAL_S_MAX, Context

# run_all_checks integrates 100 geodesics to s_max = 20 and 36 radial ones to s = 6
VERIFY_ARCLENGTH = 100 * 20.0 + 36 * 6.0
TAMPER_PSI1 = 1.01


@dataclass
class Job:
    name: str
    run: Callable[[], object]
    digests: Callable[[object], list]
    check: Callable[[object], list]
    ops: int = 1
    samples: int = 0  # boundary angles classified by a scan-periods job
    sections: int = 0  # trace_section + section_verdict pairs
    arclength: float = 0.0  # geodesic arclength integrated
    files: dict = field(default_factory=dict)  # last digests of the files written


@dataclass
class CliResult:
    code: int
    output: str
    out_dir: Path


def _cli_job(name: str, ctx: Context, argv: list, check, expect: int = 0, **kw) -> Job:
    """A `sectionlab` command whose output files land in a directory of its own."""
    out_dir = ctx.workdir / "out" / name
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    job = Job(name, run=None, digests=None, check=None, **kw)

    def run():
        buf = io.StringIO()
        with redirect_stdout(buf), redirect_stderr(buf):
            try:
                code = cli.main(["--out", str(out_dir)] + argv)
            except SystemExit as exc:  # argparse rejects an argv
                code = exc.code
        return CliResult(code, buf.getvalue(), out_dir)

    def digests(res):
        job.files = checks.dir_digests(res.out_dir)
        return [checks.combined_digest(job.files)]

    def check_(res):
        if res.code != expect:
            return [(0, f"exit code {res.code}, expected {expect}: {res.output.strip()[-300:]}")]
        return [(0, p) for p in check(res, job)]

    job.run, job.digests, job.check = run, digests, check_
    return job


def _config_argv(ctx: Context, name: str) -> list:
    path = ctx.config_paths[name]
    return [] if path is None else ["--config", str(path)]


def _diffeo_params(ctx: Context, name: str) -> dict:
    cfg = ctx.configs[name]
    return {
        "kind": cfg.kind,
        "amplitude": cfg.amplitude,
        "support_lo": cfg.support_lo,
        "support_hi": cfg.support_hi,
        "spline_knots": cfg.spline_knots,
        "spline_values": cfg.spline_values,
    }


def scan_jobs(ctx: Context) -> list:
    jobs = []
    picks = ctx.inputs["scan_oracle_picks"]
    for name in ("default", "bump", "spline"):
        cfg = ctx.configs[name]
        lift = checks.lift_for(_diffeo_params(ctx, name))

        def check(res, job, cfg=cfg, lift=lift, name=name):
            return checks.check_periods_csv(
                res.out_dir / "periods.csv", cfg.n_samples, lift, picks[name], cfg.k_max, cfg.tol
            )

        jobs.append(
            _cli_job(
                f"scan-periods-{name}",
                ctx,
                _config_argv(ctx, name) + ["scan-periods"],
                check,
                samples=cfg.n_samples,
            )
        )
    jobs.append(_section_batch(ctx))
    return jobs


def _section_batch(ctx: Context) -> Job:
    f = ctx.diffeos["bump"]
    angles = ctx.inputs["trace_angles"]
    oracle_picks = ctx.inputs["trace_oracle_picks"]
    lift = checks.lift_for(_diffeo_params(ctx, "bump"))

    def run():
        out = []
        for theta in angles:
            trace = geodesics.trace_section(f, theta)
            out.append((trace, geodesics.section_verdict(trace)))
        return out

    def digests(res):
        return [checks.sha256_text(repr(pair)) for pair in res]

    def check(res):
        problems = []
        for i, (trace, v) in enumerate(res):
            problems += [(i, p) for p in checks.check_verdict(v.closed, v.period.k, v.length, v.injective, v.witness)]
        for i in oracle_picks:
            problems += [(i, p) for p in checks.check_period(lift, angles[i], res[i][1].period.k)]
        return problems

    return Job("trace-sections", run, digests, check, ops=len(angles), sections=len(angles))


def certify_jobs(ctx: Context) -> list:
    verify_job = _cli_job(
        "verify",
        ctx,
        ["--seed", str(ctx.inputs["verify_seed"]), "verify"],
        lambda res, job: checks.check_verify_csv(res.out_dir / "verify.csv"),
        arclength=VERIFY_ARCLENGTH,
    )
    f = ctx.diffeos["default"]

    def tampered():
        return verify.gluing_check(GluedMetric(f, psi1_scale=TAMPER_PSI1))

    def check(res):
        return [] if not res.passed else [(0, "gluing check passed on a tampered metric")]

    control = Job("gluing-negative-control", tampered, lambda res: [repr(res)], check)
    return [verify_job, control]


def trajectory_jobs(ctx: Context) -> list:
    metric = ctx.metrics["default"]
    jobs = []
    for i, theta in enumerate(ctx.inputs["trace_angles"]):
        def check(res, job):
            problems = checks.check_trace_json(res.out_dir / "trace.json")
            chart, s, t, theta_f, vt, vth = checks.trajectory_final(res.out_dir / "trajectory.csv")
            state = geodesics.GeodesicState(chart, t, theta_f, vt, vth, s)
            job.arclength = s
            return problems + checks.check_speed(geodesics.speed_error(metric, state))

        jobs.append(_cli_job(f"trace-numeric-{i}", ctx, ["trace", repr(theta), "--numeric"], check))
    for i, (chart, t, theta, chi) in enumerate(ctx.inputs["nonradial_states"]):
        init = geodesics.unit_speed_state(metric, chart, t, theta, chi)

        def run(init=init):
            traj = geodesics.integrate(metric, init, s_max=NONRADIAL_S_MAX)
            return traj, traj.to_records_text()

        job = Job(f"integrate-{i}", run, lambda res: [checks.sha256_text(res[1])], None)

        def check(res, job=job):
            traj, text = res
            job.arclength = traj.final.s - traj.states[0].s
            problems = checks.check_speed(geodesics.speed_error(metric, traj.final))
            if not math.isclose(traj.final.s, NONRADIAL_S_MAX, abs_tol=1e-9):
                problems.append(f"integration stopped at s={traj.final.s}")
            if text.count("\n") < len(traj.states):
                problems.append("records text has fewer lines than states")
            return [(0, p) for p in problems]

        job.check = check
        jobs.append(job)
    jobs.append(
        _cli_job(
            "build-metric",
            ctx,
            ["build-metric"],
            lambda res, job: checks.check_metric_grid(res.out_dir / "metric_grid.csv", 49, 72),
        )
    )
    return jobs


JOB_LISTS = {"scan": scan_jobs, "certify": certify_jobs, "trajectories": trajectory_jobs}


def build_jobs(ctx: Context) -> list:
    return JOB_LISTS[ctx.workload](ctx)
