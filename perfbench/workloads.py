"""Seeded inputs of the three workloads and their set-up.

The seed draws every input; sectionlab sees only the generated INI texts,
angles and states.  The draws vary where the work happens, never how much
of it there is, so runs with different seeds are comparable:

- the drawn bump always spans a half circle (only its position and
  amplitude move), so about 326 of 360 samples never close and each costs
  k_max transition-map calls, as on the default config;
- the drawn spline deviation is dominated by an odd harmonic, so none of its
  samples close early;
- a fixed tenth of the traced sections start where the drawn bump is flat
  and close after one round trip.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from pathlib import Path

from sectionlab import config as sl_config

TWO_PI = 2.0 * math.pi
WORKLOADS = ("scan", "certify", "trajectories")

SPLINE_KNOTS = 24
SPLINE_SAMPLES = 24
N_TRACES = 200
N_CLOSING_TRACES = 20
N_ORACLE_PICKS = 6
N_NUMERIC_TRACES = 4
N_NONRADIAL = 8
NONRADIAL_S_MAX = 20.0
# inside (lo, lo + FLAT) the bump's exp(4 - 1/q) underflows to exactly 0
FLAT = 0.002


def _fmt(values) -> str:
    return ", ".join(repr(float(v)) for v in values)


def _bump_ini(rng: random.Random) -> tuple[str, float, float]:
    amplitude = rng.uniform(0.15, 0.6)  # monotone up to about 0.74 on a half circle
    lo = rng.uniform(0.0, math.pi)
    hi = lo + math.pi
    text = (
        "[diffeo]\nkind = bump\n"
        f"amplitude = {amplitude!r}\nsupport_lo = {lo!r}\nsupport_hi = {hi!r}\n"
    )
    return text, lo, hi


def _spline_ini(rng: random.Random) -> str:
    knots = [TWO_PI * i / SPLINE_KNOTS for i in range(SPLINE_KNOTS)]
    # |deviation'| <= 0.25 + 0.2 + 0.15 < 1 keeps the lift monotone
    terms = [(1, rng.uniform(0.1, 0.25)), (2, rng.uniform(0.0, 0.1)), (3, rng.uniform(0.0, 0.05))]
    phases = [rng.uniform(0.0, TWO_PI) for _ in terms]
    values = [
        x + sum(a * math.sin(m * x + p) for (m, a), p in zip(terms, phases)) for x in knots
    ]
    return (
        "[diffeo]\nkind = spline\n"
        f"spline_knots = {_fmt(knots)}\nspline_values = {_fmt(values)}\n"
        f"\n[scan]\nn_samples = {SPLINE_SAMPLES}\n"
    )


def generate_inputs(workload: str, seed: int, default_metric=None) -> dict:
    """Every input of one run, as plain JSON-ready data.

    `default_metric` (the metric of the default config) is needed only for
    `trajectories`, whose non-radial states follow the all-or-none sampling
    rule: t in [0.3, 0.9] and |sin chi| >= 0.1 * max(1, phi).
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"sectionlab-bench:{workload}:{seed}")
    inputs: dict = {"workload": workload, "seed": seed, "configs": {"default": None}}
    if workload == "scan":
        bump, lo, hi = _bump_ini(rng)
        inputs["configs"]["bump"] = bump
        inputs["configs"]["spline"] = _spline_ini(rng)
        closing = [
            (lo + rng.uniform(0.0, FLAT)) if i % 2 == 0 else (hi - rng.uniform(0.0, FLAT)) % TWO_PI
            for i in range(N_CLOSING_TRACES)
        ]
        angles = [rng.uniform(0.0, TWO_PI) for _ in range(N_TRACES - N_CLOSING_TRACES)] + closing
        rng.shuffle(angles)
        inputs["trace_angles"] = angles
        inputs["trace_oracle_picks"] = sorted(rng.sample(range(N_TRACES), N_ORACLE_PICKS))
        inputs["scan_oracle_picks"] = {
            "default": sorted(rng.sample(range(360), N_ORACLE_PICKS)),
            "bump": sorted(rng.sample(range(360), N_ORACLE_PICKS)),
            "spline": sorted(rng.sample(range(SPLINE_SAMPLES), N_ORACLE_PICKS)),
        }
    elif workload == "certify":
        inputs["verify_seed"] = rng.randrange(2**31)
    else:
        inputs["trace_angles"] = [rng.uniform(0.0, TWO_PI) for _ in range(N_NUMERIC_TRACES)]
        states = []
        while len(states) < N_NONRADIAL:
            chart = rng.choice((1, 2))
            t = rng.uniform(0.3, 0.9)
            theta = rng.uniform(0.0, TWO_PI)
            chi = rng.uniform(0.0, TWO_PI)
            if abs(math.sin(chi)) < 0.1 * max(1.0, default_metric.warp(chart, t, theta)):
                continue
            states.append([chart, t, theta, chi])
        inputs["nonradial_states"] = states
    return inputs


@dataclass
class Context:
    """What set-up leaves for the jobs: config paths, configs, maps and metrics."""

    workload: str
    inputs: dict
    workdir: Path
    config_paths: dict = field(default_factory=dict)  # name -> path, or None for defaults
    configs: dict = field(default_factory=dict)
    diffeos: dict = field(default_factory=dict)
    metrics: dict = field(default_factory=dict)


def prepare(inputs: dict, workdir: Path) -> Context:
    """Write and load every config through load_config; build maps and metrics."""
    ctx = Context(inputs["workload"], inputs, Path(workdir))
    cfg_dir = ctx.workdir / "configs"
    cfg_dir.mkdir(parents=True, exist_ok=True)
    for name, text in inputs["configs"].items():
        path = None
        if text is not None:
            path = cfg_dir / f"{name}.ini"
            path.write_text(text, encoding="utf-8")
        cfg = sl_config.load_config(None if path is None else str(path))
        ctx.config_paths[name] = path
        ctx.configs[name] = cfg
        ctx.diffeos[name] = cfg.build_diffeo()
        if ctx.workload != "scan":
            ctx.metrics[name] = cfg.build_metric()
    return ctx
