"""Compare the CLI outputs of two sectionlab source trees.

Usage: python3 tools/compare_outputs.py PARENT_SRC CHANGE_SRC

PARENT_SRC and CHANGE_SRC are the `src` directories of two checkouts.  The
script runs the same matrix of CLI runs on each, every run in a fresh
interpreter with that directory first on PYTHONPATH, two runs at a time.
It reports every difference in the output files, in stdout (lines starting
`wrote ` are left out, as they name the output directory) and in the exit
code, and exits 0 when all runs agree and 1 otherwise.

The matrix is four configs (the defaults, a 24-knot spline map, the
tabulated-psi2 config of tests/test_cli.py, and a rotation by 1.1 with a
3-knot psi2 table) times nine commands.  The verify runs dominate its time.

No command takes a non-radial step in the scalar integrator, so each config
also gets INTEGRATE_RUNS = 8 library runs: `integrate` to s = 20 from the
starts of `verify._sample_nonradial_states(metric, 8, np.random.default_rng(0))`,
all eight in one fresh interpreter.  A run that is not bit-identical reports
whether its final chart, state count and crossing count agree, and the
largest final difference in t, theta (mod 2 pi), vt, vtheta and s.  It
counts as a difference only if that structure differs or a deviation
exceeds INTEGRATE_TOL, the bound of test_ensemble_agrees_with_scalar.
"""

from __future__ import annotations

import argparse
import ast
import json
import math
import os
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
JOBS = 2
INTEGRATE_RUNS = 8
INTEGRATE_TOL = 1e-9

# argv: the run count, then the config path if any; prints, for each library
# run, [chart, states, crossings, t, theta, vt, vtheta, s] of its final state,
# as json, which keeps every float exactly
INTEGRATE_SCRIPT = """
import json, sys
import numpy as np
from sectionlab.config import load_config
from sectionlab.geodesics import integrate
from sectionlab.verify import _sample_nonradial_states

cfg = load_config(sys.argv[2] if len(sys.argv) > 2 else None)
metric = cfg.build_metric()
runs = []
for init in _sample_nonradial_states(metric, int(sys.argv[1]), np.random.default_rng(0)):
    traj = integrate(metric, init, ds=cfg.ds, s_max=20.0)
    f = traj.final
    runs.append([f.chart, len(traj.states), len(traj.crossings), f.t, f.theta, f.vt, f.vtheta, f.s])
print(json.dumps(runs))
"""


def _psi2_cfg() -> str:
    """PSI2_CFG of tests/test_cli.py, read without importing the test module."""
    tree = ast.parse((ROOT / "tests" / "test_cli.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) == "PSI2_CFG":
            return ast.literal_eval(node.value)
    raise LookupError("tests/test_cli.py defines no PSI2_CFG")


def _spline_cfg(n_knots: int = 24) -> str:
    knots = [2.0 * math.pi * i / n_knots for i in range(n_knots)]
    values = [x + 0.3 * math.sin(x) + 0.1 * math.sin(2.0 * x + 1.0) for x in knots]
    return (
        "[diffeo]\nkind = spline\n"
        f"spline_knots = {', '.join(map(repr, knots))}\n"
        f"spline_values = {', '.join(map(repr, values))}\n"
    )


ROTATION_PSI2_CFG = """
[diffeo]
kind = rotation
angle = 1.1

[metric]
psi2_thetas = 0.0, 2.0, 4.0
psi2_values = 1.0, 1.2, 0.9
"""

COMMANDS = (
    ["scan-periods"],
    ["trace", "0.0"],
    ["trace", "0.5", "--numeric"],
    ["trace", "3.2"],
    ["trace", "4.71238898", "--numeric"],
    ["--seed", "0", "verify"],
    ["--seed", "3", "verify"],
    ["verify", "--tamper-psi1", "1.01"],
    ["build-metric"],
)


def _configs() -> dict:
    """Config name -> INI text, or None for the built-in defaults."""
    return {
        "default": None,
        "spline24": _spline_cfg(),
        "psi2": _psi2_cfg(),
        "rotation-psi2": ROTATION_PSI2_CFG,
    }


def _env(src: Path) -> dict:
    return dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")]))


def _run(src: Path, config: Path | None, command: list, out: Path) -> dict:
    """Run one CLI command; its exit code, filtered stdout and output files."""
    argv = [sys.executable, "-m", "sectionlab.cli", "--out", str(out)]
    if config is not None:
        argv += ["--config", str(config)]
    proc = subprocess.run(argv + command, capture_output=True, text=True, env=_env(src), cwd=out.parent)
    stdout = [line for line in proc.stdout.splitlines() if not line.startswith("wrote ")]
    files = {p.name: p.read_bytes() for p in sorted(out.glob("*"))} if out.is_dir() else {}
    return {"exit": proc.returncode, "stdout": stdout, "files": files}


def _differences(a: dict, b: dict) -> list[str]:
    diffs = []
    if a["exit"] != b["exit"]:
        diffs.append(f"exit code {a['exit']} -> {b['exit']}")
    if a["stdout"] != b["stdout"]:
        diffs.append("stdout differs")
    for name in sorted(set(a["files"]) | set(b["files"])):
        if a["files"].get(name) != b["files"].get(name):
            diffs.append(f"{name} differs")
    return diffs


def _integrate_runs(src: Path, config: Path | None, cwd: Path) -> list | str:
    """The final records of the library runs, or the last line of their error."""
    argv = [sys.executable, "-c", INTEGRATE_SCRIPT, str(INTEGRATE_RUNS)]
    if config is not None:
        argv.append(str(config))
    proc = subprocess.run(argv, capture_output=True, text=True, env=_env(src), cwd=cwd)
    if proc.returncode != 0:
        return (proc.stderr.strip().splitlines() or [f"exit code {proc.returncode}"])[-1]
    return json.loads(proc.stdout)


def _record_differences(a: list, b: list) -> tuple[bool, str]:
    """Whether two final records differ beyond INTEGRATE_TOL, and how they compare."""
    structure = ", ".join(
        f"{name} {x} -> {y}" for name, x, y in zip(("chart", "states", "crossings"), a, b) if x != y
    )
    dev = [abs(x - y) for x, y in zip(a[3:], b[3:])]
    dev[1] = min(dev[1] % math.tau, math.tau - dev[1] % math.tau)
    worst = ", ".join(f"{name} {d:.1e}" for name, d in zip(("t", "theta", "vt", "vtheta", "s"), dev))
    text = f"structure {'differs: ' + structure if structure else 'agrees'}; largest |diff| {worst}"
    return bool(structure) or max(dev) > INTEGRATE_TOL, text


def _report_integrate(name: str, parent: list | str, change: list | str) -> int:
    """Print one config's library runs; the number that differ."""
    sides = (("parent", parent), ("change", change))
    errors = [f"\n      {side}: {r}" for side, r in sides if isinstance(r, str)]
    if errors:
        print(f"DIFF  {name}: integrate runs" + "".join(errors))
        return INTEGRATE_RUNS
    n_diff = 0
    for i, (a, b) in enumerate(zip(parent, change)):
        if a == b:
            print(f"same  {name}: integrate run {i}")
            continue
        differs, text = _record_differences(a, b)
        n_diff += differs
        print(f"{'DIFF' if differs else 'near'}  {name}: integrate run {i}\n      {text}")
    return n_diff


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent_src", type=Path)
    parser.add_argument("change_src", type=Path)
    args = parser.parse_args(argv)
    sources = {"parent": args.parent_src.resolve(), "change": args.change_src.resolve()}

    with tempfile.TemporaryDirectory(prefix="compare-outputs-") as tmp:
        tmp = Path(tmp)
        runs, configs = [], {}
        for name, text in _configs().items():
            config = None
            if text is not None:
                config = tmp / f"{name}.ini"
                config.write_text(text, encoding="utf-8")
            configs[name] = config
            for i, command in enumerate(COMMANDS):
                label = f"{name}: {' '.join(command)}"
                outs = {side: tmp / side / name / str(i) / "out" for side in sources}
                for out in outs.values():
                    out.parent.mkdir(parents=True)
                runs.append((label, config, command, outs))

        with ThreadPoolExecutor(max_workers=JOBS) as pool:
            results = [
                {side: pool.submit(_run, src, config, command, outs[side]) for side, src in sources.items()}
                for _, config, command, outs in runs
            ]
            library = {
                name: {side: pool.submit(_integrate_runs, src, config, tmp) for side, src in sources.items()}
                for name, config in configs.items()
            }
            n_diff = 0
            for (label, *_), futures in zip(runs, results):
                diffs = _differences(futures["parent"].result(), futures["change"].result())
                n_diff += bool(diffs)
                print(f"{'DIFF' if diffs else 'same'}  {label}" + "".join(f"\n      {d}" for d in diffs))
            n_lib_diff = sum(
                _report_integrate(name, futures["parent"].result(), futures["change"].result())
                for name, futures in library.items()
            )
    print(f"{len(runs)} CLI runs, {n_diff} with differences")
    print(f"{INTEGRATE_RUNS * len(library)} integrate runs, {n_lib_diff} with differences")
    return 1 if n_diff or n_lib_diff else 0


if __name__ == "__main__":
    raise SystemExit(main())
