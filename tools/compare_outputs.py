"""Compare the CLI outputs of two sectionlab source trees.

Usage: python3 tools/compare_outputs.py PARENT_SRC CHANGE_SRC

PARENT_SRC and CHANGE_SRC are the `src` directories of two checkouts.  The
script runs the same matrix of CLI runs on each, every run in a fresh
interpreter with that directory first on PYTHONPATH, two runs at a time.
It reports every difference in the output files, in stdout (lines starting
`wrote ` are left out, as they name the output directory) and in the exit
code, and exits 0 when all runs agree and 1 otherwise.  A run that takes
longer than RUN_TIMEOUT seconds is stopped and reported as a difference,
whichever tree it ran on.

The matrix is five configs (the defaults, a 24-knot spline map, the
tabulated-psi2 config of tests/test_cli.py, a rotation by 1.1 with a 3-knot
psi2 table, and the default map with the zones t0 = 0.1, t1 = 0.9) times
nine commands.  The verify runs dominate its time.

No command takes a non-radial step in the scalar integrator, so each config
also gets INTEGRATE_RUNS = 40 library runs: `integrate` to s = 20 from the
starts of `verify._sample_nonradial_states(metric, 40, np.random.default_rng(0))`,
all forty in one fresh interpreter.  A run that is not bit-identical reports
whether its final chart, state count and crossing count agree, and each
tree's final error: the largest difference in t, theta (mod 2 pi), vt,
vtheta and s from a reference run of the parent tree at ds / 4 (a 256x
tighter step tolerance).  A stepper change moves the state count, so the
run counts as a difference only if its final chart or crossing count
differs from the parent's.  One run's error moves by chance with its step
sequence, so the accuracy rule is applied to each config's median final
error over its runs: the config counts as a difference if the change's
median exceeds max(2 x the parent's, INTEGRATE_TOL), INTEGRATE_TOL being
the bound of test_ensemble_agrees_with_scalar.  It also prints each tree's
states summed over the config's runs, so that a change of rounding shows
whether its step counts moved by noise alone.

`verify` reports the ensemble only through a drift summary, so each config
also gets one ensemble run: `integrate_ensemble` on the ENSEMBLE_MEMBERS =
100 seed-0 states of `verify`, to the config's s_max, as `verify` runs it.
It is `same` only when the final states, crossing counts, sign-flip counts
and least |vtheta| of every member are bit-identical.  Otherwise it also
prints whether every member's crossing count and sign-flip count agree, and
each tree's worst final speed_error, so that a change of rounding shows
whether it kept the accuracy.

The CLI runs trace four sections per config, so each config also gets
one tracer run: `trace_section` and `section_verdict` on the config's
n_samples scan angles (those of `classify_scan`) and TRACE_SEEDED = 40
angles drawn from np.random.default_rng(0) on [-2 pi, 4 pi), at the
default max_legs and the config's k_max and tol, all in one fresh
interpreter.  It is `same` only when, for every angle, repr((trace,
verdict)) and json.dumps(trace.to_json_dict(), sort_keys=True) are the
parent's byte for byte (compared by their sha256).

Each config also gets one inverse run: the config's map inverts
INVERSE_TARGETS = 4096 equispaced targets on [0, 2 pi) and, for a bump,
each support endpoint and the two floats on either side of it, one float
solve at a time and then all of them as one array, in one fresh
interpreter.  The same run reads F' and F'' on those targets by every
route: lift_derivative and derivative_pair on each float and on the array,
and lift_pair on each float.  For a config with a psi2 table it does the
same for the metric's plateau lift P.  It is `same` only when every
result's repr (or its error) is the parent's byte for byte.

The CLI matrix scans fixed maps only, so one more run per tree scans drawn
ones: `classify_scan` at its defaults on SCAN_BUMPS = 20 bumps (amplitude
in [0.15, 0.6], support a half circle at a position in [0, pi)) and
SCAN_SPLINES = 5 splines through 24 equispaced knots (the deviation
a1 sin(x + p1) + a2 sin(2x + p2) + a3 sin(3x + p3), a1 in [0.1, 0.25], a2
in [0, 0.1], a3 in [0, 0.05]), all drawn from np.random.default_rng(0), as
the benchmark's scan workload draws its maps.  It is `same` only when every
map's to_csv_text() and summary_text() are the parent's byte for byte
(compared by their sha256).

Last, it prints each tree's code lines per module of src/sectionlab and
their total: the lines that hold a token other than a comment, docstrings
(found with ast) left out.  The count does not change the exit status.
"""

from __future__ import annotations

import argparse
import ast
import io
import json
import math
import os
import statistics
import subprocess
import sys
import tempfile
import tokenize
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
JOBS = 2
INTEGRATE_RUNS = 40
ENSEMBLE_MEMBERS = 100
INTEGRATE_TOL = 1e-9
# seconds a run may take before it counts as a hang
RUN_TIMEOUT = 300

# the reference runs divide the config's ds by REFERENCE_DS_DIVISOR
REFERENCE_DS_DIVISOR = 4.0

# argv: the run count, the divisor of the config's ds, then the config path if
# any; prints, for each library run, [chart, states, crossings, t, theta, vt,
# vtheta, s] of its final state, as json, which keeps every float exactly
INTEGRATE_SCRIPT = """
import json, sys
import numpy as np
from sectionlab.config import load_config
from sectionlab.geodesics import integrate
from sectionlab.verify import _sample_nonradial_states

cfg = load_config(sys.argv[3] if len(sys.argv) > 3 else None)
metric = cfg.build_metric()
runs = []
for init in _sample_nonradial_states(metric, int(sys.argv[1]), np.random.default_rng(0)):
    traj = integrate(metric, init, ds=cfg.ds / float(sys.argv[2]), s_max=20.0)
    f = traj.final
    runs.append([f.chart, len(traj.states), len(traj.crossings), f.t, f.theta, f.vt, f.vtheta, f.s])
print(json.dumps(runs))
"""

# argv: the member count, then the config path if any; prints the final
# states [chart, t, theta, vt, vtheta, s], the crossing counts, the sign-flip
# counts and the least |vtheta| of the verify ensemble, and its worst final
# speed_error, as json
ENSEMBLE_SCRIPT = """
import json, sys
import numpy as np
from sectionlab.config import load_config
from sectionlab.geodesics import integrate_ensemble, speed_error
from sectionlab.verify import _sample_nonradial_states

cfg = load_config(sys.argv[2] if len(sys.argv) > 2 else None)
metric = cfg.build_metric()
states = _sample_nonradial_states(metric, int(sys.argv[1]), np.random.default_rng(0))
r = integrate_ensemble(metric, states, ds=cfg.ds, s_max=cfg.s_max)
finals = [[f.chart, f.t, f.theta, f.vt, f.vtheta, f.s] for f in r.final_states]
drift = max(speed_error(metric, f) for f in r.final_states)
print(json.dumps([finals, r.crossings.tolist(), r.sign_flips.tolist(), r.min_abs_vtheta.tolist(), drift]))
"""
ENSEMBLE_FIELDS = ("final states", "crossings", "sign_flips", "min_abs_vtheta")

# argv: the number of seeded angles, then the config path if any; prints, for
# each traced angle, the sha256 of repr((trace, verdict)) and of the trace's
# json, as json
TRACE_SCRIPT = """
import hashlib, json, math, sys
import numpy as np
from sectionlab.config import load_config
from sectionlab.geodesics import section_verdict, trace_section

cfg = load_config(sys.argv[2] if len(sys.argv) > 2 else None)
f = cfg.build_diffeo()
scan = np.arange(cfg.n_samples) * (2.0 * math.pi / cfg.n_samples)
seeded = np.random.default_rng(0).uniform(-2.0 * math.pi, 4.0 * math.pi, int(sys.argv[1]))
runs = []
for theta in [*scan.tolist(), *seeded.tolist()]:
    trace = trace_section(f, theta, k_max=cfg.k_max, tol=cfg.tol)
    texts = (repr((trace, section_verdict(trace))), json.dumps(trace.to_json_dict(), sort_keys=True))
    runs.append([hashlib.sha256(text.encode()).hexdigest() for text in texts])
print(json.dumps(runs))
"""
TRACE_SEEDED = 40
TRACE_FIELDS = ("repr((trace, verdict))", "trace json")

# argv: the numbers of drawn bumps and drawn splines; prints, per drawn map,
# the sha256 of its scan's csv text and of its summary, as json
SCAN_SCRIPT = """
import hashlib, json, math, sys
import numpy as np
from sectionlab import BumpDiffeo, SplineDiffeo, TransitionMap, classify_scan

rng = np.random.default_rng(0)
maps = []
for _ in range(int(sys.argv[1])):
    amplitude, lo = rng.uniform((0.15, 0.0), (0.6, math.pi)).tolist()
    maps.append(BumpDiffeo(amplitude, lo, lo + math.pi))
knots = np.arange(24) * (2.0 * math.pi / 24)
for _ in range(int(sys.argv[2])):
    a = rng.uniform((0.1, 0.0, 0.0), (0.25, 0.1, 0.05))
    p = rng.uniform(0.0, 2.0 * math.pi, 3)
    maps.append(SplineDiffeo(knots, knots + sum(a[m] * np.sin((m + 1) * knots + p[m]) for m in range(3))))
runs = []
for f in maps:
    report = classify_scan(TransitionMap(f))
    runs.append([hashlib.sha256(text.encode()).hexdigest() for text in (report.to_csv_text(), report.summary_text())])
print(json.dumps(runs))
"""
SCAN_BUMPS = 20
SCAN_SPLINES = 5
SCAN_FIELDS = ("to_csv_text()", "summary_text()")

# argv: the number of equispaced targets, then the config path if any;
# prints, per evaluator of the map (and of the metric's plateau lift when
# psi2 is a table), the repr of its result (or its error) on each float
# target and then on the array of all of them (lift_pair on floats only),
# as json
INVERSE_SCRIPT = """
import json, math, sys
import numpy as np
from sectionlab.config import load_config

cfg = load_config(sys.argv[2] if len(sys.argv) > 2 else None)
f = cfg.build_diffeo()
n = int(sys.argv[1])
targets = [2.0 * math.pi * i / n for i in range(n)]
for edge in (getattr(f, "support_lo", None), getattr(f, "support_hi", None)):
    if edge is not None:
        below, above = [edge], [edge]
        for _ in range(2):
            below.append(math.nextafter(below[-1], -math.inf))
            above.append(math.nextafter(above[-1], math.inf))
        targets += below[::-1] + above[1:]

def plain(x):
    if isinstance(x, tuple):
        return tuple(map(plain, x))
    return x.tolist() if isinstance(x, np.ndarray) else x

def run(call, y):
    try:
        return repr(plain(call(y)))
    except Exception as exc:
        return f"{type(exc).__name__}: {exc}"

methods = ("inverse", "lift_derivative", "derivative_pair", "lift_pair")
evaluators = {"map": (f, methods)}
if cfg.psi2_thetas:
    evaluators["plateau lift"] = (cfg.build_metric()._plateau_lift, methods)
runs = {}
for name, (g, methods) in evaluators.items():
    for method in methods:
        call = getattr(g, method)
        runs[f"{name} {method}"] = [run(call, y) for y in targets]
        if method != "lift_pair":
            runs[f"{name} {method}"].append(run(call, np.array(targets)))
print(json.dumps(runs))
"""
INVERSE_TARGETS = 4096

# token types that hold no code
NON_CODE = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER
}


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

ZONES_CFG = """
[metric]
t0 = 0.1
t1 = 0.9
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
        "zones": ZONES_CFG,
    }


def _env(src: Path) -> dict:
    return dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")]))


def _run(src: Path, config: Path | None, command: list, out: Path) -> dict:
    """Run one CLI command; its exit code, filtered stdout and output files."""
    argv = [sys.executable, "-m", "sectionlab.cli", "--out", str(out)]
    if config is not None:
        argv += ["--config", str(config)]
    try:
        proc = subprocess.run(
            argv + command, capture_output=True, text=True, env=_env(src), cwd=out.parent, timeout=RUN_TIMEOUT
        )
    except subprocess.TimeoutExpired:
        return {"exit": None, "stdout": [], "files": {}}
    stdout = [line for line in proc.stdout.splitlines() if not line.startswith("wrote ")]
    files = {p.name: p.read_bytes() for p in sorted(out.glob("*"))} if out.is_dir() else {}
    return {"exit": proc.returncode, "stdout": stdout, "files": files}


def _differences(a: dict, b: dict) -> list[str]:
    hung = [side for side, r in (("parent", a), ("change", b)) if r["exit"] is None]
    if hung:
        return [f"{' and '.join(hung)} timed out after {RUN_TIMEOUT} s"]
    diffs = []
    if a["exit"] != b["exit"]:
        diffs.append(f"exit code {a['exit']} -> {b['exit']}")
    if a["stdout"] != b["stdout"]:
        diffs.append("stdout differs")
    for name in sorted(set(a["files"]) | set(b["files"])):
        if a["files"].get(name) != b["files"].get(name):
            diffs.append(f"{name} differs")
    return diffs


def _library_runs(src: Path, config: Path | None, cwd: Path, script: str, *args: str) -> list | str:
    """The json printed by a library script run with args, or the last line of its error."""
    argv = [sys.executable, "-c", script, *args]
    if config is not None:
        argv.append(str(config))
    try:
        proc = subprocess.run(argv, capture_output=True, text=True, env=_env(src), cwd=cwd, timeout=RUN_TIMEOUT)
    except subprocess.TimeoutExpired:
        return f"timed out after {RUN_TIMEOUT} s"
    if proc.returncode != 0:
        return (proc.stderr.strip().splitlines() or [f"exit code {proc.returncode}"])[-1]
    return json.loads(proc.stdout)


def _integrate_runs(src: Path, config: Path | None, cwd: Path, divisor: float = 1.0) -> list | str:
    """The final records of the integrate runs at ds / divisor, or the last line of their error."""
    return _library_runs(src, config, cwd, INTEGRATE_SCRIPT, str(INTEGRATE_RUNS), repr(divisor))


def _ensemble_run(src: Path, config: Path | None, cwd: Path) -> list | str:
    """The monitors of the verify ensemble, or the last line of its error."""
    return _library_runs(src, config, cwd, ENSEMBLE_SCRIPT, str(ENSEMBLE_MEMBERS))


def _trace_run(src: Path, config: Path | None, cwd: Path) -> list | str:
    """The digests of the tracer run, or the last line of its error."""
    return _library_runs(src, config, cwd, TRACE_SCRIPT, str(TRACE_SEEDED))


def _scan_run(src: Path, cwd: Path) -> list | str:
    """The digests of the drawn-map scan run, or the last line of its error."""
    return _library_runs(src, None, cwd, SCAN_SCRIPT, str(SCAN_BUMPS), str(SCAN_SPLINES))


def _inverse_run(src: Path, config: Path | None, cwd: Path) -> list | str:
    """The reprs of the inverse run, or the last line of its error."""
    return _library_runs(src, config, cwd, INVERSE_SCRIPT, str(INVERSE_TARGETS))


def _final_error(run: list, ref: list) -> float:
    """The largest final difference of a run from its reference, theta taken mod 2 pi."""
    dev = [abs(x - y) for x, y in zip(run[3:], ref[3:])]
    dev[1] = min(dev[1] % math.tau, math.tau - dev[1] % math.tau)
    return max(dev)


def _record_differences(a: list, b: list, ref: list) -> tuple[bool, str]:
    """Whether the change's record b differs from the parent's record a, and how.

    Only the final chart and crossing count are structure; the state count
    is reported but follows the stepper, and each record's final error
    against the reference record ref is reported but judged only in the
    config's median (`_report_integrate`).
    """
    changed = [(name, x, y) for name, x, y in zip(("chart", "states", "crossings"), a, b) if x != y]
    structure = ", ".join(f"{name} {x} -> {y}" for name, x, y in changed)
    err_a, err_b = _final_error(a, ref), _final_error(b, ref)
    text = (
        f"{structure or 'same final chart, state count and crossing count'}; "
        f"final error against the reference {err_a:.1e} -> {err_b:.1e}"
    )
    return any(name != "states" for name, *_ in changed), text


def _report_integrate(name: str, parent: list | str, change: list | str, ref: list | str) -> int:
    """Print one config's library runs; the number that differ, plus 1 if the
    change's median final error exceeds max(2 x the parent's, INTEGRATE_TOL)."""
    sides = (("parent", parent), ("change", change), ("reference", ref))
    errors = [f"\n      {side}: {r}" for side, r in sides if isinstance(r, str)]
    if errors:
        print(f"DIFF  {name}: integrate runs" + "".join(errors))
        return INTEGRATE_RUNS
    n_diff = 0
    for i, (a, b, r) in enumerate(zip(parent, change, ref)):
        if a == b:
            print(f"same  {name}: integrate run {i}")
            continue
        differs, text = _record_differences(a, b, r)
        n_diff += differs
        print(f"{'DIFF' if differs else 'near'}  {name}: integrate run {i}\n      {text}")
    err_a, err_b = (statistics.median(map(_final_error, runs, ref)) for runs in (parent, change))
    worse = err_b > max(2.0 * err_a, INTEGRATE_TOL)
    text = f"median final error against the reference {err_a:.1e} -> {err_b:.1e}"
    print(f"{'DIFF' if worse else 'same'}  {name}: {text}")
    states = (sum(run[1] for run in runs) for runs in (parent, change))
    print(f"      {name}: integrate states summed over the runs {' -> '.join(map(str, states))}")
    return n_diff + worse


def _report_ensemble(name: str, parent: list | str, change: list | str) -> int:
    """Print one config's ensemble run; 1 if it differs, else 0."""
    errors = [f"\n      {side}: {r}" for side, r in (("parent", parent), ("change", change)) if isinstance(r, str)]
    if errors:
        print(f"DIFF  {name}: ensemble run" + "".join(errors))
        return 1
    diffs = [
        f"{field}: {sum(x != y for x, y in zip(a, b))} of {len(a)} members differ"
        for field, a, b in zip(ENSEMBLE_FIELDS, parent, change)
        if a != b
    ]
    if diffs:
        counts = "identical" if parent[1:3] == change[1:3] else "NOT identical"
        diffs += [
            f"crossing and sign-flip counts of every member: {counts}",
            f"worst final speed_error {parent[4]:.2e} -> {change[4]:.2e}",
        ]
    print(f"{'DIFF' if diffs else 'same'}  {name}: ensemble run" + "".join(f"\n      {d}" for d in diffs))
    return 1 if diffs else 0


def _report_digests(label: str, fields: tuple, items: str, parent: list | str, change: list | str) -> int:
    """Print one run of per-item digests (a tracer or a scan run); 1 if it differs, else 0."""
    errors = [f"\n      {side}: {r}" for side, r in (("parent", parent), ("change", change)) if isinstance(r, str)]
    if errors:
        print(f"DIFF  {label}" + "".join(errors))
        return 1
    counts = [sum(a[i] != b[i] for a, b in zip(parent, change)) for i in range(len(fields))]
    diffs = [f"{field}: {n} of {len(parent)} {items} differ" for field, n in zip(fields, counts) if n]
    if len(parent) != len(change):
        diffs.append(f"{items} {len(parent)} -> {len(change)}")
    print(f"{'DIFF' if diffs else 'same'}  {label} of {len(change)} {items}" + "".join(f"\n      {d}" for d in diffs))
    return 1 if diffs else 0


def _report_inverse(name: str, parent: dict | str, change: dict | str) -> int:
    """Print one config's inverse run; 1 if it differs, else 0."""
    errors = [f"\n      {side}: {r}" for side, r in (("parent", parent), ("change", change)) if isinstance(r, str)]
    if errors:
        print(f"DIFF  {name}: inverse run" + "".join(errors))
        return 1
    diffs = []
    for key in sorted(parent.keys() | change.keys()):
        a, b = parent.get(key, []), change.get(key, [])
        n = sum(x != y for x, y in zip(a, b)) + abs(len(a) - len(b))
        if n:
            diffs.append(f"{key}: {n} of {max(len(a), len(b))} results differ")
    label = f"{'DIFF' if diffs else 'same'}  {name}: inverse run of {len(change['map lift_pair'])} targets"
    print(label + f" ({', '.join(change)})" + "".join(f"\n      {d}" for d in diffs))
    return 1 if diffs else 0


def _code_lines(path: Path) -> int:
    """Lines of a module that hold code: docstrings, comments and blank lines left out."""
    text = path.read_text(encoding="utf-8")
    docstrings = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            if ast.get_docstring(node, clean=False) is not None:
                docstrings.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in NON_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstrings)


def _report_code_lines(sources: dict) -> None:
    """Print each tree's code lines per module of sectionlab, and their total."""
    counts = {
        side: {p.name: _code_lines(p) for p in (src / "sectionlab").glob("*.py")}
        for side, src in sources.items()
    }
    parent, change = counts["parent"], counts["change"]
    print("code lines of sectionlab (docstrings, comments and blank lines left out):")
    for name in sorted(parent.keys() | change.keys()):
        print(f"      {name}: {parent.get(name, 0)} -> {change.get(name, 0)}")
    print(f"      total: {sum(parent.values())} -> {sum(change.values())}")


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
                name: {
                    "parent": pool.submit(_integrate_runs, sources["parent"], config, tmp),
                    "change": pool.submit(_integrate_runs, sources["change"], config, tmp),
                    "reference": pool.submit(
                        _integrate_runs, sources["parent"], config, tmp, REFERENCE_DS_DIVISOR
                    ),
                }
                for name, config in configs.items()
            }
            ensemble = {
                name: {side: pool.submit(_ensemble_run, src, config, tmp) for side, src in sources.items()}
                for name, config in configs.items()
            }
            tracer = {
                name: {side: pool.submit(_trace_run, src, config, tmp) for side, src in sources.items()}
                for name, config in configs.items()
            }
            inverse = {
                name: {side: pool.submit(_inverse_run, src, config, tmp) for side, src in sources.items()}
                for name, config in configs.items()
            }
            scan = {side: pool.submit(_scan_run, src, tmp) for side, src in sources.items()}
            n_diff = 0
            for (label, *_), futures in zip(runs, results):
                diffs = _differences(futures["parent"].result(), futures["change"].result())
                n_diff += bool(diffs)
                print(f"{'DIFF' if diffs else 'same'}  {label}" + "".join(f"\n      {d}" for d in diffs))
            n_lib_diff = sum(
                _report_integrate(name, *(f.result() for f in futures.values()))
                for name, futures in library.items()
            )
            n_ens_diff = sum(
                _report_ensemble(name, *(f.result() for f in futures.values()))
                for name, futures in ensemble.items()
            )
            n_trace_diff = sum(
                _report_digests(f"{name}: tracer run", TRACE_FIELDS, "sections", *(f.result() for f in fs.values()))
                for name, fs in tracer.items()
            )
            n_inv_diff = sum(
                _report_inverse(name, *(f.result() for f in futures.values())) for name, futures in inverse.items()
            )
            n_scan_diff = _report_digests(
                "drawn-map scan run", SCAN_FIELDS, "maps", *(f.result() for f in scan.values())
            )
    _report_code_lines(sources)
    print(f"{len(runs)} CLI runs, {n_diff} with differences")
    n_lib = INTEGRATE_RUNS * len(library)
    print(f"{n_lib} integrate runs and {len(library)} medians, {n_lib_diff} with differences")
    print(f"{len(ensemble)} ensemble runs, {n_ens_diff} with differences")
    print(f"{len(tracer)} tracer runs, {n_trace_diff} with differences")
    print(f"{len(inverse)} inverse runs, {n_inv_diff} with differences")
    print(f"1 drawn-map scan run, {n_scan_diff} with differences")
    return 1 if n_diff or n_lib_diff or n_ens_diff or n_trace_diff or n_inv_diff or n_scan_diff else 0


if __name__ == "__main__":
    raise SystemExit(main())
