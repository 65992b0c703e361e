"""End-to-end tests of the command-line interface."""

import ast
import json
import math
import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import pytest

import sectionlab
from sectionlab import Config, ConfigError, load_config, loads_config
from sectionlab.cli import main

IDENTITY_CFG = """
[diffeo]
kind = identity

[scan]
n_samples = 36
k_max = 8
"""

# spline diffeo with a tabulated chart-2 plateau profile
PSI2_CFG = """
[diffeo]
kind = spline
spline_knots = 0.0, 0.8, 1.6, 2.4, 3.2, 4.0, 4.8, 5.6
spline_values = 0.0, 0.9, 1.75, 2.45, 3.1, 3.95, 4.85, 5.65

[metric]
psi2_thetas = 0.0, 1.0, 2.0, 3.0, 4.0, 5.0
psi2_values = 1.0, 1.15, 1.1, 0.95, 0.85, 0.9
"""

# every key of every section away from its default
ALL_KEYS_CFG = """
[diffeo]
kind = spline
amplitude = 0.25
support_lo = 0.5
support_hi = 5.0
angle = 0.125
spline_knots = 0.0, 1.0, 2.0, 3.0, 4.0, 5.0
spline_values = 0.0, 1.1, 2.0, 3.0, 3.9, 5.0

[metric]
t0 = 0.2
t1 = 0.7
psi2_thetas = 0.0, 2.0, 4.0
psi2_values = 1.0, 1.2, 0.9

[integrator]
ds = 0.002
s_max = 3.0

[scan]
n_samples = 12
k_max = 8
tol = 1e-08

[output]
directory = results
"""

BUMP_FAST_CFG = """
[diffeo]
kind = bump
amplitude = 0.3

[integrator]
s_max = 2.0

[scan]
n_samples = 36
k_max = 16
"""


def write(tmp_path, text, name="cfg.ini"):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return str(p)


# --- scan-periods -----------------------------------------------------------------


def test_scan_periods_identity(tmp_path, capsys):
    cfg = write(tmp_path, IDENTITY_CFG)
    rc = main(["--config", cfg, "--out", str(tmp_path / "o"), "scan-periods"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "period 1  : 36" in out
    csv_text = (tmp_path / "o" / "periods.csv").read_text()
    assert "theta_radians,period_k,fragile_flag" in csv_text
    assert csv_text.startswith("# diffeo.kind = identity")


def test_scan_periods_bump_two_classes(tmp_path, capsys):
    cfg = write(tmp_path, BUMP_FAST_CFG)
    rc = main(["--config", cfg, "--out", str(tmp_path / "o"), "scan-periods"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "period 1" in out and "none(<=16)" in out


def test_scan_periods_deterministic(tmp_path):
    cfg = write(tmp_path, BUMP_FAST_CFG)
    main(["--config", cfg, "--out", str(tmp_path / "a"), "scan-periods"])
    main(["--config", cfg, "--out", str(tmp_path / "b"), "scan-periods"])
    a = (tmp_path / "a" / "periods.csv").read_bytes()
    b = (tmp_path / "b" / "periods.csv").read_bytes()
    assert a == b


# --- trace --------------------------------------------------------------------------


def test_trace_identity_closed(tmp_path, capsys):
    cfg = write(tmp_path, IDENTITY_CFG)
    rc = main(["--config", cfg, "--out", str(tmp_path / "o"), "trace", "0.0"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "closed, period 1, length 4" in out
    doc = json.loads((tmp_path / "o" / "trace.json").read_text())
    assert doc["verdict"]["closed"] is True
    assert doc["verdict"]["length"] == 4.0
    assert doc["verdict"]["injective"] is True
    assert [leg["kind"] for leg in doc["legs"]] == ["radius", "diameter", "diameter"]


def test_trace_bump_none_start(tmp_path, capsys):
    cfg = write(tmp_path, BUMP_FAST_CFG)
    theta = repr(1.5 * math.pi)
    rc = main(["--config", cfg, "--out", str(tmp_path / "o"), "trace", theta])
    assert rc == 0
    out = capsys.readouterr().out
    assert "not closed" in out and "witness" in out
    doc = json.loads((tmp_path / "o" / "trace.json").read_text())
    assert doc["verdict"]["closed"] is False
    assert doc["verdict"]["length"] is None
    assert doc["verdict"]["injective"] is False
    assert doc["verdict"]["witness"]["separation"] > 0


def test_trace_two_legs_exit_2(tmp_path, capsys):
    # two legs trace no return, closing start or not
    cfg = write(tmp_path, BUMP_FAST_CFG)
    for theta in ("0.0", repr(1.5 * math.pi)):
        rc = main(["--config", cfg, "--out", str(tmp_path / "o"), "trace", theta, "--max-legs", "2"])
        assert rc == 2
        assert "max_legs" in capsys.readouterr().err
    assert not (tmp_path / "o" / "trace.json").exists()


def test_trace_numeric_cross_check(tmp_path, capsys):
    cfg = write(tmp_path, BUMP_FAST_CFG)
    rc = main(
        ["--config", cfg, "--out", str(tmp_path / "o"), "trace", "0.5", "--numeric"]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "numeric cross-check" in out
    doc = json.loads((tmp_path / "o" / "trace.json").read_text())
    assert doc["numeric_crossing_deviation"] < 1e-6
    records = (tmp_path / "o" / "trajectory.csv").read_text().splitlines()
    data = [r for r in records if not r.startswith("#")]
    assert data[0] == "s,chart,t,theta,vt,vtheta"
    assert data[1].startswith("0.0,1,0.0,0.5,1.0,0.0")


@pytest.mark.parametrize(
    "argv",
    [
        ["trace", "nan"],
        ["trace", "inf"],
        ["trace", "1.0", "--max-legs", "1"],
        ["build-metric", "--n-t", "-1"],
        ["trace", "1e300"],
        ["build-metric", "--n-t", "0"],
        ["build-metric", "--n-theta", "0"],
        ["verify", "--tamper-psi1=inf"],
        ["verify", "--tamper-psi1=-inf"],
    ],
)
def test_bad_input_exit_2(tmp_path, capsys, argv):
    out = tmp_path / "o"
    assert main(["--out", str(out)] + argv) == 2
    assert "error" in capsys.readouterr().err
    assert not (out / "trace.json").exists()


def test_directory_on_two_lines_exit_2(tmp_path, capsys):
    # an INI continuation line puts a line break into the value
    cfg = write(tmp_path, "[output]\ndirectory = a\n  b\n")
    out = tmp_path / "o"
    assert main(["--config", cfg, "--out", str(out), "scan-periods"]) == 2
    assert "output.directory: must be one line, got 'a\\nb'" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("via", ["--out", "[output] directory"])
def test_unwritable_output_directory_exit_2(tmp_path, capsys, via):
    # a directory below a regular file cannot be made: an input error, no traceback
    (tmp_path / "afile").write_text("not a directory\n")
    target = tmp_path / "afile" / "sub"
    if via == "--out":
        argv = ["--out", str(target), "scan-periods"]
    else:
        argv = ["--config", write(tmp_path, f"[output]\ndirectory = {target}\n"), "scan-periods"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(target) in err


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["verify", "--tamper-psi1", "0"], "--tamper-psi1"),
        (["verify", "--tamper-psi1=nan"], "--tamper-psi1"),
        (["verify", "--tamper-psi1=-1"], "--tamper-psi1"),
        (["--seed", "-1", "verify"], "--seed"),
    ],
)
def test_bad_flag_names_the_flag(tmp_path, capsys, argv, flag):
    out = tmp_path / "o"
    assert main(["--out", str(out)] + argv) == 2
    err = capsys.readouterr().err
    assert flag in err and "config" not in err
    assert not (out / "verify.csv").exists()


def test_negative_seed_legal_outside_verify(tmp_path):
    cfg = write(tmp_path, IDENTITY_CFG)
    for argv in (["scan-periods"], ["trace", "0.0"]):
        assert main(["--config", cfg, "--seed", "-1", "--out", str(tmp_path / "o")] + argv) == 0


# --- verify ---------------------------------------------------------------------------


def test_verify_default_passes(tmp_path, capsys):
    cfg = write(tmp_path, BUMP_FAST_CFG)
    rc = main(["--config", cfg, "--out", str(tmp_path / "o"), "verify"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" not in out
    csv_text = (tmp_path / "o" / "verify.csv").read_text()
    assert "gluing_compatibility,1," in csv_text


def test_verify_tampered_fails_exit_4(tmp_path, capsys):
    cfg = write(tmp_path, BUMP_FAST_CFG)
    rc = main(
        ["--config", cfg, "--out", str(tmp_path / "o"), "verify", "--tamper-psi1", "1.01"]
    )
    assert rc == 4
    out = capsys.readouterr().out
    assert "FAIL" in out
    csv_text = (tmp_path / "o" / "verify.csv").read_text()
    assert "gluing_compatibility,0," in csv_text
    # the tampered seam is no isometry: no sign flips, but the speed drifts
    assert "all_or_none,0,0.0" in csv_text


def test_verify_overflowing_psi1_exit_4(tmp_path, capsys):
    # the ensemble stops at the first non-finite radius instead of crashing
    cfg = write(tmp_path, BUMP_FAST_CFG)
    rc = main(["--config", cfg, "--out", str(tmp_path / "o"), "verify", "--tamper-psi1=1e308"])
    assert rc == 4
    out = capsys.readouterr().out
    assert "FAIL  all_or_none" in out and "non-finite radius" in out


def test_verify_flat_config_passes(tmp_path, capsys):
    flat = """
[diffeo]
kind = bump
amplitude = 0.0

[integrator]
s_max = 2.0
"""
    cfg = write(tmp_path, flat)
    rc = main(["--config", cfg, "--out", str(tmp_path / "o"), "verify"])
    assert rc == 0


# --- build-metric -----------------------------------------------------------------------


def test_build_metric_grid(tmp_path, capsys):
    cfg = write(tmp_path, IDENTITY_CFG)
    rc = main(
        [
            "--config",
            cfg,
            "--out",
            str(tmp_path / "o"),
            "build-metric",
            "--n-t",
            "5",
            "--n-theta",
            "8",
        ]
    )
    assert rc == 0
    lines = (tmp_path / "o" / "metric_grid.csv").read_text().strip().splitlines()
    header_rows = [l for l in lines if l.startswith("#")]
    data_rows = [l for l in lines if not l.startswith("#")]
    assert data_rows[0] == "chart,t,theta,phi,phi_t,phi_theta"
    assert len(data_rows) == 1 + 2 * 5 * 8
    assert any("integrator.ds" in l for l in header_rows)


# --- common-period ------------------------------------------------------------------------


def test_common_period_integers(capsys):
    assert main(["common-period", "2", "1", "3", "1"]) == 0
    assert capsys.readouterr().out.strip() == "L / (2*pi) = 6"


def test_common_period_unit(capsys):
    assert main(["common-period", "1", "1", "1", "1"]) == 0
    assert capsys.readouterr().out.strip() == "L / (2*pi) = 1"


def test_common_period_fractions(capsys):
    assert main(["common-period", "1", "2", "1", "3"]) == 0
    assert capsys.readouterr().out.strip() == "L / (2*pi) = 1"


def test_common_period_irrational(capsys):
    assert main(["common-period", "--irrational"]) == 0
    assert capsys.readouterr().out.strip() == "never closes"


def test_common_period_nonpositive_exit_2(capsys):
    assert main(["common-period", "0", "1", "3", "1"]) == 2
    assert capsys.readouterr().err == "error: radii must be positive, got r=0, s=3\n"
    assert main(["common-period", "1", "0", "1", "1"]) == 2
    assert capsys.readouterr().err == "error: radius 1/0 has a zero denominator\n"


# --- config handling -----------------------------------------------------------------------


def test_unknown_key_exit_2(tmp_path, capsys):
    cfg = write(tmp_path, "[diffeo]\nkind = identity\nwobble = 3\n")
    rc = main(["--config", cfg, "--out", str(tmp_path / "o"), "scan-periods"])
    assert rc == 2
    assert "diffeo.wobble" in capsys.readouterr().err


def test_bad_amplitude_exit_2(tmp_path, capsys):
    cfg = write(tmp_path, "[diffeo]\nkind = bump\namplitude = 0.9\n")
    rc = main(["--config", cfg, "--out", str(tmp_path / "o"), "scan-periods"])
    assert rc == 2
    assert "amplitude" in capsys.readouterr().err


def test_too_narrow_bump_exit_2(tmp_path, capsys):
    text = "[diffeo]\nkind = bump\namplitude = 0.0\nsupport_lo = 0.0\nsupport_hi = 1e-200\n"
    rc = main(["--config", write(tmp_path, text), "--out", str(tmp_path / "o"), "scan-periods"])
    assert rc == 2
    assert "config error: diffeo: support" in capsys.readouterr().err


def test_bad_zone_bounds_exit_2(tmp_path, capsys):
    cfg = write(tmp_path, "[metric]\nt0 = 0.8\nt1 = 0.3\n")
    rc = main(["--config", cfg, "--out", str(tmp_path / "o"), "verify"])
    assert rc == 2
    assert "t0" in capsys.readouterr().err


def test_missing_config_file_exit_2(tmp_path, capsys):
    rc = main(["--config", str(tmp_path / "nope.ini"), "scan-periods"])
    assert rc == 2


def test_config_round_trip_idempotent():
    cfg = load_config(None)
    text1 = cfg.effective_text()
    cfg2 = loads_config(text1)
    assert cfg2.effective_text() == text1


def test_config_round_trip_with_spline(tmp_path, capsys):
    text = """
[diffeo]
kind = spline
spline_knots = 0.0, 1.0, 2.0, 3.0, 4.0, 5.0
spline_values = 0.0, 1.1, 2.0, 3.0, 3.9, 5.0
"""
    cfg = loads_config(text)
    assert cfg.build_diffeo().kind == "spline"
    text1 = cfg.effective_text()
    assert loads_config(text1).effective_text() == text1

    full = loads_config(ALL_KEYS_CFG)
    text2 = full.effective_text()
    assert loads_config(text2) == full
    lines = text2.splitlines()
    for f in fields(Config):
        assert getattr(full, f.name) != getattr(Config(), f.name)
        assert sum(line.startswith(f"{f.name} = ") for line in lines) == 1

    for key in ("output.format = csv", "integrator.radial_tol = 1e-9", "integrator.t_guard = 1e-6"):
        section, line = key.split(".", 1)
        cfg_path = write(tmp_path, f"[{section}]\n{line}\n")
        assert main(["--config", cfg_path, "--out", str(tmp_path / "o"), "scan-periods"]) == 2
        assert key.split(" ")[0] in capsys.readouterr().err


# key named in the error -> (config text setting it non-finite, command)
NON_FINITE_CFGS = {
    "diffeo.amplitude": ("[diffeo]\namplitude = nan\n", ["scan-periods"]),
    "diffeo.angle": ("[diffeo]\nkind = rotation\nangle = nan\n", ["scan-periods"]),
    "scan.tol": ("[scan]\ntol = nan\n", ["scan-periods"]),
    "integrator.ds": ("[integrator]\nds = nan\n", ["verify"]),
    "integrator.s_max": ("[integrator]\ns_max = inf\n", ["verify"]),
    "metric.t0": ("[metric]\nt0 = nan\n", ["build-metric"]),
    "metric.psi2_values": (PSI2_CFG.replace("1.15", "nan"), ["build-metric"]),
}


@pytest.mark.parametrize("key", NON_FINITE_CFGS)
def test_non_finite_config_exit_2(tmp_path, capsys, key):
    text, argv = NON_FINITE_CFGS[key]
    cfg_path = write(tmp_path, text)
    out = tmp_path / "o"
    assert main(["--config", cfg_path, "--out", str(out)] + argv) == 2
    assert key in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "text",
    [
        "[integrator]\nds = 0.3\n",
        "[metric]\nt0 = 0.1\n\n[integrator]\nds = 0.1\n",
        "[metric]\nt1 = 0.9\n\n[integrator]\nds = 0.1\n",
        "[integrator]\nds = 1e-100\n",
    ],
)
def test_step_beyond_flat_zone_exit_2(tmp_path, capsys, text):
    # ds must lie in [DS_MIN, min(t0, 1 - t1)); a bad one is a config error, not a failed check
    out = tmp_path / "o"
    assert main(["--config", write(tmp_path, text), "--out", str(out), "verify"]) == 2
    assert "integrator.ds" in capsys.readouterr().err
    assert not out.exists()


# phi >= 10 on the whole box t in [0.3, 0.9] that verify draws its starts
# from, so no direction has |vtheta| and phi |vtheta| both >= 0.1: phi = 11
# on both charts of a rotation, and 20 F' >= 11.9 on chart 1 of the bump
NO_START_CFGS = {
    "rotation": "[diffeo]\nkind = rotation\nangle = 1.0\n\n[metric]\nt0 = 0.1\nt1 = 0.2\n"
    "psi2_thetas = 0.0, 2.0, 4.0\npsi2_values = 11.0, 11.0, 11.0\n",
    "bump": "[metric]\nt0 = 0.1\nt1 = 0.2\npsi2_thetas = 0.0, 2.0, 4.0\npsi2_values = 20.0, 20.0, 20.0\n",
}


@pytest.mark.parametrize("name", NO_START_CFGS)
def test_verify_without_admissible_start_exits_2(tmp_path, name):
    # in a fresh interpreter, so that a sampler that never returns fails the test
    out = tmp_path / "o"
    argv = ["--config", write(tmp_path, NO_START_CFGS[name]), "--out", str(out), "verify"]
    src = str(Path(sectionlab.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run(
        [sys.executable, "-m", "sectionlab.cli", *argv], env=env, capture_output=True, text=True, timeout=30
    )
    assert proc.returncode == 2, proc.stderr
    assert "no admissible start" in proc.stderr
    assert not (out / "verify.csv").exists()


def test_tabulated_psi2(tmp_path, capsys):
    cfg = loads_config(PSI2_CFG)
    metric = cfg.build_metric()
    assert metric.gluing_residual() < 1e-14
    for theta, value in zip(cfg.psi2_thetas, cfg.psi2_values):
        assert metric.psi2(theta) == pytest.approx(value, abs=1e-12)

    def rejects(text, key):
        cfg_path = write(tmp_path, text)
        rc = main(["--config", cfg_path, "--out", str(tmp_path / "o"), "scan-periods"])
        return rc == 2 and key in capsys.readouterr().err

    assert rejects(PSI2_CFG.replace("psi2_values = 1.0, ", "psi2_values = "), "metric.psi2_values")
    unordered = PSI2_CFG.replace("= 0.0, 1.0, 2.0,", "= 0.0, 2.0, 1.0,")
    assert rejects(unordered, "metric.psi2_thetas")
    non_monotone = PSI2_CFG.replace("= 0.0, 0.9, 1.75,", "= 0.0, 2.9, 1.75,")
    assert rejects(non_monotone, "diffeo.spline_values: lift derivative reaches")
    non_positive = PSI2_CFG.replace("0.95, 0.85", "0.95, -0.85")
    assert rejects(non_positive, "metric.psi2_values: psi2 must be positive")


def test_public_names_resolve():
    # __all__ lists each name the package imports, once, so a deleted
    # function cannot leave a stale export behind
    tree = ast.parse(Path(sectionlab.__file__).read_text(encoding="utf-8"))
    imported = {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    exported = sectionlab.__all__
    assert len(exported) == len(set(exported))
    assert set(exported) == imported
    assert all(hasattr(sectionlab, name) for name in exported)


def test_scipy_never_loaded(tmp_path):
    # scipy serves the test oracles and the benchmark only; the package,
    # its spline maps, a psi2-table metric and a spline scan never load it
    cfg_path = write(tmp_path, PSI2_CFG)
    code = (
        "import sys, sectionlab\n"
        "from sectionlab.cli import main\n"
        "assert 'scipy' not in sys.modules\n"
        "sectionlab.SplineDiffeo([0.0, 2.0, 4.0], [0.1, 2.0, 4.0])\n"
        "assert 'scipy' not in sys.modules\n"
        f"sectionlab.loads_config({PSI2_CFG!r}).build_metric()\n"
        "assert 'scipy' not in sys.modules\n"
        f"assert main(['--config', {cfg_path!r}, '--out', {str(tmp_path / 'o')!r}, 'scan-periods']) == 0\n"
        "assert 'scipy' not in sys.modules\n"
    )
    src = str(Path(sectionlab.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    subprocess.run([sys.executable, "-c", code], env=env, check=True, stdout=subprocess.DEVNULL)


def test_package_source_imports_no_scipy():
    for path in Path(sectionlab.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            assert not any(n.split(".")[0] == "scipy" for n in names), f"{path.name}:{node.lineno}"


def test_default_config_valid():
    cfg = load_config(None)
    assert isinstance(cfg, Config)
    assert cfg.kind == "bump"
    assert cfg.amplitude == 0.3


def test_loads_config_rejects_unknown_section():
    with pytest.raises(ConfigError):
        loads_config("[wzzz]\nx = 1\n")
