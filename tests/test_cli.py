"""End-to-end tests of the command-line interface."""

import json
import math
from dataclasses import fields

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


def test_trace_horizon_too_short_exit_3(tmp_path, capsys):
    cfg = write(tmp_path, BUMP_FAST_CFG)
    rc = main(["--config", cfg, "--out", str(tmp_path / "o"), "trace", "0.0", "--max-legs", "2"])
    assert rc == 3
    assert "need max_legs" in capsys.readouterr().err


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
    ],
)
def test_bad_input_exit_2(tmp_path, capsys, argv):
    out = tmp_path / "o"
    assert main(["--out", str(out)] + argv) == 2
    assert "error" in capsys.readouterr().err
    assert not (out / "trace.json").exists()


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
    "integrator.ds": ("[integrator]\nds = nan\n", ["trace", "1.0", "--numeric"]),
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


def test_public_names_resolve():
    assert all(hasattr(sectionlab, name) for name in sectionlab.__all__)


def test_default_config_valid():
    cfg = load_config(None)
    assert isinstance(cfg, Config)
    assert cfg.kind == "bump"
    assert cfg.amplitude == 0.3


def test_loads_config_rejects_unknown_section():
    with pytest.raises(ConfigError):
        loads_config("[wzzz]\nx = 1\n")
