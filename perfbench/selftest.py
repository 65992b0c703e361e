"""The benchmark's own tests.

Run from the root of a checkout with `python3 perfbench/selftest.py`, or
`python3 -m pytest perfbench/selftest.py`.  The file name keeps it out of
the package's own test collection; the traced runs take about a minute.
"""

import io
import json
import math
import shutil
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import run  # noqa: E402
from jobs import Job  # noqa: E402

WORK = HERE / "work" / "selftest"


def _fresh(name: str) -> Path:
    path = WORK / name
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def test_checker_flags_wrong_period():
    lift = checks.bump_lift(0.3, math.pi, 2 * math.pi)
    assert checks.check_period(lift, 0.0, 1) == []  # fixed point of T
    assert checks.check_period(lift, 0.0, 2)
    assert checks.check_period(lift, 1.5 * math.pi, None) == []  # drifts away
    assert checks.check_period(lift, 1.5 * math.pi, 1)


def test_checker_flags_wrong_period_in_periods_csv():
    from sectionlab.cli import main

    out = _fresh("periods")
    cfg = out / "cfg.ini"
    cfg.write_text("[diffeo]\nkind = bump\namplitude = 0.3\n\n[scan]\nn_samples = 36\nk_max = 16\n")
    with redirect_stdout(io.StringIO()):
        assert main(["--config", str(cfg), "--out", str(out), "scan-periods"]) == 0
    lift = checks.bump_lift(0.3, math.pi, 2 * math.pi)
    csv_path = out / "periods.csv"
    assert checks.check_periods_csv(csv_path, 36, lift, [0, 27], k_max=16) == []
    lines = csv_path.read_text().splitlines()
    row = next(i for i, line in enumerate(lines) if line.startswith("0.0,"))
    lines[row] = "0.0,,0"  # sample 0 closes at k = 1; claim it never does
    csv_path.write_text("\n".join(lines) + "\n")
    assert checks.check_periods_csv(csv_path, 36, lift, [0, 27], k_max=16)


def test_flipped_output_byte_fails_an_operation():
    out = _fresh("digest")
    payloads = iter([b"theta,period\n0.0,1\n", b"theta,period\n0.0,2\n"])

    def write():
        (out / "periods.csv").write_bytes(next(payloads))
        return out

    job = Job(
        "writer",
        write,
        lambda d: [checks.combined_digest(checks.dir_digests(d))],
        lambda d: [],
    )
    reference = {}
    assert run.run_round([job], reference)["failed"] == {}
    assert run.run_round([job], reference)["failed"] == {"writer": {0: "output digest differs from the first round"}}


def test_digest_mismatch_with_an_earlier_run_fails():
    reference = {"writer": ["a" * 64]}
    key = "selftest-digests"
    assert run.compare_persisted(reference, key, "src") == {}
    assert run.compare_persisted(reference, key, "src") == {}
    flipped = {"writer": ["b" + "a" * 63]}
    assert run.compare_persisted(flipped, key, "src") == {"writer": {0: "output digest differs from an earlier run"}}
    (run.RESULTS / "digests" / f"{key}.json").unlink()


def _run(workload: str, seed: int, trace: int, cwd: Path = ROOT):
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, cwd=cwd, timeout=300,
    )


def _result(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_traced_run_reports_every_per_layer_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = {m["name"] for m in spec["per_layer"]}
    units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    for workload in ("scan", "certify", "trajectories"):
        result = _result(_run(workload, 5, 1))
        assert result["correct"] and result["failed"] == 0
        assert set(result["metrics"]) == names, workload
        assert all(result["metrics"][n]["unit"] == units[n] for n in names)


def test_traced_counts_repeat_for_a_seed():
    a, b = (_result(_run("scan", 6, 1))["metrics"] for _ in range(2))
    counts = [n for n, m in a.items() if m["unit"] != "s"]
    assert counts and all(a[n]["value"] == b[n]["value"] for n in counts)
    assert a["dynamics.T.calls"]["value"] > 0


def test_untraced_run_reports_every_end_to_end_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    result = _result(_run("scan", 7, 0))
    assert result["correct"] and result["attempted"] > 0
    assert set(result["metrics"]) == {m["name"] for m in spec["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_fails_without_sources():
    bare = _fresh("bare")
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("work", "results", "__pycache__"))
    proc = _run("scan", 1, 0, cwd=bare)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


if __name__ == "__main__":
    failures = 0
    for name, fn in list(globals().items()):
        if name.startswith("test_") and callable(fn):
            try:
                fn()
                print(f"PASS  {name}")
            except Exception as exc:  # report every test, then exit nonzero
                failures += 1
                print(f"FAIL  {name}: {type(exc).__name__}: {exc}")
    sys.exit(1 if failures else 0)
