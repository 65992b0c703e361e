"""Every end-to-end metric of every workload, in one table.

Usage, from the root of a checkout:

    python3 perfbench/report.py [--seed N] [--seconds S] [--traced]

Runs perfbench/run.py once per workload, each in its own process (so
`peak_rss_mb` is that workload's own), with its correctness checks.  Prints
the gated metrics, the workload-specific rates (samples_per_s,
sections_per_s, arclength_per_s) and error_rate with its base.  --traced adds
a traced run per workload and prints its per-layer metrics and the tracing
overhead.  Exits 1 if any operation failed.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("scan", "certify", "trajectories")


def run(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, cwd=HERE.parent, check=True,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    record_path = HERE / "results" / f"{workload}-seed{seed}-trace{trace}.json"
    return result, json.loads(record_path.read_text(encoding="utf-8"))


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30)
    p.add_argument("--traced", action="store_true")
    args = p.parse_args(argv)
    failed = 0
    print(f"{'workload':<13s} {'metric':<40s} {'value':>14s} unit")
    for workload in WORKLOADS:
        for trace in (0, 1) if args.traced else (0,):
            result, record = run(workload, args.seed, args.seconds, trace)
            failed += result["failed"]
            rows = dict(result["metrics"])
            if not trace:
                rows.update(record["extras"])
            for name, m in rows.items():
                base = f" (base {m['base']})" if "base" in m else ""
                print(f"{workload:<13s} {name:<40s} {m['value']:>14.6g} {m['unit']}{base}")
            for problem in record["problems"][:5]:
                print(f"{workload:<13s} FAILED {problem}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
