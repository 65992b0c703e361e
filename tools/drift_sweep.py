"""Sweep the all-or-none check of `verify` over many seeds, on one or two source trees.

Usage: python3 tools/drift_sweep.py [--config PATH] [--seeds SPEC] [--above FRACTION] SRC [SRC2]

SRC and SRC2 are the `src` directories of checkouts.  SPEC is a
comma-separated list of seeds and inclusive seed ranges, such as
`1000-1299` (the default), `858219211` or `0-29,1060`.  Each tree runs in
one fresh interpreter with its directory first on PYTHONPATH; two trees
run side by side.  The interpreter builds the config's metric once and
calls `verify.all_or_none_check` on it once per seed, in order, with the
config's ds and s_max and 100 members, as `verify` calls it.  A wrapper
around the module's `speed_error` records every member's final
speed_error, so each seed's drift (the check's worst member) is kept bit
for bit, with that member's index.

For each tree it prints:
- how many seeds passed and failed, and every failed seed with the
  check's detail;
- the sign flips summed over the seeds, and every seed with any;
- the worst drift, with its seed and member;
- the median, 99th percentile and maximum of the per-seed drift;
- every seed whose drift exceeds FRACTION (default 0.5) of the check's
  bound `verify.drift_bound(ds, s_max)`, which is DRIFT_BOUND at the
  default ds and s_max.

With two trees it then compares them seed by seed: pass status, sign
flips and drift bit for bit.  It lists every seed that differs and the
seeds whose status flips.  The exit status is 0 when every check passed
and, given two trees, every seed agrees; otherwise it is 1.

pytest does not collect this file.  The default config's check takes
about 0.7 s per seed on one core.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

# reads the config path (or "") as argv[1] and the seeds as a json list on
# stdin; prints the check's bound, then one json line per seed:
# [seed, passed, sign flips, drift, worst member, detail]
WORKER = """
import json, sys
from sectionlab import verify
from sectionlab.config import load_config

cfg = load_config(sys.argv[1] or None)
metric = cfg.build_metric()
print(json.dumps(verify.drift_bound(cfg.ds, cfg.s_max)))
drifts = []
speed_error = verify.speed_error

def recorded(metric, state):
    drifts.append(speed_error(metric, state))
    return drifts[-1]

verify.speed_error = recorded
for seed in json.loads(sys.stdin.read()):
    drifts.clear()
    check = verify.all_or_none_check(metric, s_max=cfg.s_max, ds=cfg.ds, seed=seed)
    member = max(range(len(drifts)), key=drifts.__getitem__) if drifts else None
    drift = None if member is None else drifts[member]
    print(json.dumps([seed, check.passed, check.residual, drift, member, check.detail]), flush=True)
"""


def parse_seeds(spec: str) -> list[int]:
    """The seeds of a spec such as '1000-1299' or '0-29,1060', in its order."""
    seeds = []
    for part in spec.split(","):
        lo, sep, hi = part.strip().partition("-")
        first, last = int(lo), int(hi) if sep else int(lo)
        if not 0 <= first <= last:
            raise argparse.ArgumentTypeError(f"bad seed range {part!r}")
        seeds.extend(range(first, last + 1))
    return seeds


def sweep(src: Path, config: Path | None, seeds: list[int]) -> tuple[float, list] | str:
    """The check's bound and one record per seed, or the last line of the tree's error."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-c", WORKER, str(config or "")],
        input=json.dumps(seeds), capture_output=True, text=True, env=env,
    )
    if proc.returncode != 0:
        return (proc.stderr.strip().splitlines() or [f"exit code {proc.returncode}"])[-1]
    bound, *records = map(json.loads, proc.stdout.splitlines())
    return bound, records


def report(label: str, bound: float, records: list, above: float) -> bool:
    """Print one tree's summary; whether every check passed."""
    failed = [r for r in records if not r[1]]
    print(f"{label}: {len(records) - len(failed)} of {len(records)} seeds passed, {len(failed)} failed")
    for seed, _, _, _, _, detail in failed:
        print(f"      failed seed {seed}: {detail}")
    flipped = [(r[0], r[2]) for r in records if r[2]]
    print(f"      sign flips summed over the seeds: {sum(n for _, n in flipped):g}")
    for seed, n in flipped:
        print(f"      seed {seed}: {n:g} sign flips")
    drifts = [r for r in records if r[3] is not None]
    if drifts:
        seed, _, _, drift, member, _ = max(drifts, key=lambda r: r[3])
        values = [r[3] for r in drifts]
        # linear between the sorted values, as numpy.percentile
        p99 = statistics.quantiles(values, n=100, method="inclusive")[98] if len(values) > 1 else values[0]
        print(f"      worst drift {drift:.4g} at seed {seed}, member {member}")
        print(
            f"      drift over {len(values)} seeds: median {statistics.median(values):.4g}, "
            f"99th percentile {p99:.4g}, maximum {max(values):.4g}"
        )
    high = [r for r in drifts if r[3] > above * bound]
    print(f"      seeds above {above:g} x the bound {bound:.1e}: {len(high)}")
    for seed, _, _, drift, member, _ in high:
        print(f"      seed {seed}: drift {drift:.4g} (member {member}), {drift / bound:.3f} x the bound")
    return not failed


def compare(a: list, b: list) -> bool:
    """Print the seed-by-seed comparison of two trees; whether every seed agrees."""
    differ = [(x, y) for x, y in zip(a, b) if x[:5] != y[:5]]
    print(f"seed by seed: {len(a) - len(differ)} of {len(a)} seeds identical (status, sign flips, drift bits)")
    for x, y in differ:
        status = " status flips," if x[1] != y[1] else ""
        print(f"      seed {x[0]}:{status} flips {x[2]:g} -> {y[2]:g}, drift {x[3]!r} -> {y[3]!r}")
    return not differ


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("src", type=Path, nargs="+", help="one or two src directories")
    parser.add_argument("--config", type=Path, default=None, help="config file (default: the built-in defaults)")
    parser.add_argument("--seeds", type=parse_seeds, default="1000-1299", help="seeds and ranges, e.g. 1000-1299")
    parser.add_argument("--above", type=float, default=0.5, help="list the seeds above this fraction of the bound")
    args = parser.parse_args(argv)
    if len(args.src) > 2:
        parser.error("give one or two src directories")
    trees = [src.resolve() for src in args.src]
    config = args.config.resolve() if args.config is not None else None
    print(f"{len(args.seeds)} seeds on {len(trees)} tree(s), config {config or 'defaults'}")
    with ThreadPoolExecutor(max_workers=len(trees)) as pool:
        results = list(pool.map(lambda src: sweep(src, config, args.seeds), trees))
    ok = True
    for src, result in zip(trees, results):
        if isinstance(result, str):
            print(f"{src}: {result}")
            ok = False
        else:
            ok &= report(str(src), *result, args.above)
    if len(trees) == 2 and not any(isinstance(r, str) for r in results):
        ok &= compare(results[0][1], results[1][1])
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
