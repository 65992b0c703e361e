"""sectionlab benchmark: one workload, one seed, one run.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload {scan,certify,trajectories} --seed N \
        --seconds S --trace {0,1} [--inputs RESULTS_JSON]

A single-threaded closed loop: the workload's jobs run one after another in
this process, and whole rounds of them repeat until the next round would end
after S seconds (at least one round).  Every round gets the same inputs, so
its outputs must match the first round's byte for byte; the first round's
outputs are also checked for correctness and compared with the last run of
the same inputs and source.  A failed job, check or digest counts as a
failed operation.

--trace 0 reports the end-to-end metrics: `setup_s` (median of five cold
set-ups in fresh interpreters), `wall_s` (median round wall time) and
`peak_rss_mb`.  --trace 1 runs one untraced round, then traced rounds, and
reports the per-layer metrics of `tracer.per_layer` plus the tracing
overhead.  The last line of stdout is one JSON object; a fuller record, with
the generated inputs for exact replay (--inputs), goes to
perfbench/results/.  Exits 2 without a result when the checkout has no
src/sectionlab.
"""

import os

# BLAS/OpenMP pools pinned to one thread before numpy loads (children inherit)
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
SETUP_REPEATS = 5


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=("scan", "certify", "trajectories"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--inputs", help="replay the inputs recorded in a results file")
    return p.parse_args(argv)


def source_record() -> dict:
    files = sorted((SRC / "sectionlab").glob("*.py"))
    h = hashlib.sha256()
    lines = 0
    for path in files:
        data = path.read_bytes()
        h.update(path.name.encode() + b"\0" + data)
        lines += data.count(b"\n")
    return {"sha256": h.hexdigest(), "lines": lines, "files": len(files)}


def git_commit():
    """HEAD of the checkout read from .git, or None outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(src: dict) -> dict:
    import numpy
    import scipy

    cpu = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        cpu = platform.processor() or None
    return {
        "git_commit": git_commit(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "thread_pins": {v: os.environ.get(v) for v in THREAD_VARS},
        "source": src,
    }


def time_setups(inputs_path: Path, workdir: Path) -> list:
    """Seconds from spawning a fresh interpreter to its `ready` line."""
    out = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "setup_probe.py"), str(inputs_path), str(workdir)],
            stdout=subprocess.PIPE,
            cwd=ROOT,
        )
        try:
            line = proc.stdout.readline()
            out.append(time.perf_counter() - start)
            proc.stdout.read()
        finally:
            proc.stdout.close()
            proc.wait(timeout=120)
        if proc.returncode != 0 or line.strip() != b"ready":
            raise RuntimeError(f"set-up probe failed with exit code {proc.returncode}")
    return out


def run_round(jobs, reference: dict, tracer=None) -> dict:
    """One pass over the jobs; returns per-job seconds and failed operations."""
    job_s = {}
    failed = {}  # job name -> {op index: problem}
    start = time.perf_counter()
    for job in jobs:
        with tracer.span(f"job.{job.name}") if tracer else nullcontext():
            t0 = time.perf_counter()
            try:
                res = job.run()
                err = None
            except Exception as exc:  # a failed operation, not a failed benchmark
                err = f"{type(exc).__name__}: {exc}"
            job_s[job.name] = time.perf_counter() - t0
        try:
            if err is not None:
                raise RuntimeError(err)
            digests = job.digests(res)
            if job.name not in reference:
                reference[job.name] = digests
                problems = job.check(res)
            else:
                problems = [
                    (i, "output digest differs from the first round")
                    for i, (a, b) in enumerate(zip(digests, reference[job.name]))
                    if a != b
                ]
        except Exception as exc:  # raised by the job or by its checks
            problems = [(i, f"{type(exc).__name__}: {exc}") for i in range(job.ops)]
        if problems:
            failed[job.name] = dict(problems)
    return {
        "job_s": job_s,
        "wall_s": sum(job_s.values()),
        "elapsed_s": time.perf_counter() - start,
        "failed": failed,
    }


def compare_persisted(reference: dict, key: str, src_sha: str) -> dict:
    """Digests must match the last run of the same inputs on the same source."""
    path = RESULTS / "digests" / f"{key}.json"
    failed = {}
    try:
        old = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        old = None
    if old and old.get("source") == src_sha:
        for name, digests in reference.items():
            prev = old["digests"].get(name)
            if prev is None:
                continue
            bad = {i: "output digest differs from an earlier run" for i, (a, b) in enumerate(zip(digests, prev)) if a != b}
            if bad:
                failed[name] = bad
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({"source": src_sha, "digests": reference}, sort_keys=True) + "\n", encoding="utf-8")
    return failed


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "sectionlab" / "__init__.py").is_file():
        print(f"error: no sectionlab sources at {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from sectionlab import config as sl_config

    import jobs as jobs_mod
    import tracer as tracer_mod
    import workloads

    src = source_record()
    env = environment(src)
    workdir = HERE / "work" / args.workload
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    RESULTS.mkdir(parents=True, exist_ok=True)

    if args.inputs:
        inputs = json.loads(Path(args.inputs).read_text(encoding="utf-8"))["inputs"]
    else:
        default_metric = sl_config.load_config(None).build_metric() if args.workload == "trajectories" else None
        inputs = workloads.generate_inputs(args.workload, args.seed, default_metric)
    if inputs["workload"] != args.workload:
        print(f"error: inputs are for workload {inputs['workload']!r}", file=sys.stderr)
        return 2
    inputs_text = json.dumps(inputs, sort_keys=True)
    inputs_path = workdir / "inputs.json"
    inputs_path.write_text(inputs_text + "\n", encoding="utf-8")

    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace, "inputs": inputs, "env": env}
    tr = tracer_mod.Tracer() if args.trace else None
    if not args.trace:
        record["setup_probes_s"] = time_setups(inputs_path, workdir / "probe")
    if tr:
        tr.install()
        setup_mark = tr.mark()
    t0 = time.perf_counter()
    ctx = workloads.prepare(inputs, workdir)
    record["setup_in_process_s"] = time.perf_counter() - t0
    if tr:
        setup_stats = tr.since(setup_mark)
        tr.uninstall()
    jobs = jobs_mod.build_jobs(ctx)

    reference = {}
    rounds = []
    start = time.perf_counter()
    if tr:
        rounds.append(run_round(jobs, reference))  # untraced, for the overhead
        tr.install()
        traced_first = len(tr.spans)
    while True:
        mark = tr.mark() if tr else None
        with tr.span("round") if tr else nullcontext():
            r = run_round(jobs, reference, tr)
        if tr:
            r["stats"] = tr.since(mark)
        rounds.append(r)
        if time.perf_counter() - start + r["elapsed_s"] > args.seconds:
            break
    if tr:
        tr.uninstall()

    key = hashlib.sha256(inputs_text.encode()).hexdigest()[:24]
    late = compare_persisted(reference, f"{args.workload}-{key}", src["sha256"])
    for name, bad in late.items():
        rounds[0]["failed"].setdefault(name, {}).update(bad)

    ops_per_round = sum(j.ops for j in jobs)
    attempted = ops_per_round * len(rounds)
    failed = sum(len(bad) for r in rounds for bad in r["failed"].values())
    problems = [f"round {i} {name} op {op}: {msg}" for i, r in enumerate(rounds) for name, bad in r["failed"].items() for op, msg in bad.items()]

    timed = rounds[1:] if tr else rounds
    wall = statistics.median(r["wall_s"] for r in timed)
    lines = [f"workload {args.workload}, seed {args.seed}, {len(timed)} timed rounds of {len(jobs)} jobs"]
    if tr:
        per_round = [tracer_mod.per_layer(r["stats"]) for r in timed]
        metrics = {}
        for name, unit in tracer_mod.UNITS.items():
            if unit == "s":
                value = statistics.median(p[name] for p in per_round)
            else:
                value = per_round[0][name]
            metrics[name] = {"value": value, "unit": unit}
        untraced = rounds[0]["wall_s"]
        metrics["config.load_config.setup_s"] = {"value": setup_stats["span_s"].get("config.load_config", 0.0), "unit": "s"}
        metrics["trace.wall_s"] = {"value": wall, "unit": "s"}
        metrics["trace.untraced_wall_s"] = {"value": untraced, "unit": "s"}
        metrics["trace.overhead_s"] = {"value": wall - untraced, "unit": "s"}
        samples = timed[0]["stats"]["counts"].get("dynamics.samples", 0)
        record["bases"] = {"dynamics.T_calls_per_sample": {"samples_classified": samples}}
        lines.append(f"  dynamics.T_calls_per_sample base: {samples} samples classified")
        record["counts_repeat"] = all(
            p[n] == per_round[0][n] for p in per_round for n, u in tracer_mod.UNITS.items() if u != "s"
        )
        record["self_s"] = {k: v / len(timed) for k, v in tr.self_times(traced_first).items()}
        record["missing_targets"] = tr.missing
        spans_path = RESULTS / f"{args.workload}-seed{args.seed}-spans.json"
        tr.dump(spans_path)
        lines.append(f"spans: {spans_path.relative_to(ROOT)} (run id {tr.run_id})")
    else:
        metrics = {
            "setup_s": {"value": statistics.median(record["setup_probes_s"]), "unit": "s"},
            "wall_s": {"value": wall, "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "unit": "MB"},
        }
    extras = throughputs(jobs, timed, wall)
    extras["error_rate"] = {"value": failed / attempted, "unit": "ratio", "base": attempted}
    for name, m in {**metrics, **extras}.items():
        lines.append(f"  {name:<40s} {m['value']:.6g} {m['unit']}")
    lines += [f"  FAILED {p}" for p in problems[:20]]

    record.update(
        metrics=metrics,
        extras=extras,
        rounds=[{k: v for k, v in r.items() if k != "stats"} for r in rounds],
        attempted=attempted,
        failed=failed,
        problems=problems[:200],
        files={j.name: j.files for j in jobs if j.files},
    )
    results_path = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    results_path.write_text(json.dumps(record, indent=1, sort_keys=True, default=str) + "\n", encoding="utf-8")
    lines.append(f"record: {results_path.relative_to(ROOT)}")
    print("\n".join(lines))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def throughputs(jobs, rounds, wall) -> dict:
    """Workload-specific rates, printed and recorded but not gated."""
    out = {}
    scans = [j.name for j in jobs if j.samples]
    if scans:
        samples = sum(j.samples for j in jobs)
        rate = statistics.median(samples / sum(r["job_s"][n] for n in scans) for r in rounds)
        out["samples_per_s"] = {"value": rate, "unit": "1/s"}
    sections = [j for j in jobs if j.sections]
    if sections:
        rate = statistics.median(
            sum(j.sections for j in sections) / sum(r["job_s"][j.name] for j in sections) for r in rounds
        )
        out["sections_per_s"] = {"value": rate, "unit": "1/s"}
    arclength = sum(j.arclength for j in jobs)
    if arclength:
        out["arclength_per_s"] = {"value": arclength / wall, "unit": "1/s"}
    return out


if __name__ == "__main__":
    sys.exit(main())
