"""Tracing of a benchmark run, applied from outside the package.

Hot methods, called up to millions of times in a round, get counters: a
call count and the total time.  Coarse calls get spans: name, start, end and
parent under one run id, plus the counter increments seen while the span was
open.  Class methods are wrapped on the class that defines them; module
functions in the namespace that calls them.  A target the package no longer
has is listed in `missing` and its metrics read 0.

Spans stay in memory until `dump` writes them with their self time: a span's
duration minus the time covered by its child spans.
"""

from __future__ import annotations

import functools
import json
import time
import uuid
from collections import defaultdict
from pathlib import Path

import numpy as np

from sectionlab import circle, cli, config, dynamics, geodesics, metric, verify

VERIFY_CHECKS = {
    "gluing_check": "verify.gluing_compatibility",
    "all_or_none_check": "verify.all_or_none",
    "radial_geodesic_check": "verify.radial_geodesics",
    "leaf_equidistance_check": "verify.leaf_equidistance",
    "leaf_equidistance_cross_check": "verify.leaf_equidistance_cross",
}
SERIALIZERS = (
    (dynamics.PeriodReport, "to_csv_text"),
    (verify.VerificationReport, "to_csv_text"),
    (geodesics.Trajectory, "to_records_text"),
    (geodesics.SectionTrace, "to_json_dict"),
)


class Tracer:
    def __init__(self):
        self.run_id = uuid.uuid4().hex
        self.counts = defaultdict(int)
        self.times = defaultdict(float)
        self.spans = []  # [id, name, start, end, parent, counter increments]
        self.missing = []
        self._stack = []
        self._undo = []

    # -- wrappers -------------------------------------------------------------

    def counter(self, name, fn, size=None):
        counts, times, clock = self.counts, self.times, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                times[name] += clock() - start
                counts[name] += 1
                if size is not None:
                    counts[name + ".elements"] += size(args)

        return wrapper

    def spanned(self, name, fn, on_result=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name) as rec:
                result = fn(*args, **kwargs)
            if on_result is not None:
                on_result(result, rec)
            return result

        return wrapper

    def span(self, name):
        return _Span(self, name)

    # -- installation ---------------------------------------------------------

    def _patch(self, owner, attr, wrap):
        orig = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        setattr(owner, attr, wrap(orig))
        self._undo.append((owner, attr, orig))

    def wrap(self, owners, attr, wrap):
        """Wrap `attr` on every owner that defines it; note when none does."""
        found = [o for o in owners if attr in vars(o)]
        for owner in found:
            self._patch(owner, attr, wrap)
        if not found:
            self.missing.append(f"{owners[0].__name__}.{attr}")

    def install(self):
        diffeos = [circle.CircleDiffeo, *_subclasses(circle.CircleDiffeo)]
        self.wrap(diffeos, "lift", lambda fn: self.counter("circle.lift", fn))
        self.wrap(diffeos, "inverse", lambda fn: self.counter("circle.inverse", fn))
        self.wrap(
            diffeos,
            "_inverse_array",
            lambda fn: self.counter("circle.inverse_array", fn, size=lambda a: np.size(a[1])),
        )
        self.wrap([dynamics.TransitionMap], "__call__", lambda fn: self.counter("dynamics.T", fn))
        gm = [metric.GluedMetric]
        self.wrap(gm, "warp_with_partials", lambda fn: self.counter("metric.warp_with_partials", fn))
        self.wrap(
            gm,
            "warp_with_partials_vec",
            lambda fn: self.counter("metric.warp_with_partials_vec", fn, size=lambda a: np.size(a[2])),
        )
        for cls, attr in SERIALIZERS:
            self.wrap([cls], attr, lambda fn, n=f"cli.serialize.{cls.__name__}.{attr}": self.spanned(n, fn))

        def functions(modules, attr, name, on_result=None):
            self.wrap(modules, attr, lambda fn: self.spanned(name, fn, on_result))

        functions([cli, dynamics], "classify_scan", "dynamics.classify_scan", self._on_scan)
        functions([cli, geodesics], "trace_section", "geodesics.trace_section")
        functions([cli, geodesics], "section_verdict", "geodesics.section_verdict")
        functions([cli, verify, geodesics], "integrate", "geodesics.integrate", self._on_integrate)
        functions([verify], "integrate_ensemble", "geodesics.integrate_ensemble", self._on_ensemble)
        functions([cli], "run_all_checks", "verify.run_all_checks")
        for attr, name in VERIFY_CHECKS.items():
            functions([verify], attr, name)
        functions([cli, config], "load_config", "config.load_config")

    def uninstall(self):
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo.clear()

    # -- result hooks ---------------------------------------------------------

    def _on_scan(self, report, rec):
        self.counts["dynamics.samples"] += len(report.samples)
        self.counts["dynamics.fragile_samples"] += report.fragile_count
        self.counts["dynamics.T.in_scan"] += rec[5].get("dynamics.T", 0)

    def _on_integrate(self, traj, rec):
        self.counts["geodesics.integrate.states"] += len(traj.states)
        self.counts["geodesics.rim_crossings"] += len(traj.crossings)
        self.counts["geodesics.center_passages"] += len(traj.center_passages)

    def _on_ensemble(self, result, rec):
        self.counts["geodesics.rim_crossings"] += int(np.sum(result.crossings))
        self.counts["geodesics.center_passages"] += int(np.sum(result.center_passages))

    # -- read-out -------------------------------------------------------------

    def mark(self):
        return len(self.spans), dict(self.counts), dict(self.times)

    def since(self, mark):
        """Counters, counter times and span totals accumulated after `mark`."""
        first, counts0, times0 = mark
        counts = {k: v - counts0.get(k, 0) for k, v in self.counts.items()}
        times = {k: v - times0.get(k, 0.0) for k, v in self.times.items()}
        span_s = defaultdict(float)
        span_calls = defaultdict(int)
        for rec in self.spans[first:]:
            span_s[rec[1]] += rec[3] - rec[2]
            span_calls[rec[1]] += 1
        return {"counts": counts, "times": times, "span_s": dict(span_s), "span_calls": dict(span_calls)}

    def _self_time(self):
        """Span id -> duration minus the time covered by its child spans."""
        child = defaultdict(float)
        for rec in self.spans:
            if rec[4] is not None:
                child[rec[4]] += rec[3] - rec[2]
        return {rec[0]: rec[3] - rec[2] - child[rec[0]] for rec in self.spans}

    def self_times(self, first=0):
        """Per span name: total self time over the spans from `first` on."""
        own = self._self_time()
        out = defaultdict(float)
        for rec in self.spans[first:]:
            out[rec[1]] += own[rec[0]]
        return dict(out)

    def dump(self, path: Path):
        own = self._self_time()
        spans = [
            {
                "id": sid,
                "name": name,
                "start": start,
                "end": end,
                "parent": parent,
                "self": own[sid],
                "counts": incr,
            }
            for sid, name, start, end, parent, incr in self.spans
        ]
        Path(path).write_text(json.dumps({"run_id": self.run_id, "spans": spans}) + "\n", encoding="utf-8")


class _Span:
    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        tr = self.tracer
        parent = tr._stack[-1] if tr._stack else None
        self.rec = [len(tr.spans), self.name, time.perf_counter(), None, parent, None]
        self.counts0 = dict(tr.counts)
        tr.spans.append(self.rec)
        tr._stack.append(self.rec[0])
        return self.rec

    def __exit__(self, *exc):
        tr = self.tracer
        self.rec[3] = time.perf_counter()
        tr._stack.pop()
        self.rec[5] = {
            k: v - self.counts0.get(k, 0) for k, v in tr.counts.items() if v != self.counts0.get(k, 0)
        }
        return False


def _subclasses(cls):
    out = []
    for sub in cls.__subclasses__():
        out += [sub, *_subclasses(sub)]
    return out


def per_layer(stats: dict) -> dict:
    """The per-layer metrics of one round from `Tracer.since`."""
    c, t = stats["counts"], stats["times"]
    s, n = stats["span_s"], stats["span_calls"]
    samples = c.get("dynamics.samples", 0)
    out = {
        "circle.inverse.calls": c.get("circle.inverse", 0),
        "circle.inverse.s": t.get("circle.inverse", 0.0),
        "circle.inverse_array.calls": c.get("circle.inverse_array", 0),
        "circle.inverse_array.elements": c.get("circle.inverse_array.elements", 0),
        "circle.lift.calls": c.get("circle.lift", 0),
        "dynamics.T.calls": c.get("dynamics.T", 0),
        "dynamics.classify_scan.s": s.get("dynamics.classify_scan", 0.0),
        "dynamics.T_calls_per_sample": c.get("dynamics.T.in_scan", 0) / samples if samples else 0.0,
        "dynamics.fragile_samples": c.get("dynamics.fragile_samples", 0),
        "metric.warp_with_partials.calls": c.get("metric.warp_with_partials", 0),
        "metric.warp_with_partials.s": t.get("metric.warp_with_partials", 0.0),
        "metric.warp_with_partials_vec.calls": c.get("metric.warp_with_partials_vec", 0),
        "metric.warp_with_partials_vec.elements": c.get("metric.warp_with_partials_vec.elements", 0),
        "metric.warp_with_partials_vec.s": t.get("metric.warp_with_partials_vec", 0.0),
        "geodesics.trace_section.calls": n.get("geodesics.trace_section", 0),
        "geodesics.trace_section.s": s.get("geodesics.trace_section", 0.0),
        "geodesics.section_verdict.s": s.get("geodesics.section_verdict", 0.0),
        "geodesics.integrate.calls": n.get("geodesics.integrate", 0),
        "geodesics.integrate.s": s.get("geodesics.integrate", 0.0),
        "geodesics.integrate.states": c.get("geodesics.integrate.states", 0),
        "geodesics.integrate_ensemble.s": s.get("geodesics.integrate_ensemble", 0.0),
        "geodesics.rim_crossings": c.get("geodesics.rim_crossings", 0),
        "geodesics.center_passages": c.get("geodesics.center_passages", 0),
    }
    for name in VERIFY_CHECKS.values():
        out[name + ".s"] = s.get(name, 0.0)
    out["config.load_config.s"] = s.get("config.load_config", 0.0)
    out["cli.serialize.s"] = sum(v for k, v in s.items() if k.startswith("cli.serialize."))
    return out


# metric name -> unit, in report order; counts repeat exactly for a seed
UNITS = {
    name: (
        "s" if name.endswith(".s") else "calls/sample" if name.endswith("per_sample") else "count"
    )
    for name in per_layer({"counts": {}, "times": {}, "span_s": {}, "span_calls": {}})
}
