"""The traced run: spans around each layer's public functions.

Spans are recorded from outside the package: for the duration of the
traced pass, each public function below is replaced, in every namespace
that binds it, by a wrapper that opens a span, calls the original and
attaches counts derived from the arguments and the result.  Spans are
kept in memory and written out with the run's results.

A span records its name, start, end, parent span and job id.  Self time is
a span's duration minus the time its child spans cover.  Spans marked
`memory` also record the tracemalloc peak of what was allocated inside
them; tracemalloc runs only inside those spans, which are numpy-bound, so
that the Python-heavy layers are not slowed by it.

The traced run, for one workload, in this order:
  P   `mubqct bounds --d 16 --m 1` (closed forms, almost no work), five
      times in a fresh interpreter and five times in-process
  1t  certify only: the three dense kernels in a child process with one
      BLAS thread                               -> *.busy_1t_s
  A1  the probe job (the workload's cheapest CLI job) in-process, untraced
  B   every job in-process, traced, the probe job first
  A2  the probe job in-process, untraced, right after its traced run
  trace.overhead_s       = B(probe) - mean(A1, A2)
  cli.process_overhead_s = median(P fresh) - median(P in-process)
Every in-process job starts with cold lru caches, as in a fresh process.
In-process runs share the interpreter's allocator state, so a job's
in-process time can differ from its time in a fresh interpreter.
"""

from __future__ import annotations

import contextlib
import functools
import importlib.util
import json
import statistics
import sys
import time
import tracemalloc
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import harness
import workloads


@dataclass
class Span:
    id: int
    name: str
    job: Optional[str]
    parent: Optional[int]
    start: float = 0.0
    end: float = 0.0
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_dict(self) -> dict:
        return {"id": self.id, "name": self.name, "job": self.job, "parent": self.parent,
                "start": self.start, "end": self.end, "counts": self.counts}


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self.job: Optional[str] = None

    @contextlib.contextmanager
    def span(self, name: str, memory: bool = False):
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), name, self.job, parent)
        self.spans.append(span)
        self._stack.append(span)
        if memory:
            if tracemalloc.is_tracing():
                raise RuntimeError(f"memory span {name} nested in another memory span")
            tracemalloc.start()
        span.start = time.perf_counter()
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            if memory:
                span.counts["peak_alloc_mb"] = tracemalloc.get_traced_memory()[1] / 1e6
                tracemalloc.stop()
            self._stack.pop()

    def self_time(self, span: Span) -> float:
        return span.duration - sum(s.duration for s in self.spans if s.parent == span.id)


# ------------------------------------------------------------ instrumentation


def _family_d(args, kwargs) -> int:
    return (args[0] if args else kwargs["family"]).d


def _verify_counts(args, kwargs, result):
    d = _family_d(args, kwargs)
    return {"d": d, "gflop": (d + 1) * (d + 2) / 2 * 8 * d**3 / 1e9}


def _lambda_counts(args, kwargs, result):
    d = _family_d(args, kwargs)
    return {"d": d, "strings": 2 ** (d + 1), "eigen_dim": d}


def _helstrom_counts(args, kwargs, result):
    d = _family_d(args, kwargs)
    m = args[1] if len(args) > 1 else kwargs.get("m", 1)
    dim = d**m
    return {"dim": dim, "dense_mb": dim * dim * 16 / 1e6}


def _eve_counts(args, kwargs, result):
    d = _family_d(args, kwargs)
    return {"d": d, "table_mb": (d + 1) ** 2 * d**2 * 16 / 1e6}


def _protocol_counts(args, kwargs, result):
    return {"rounds": result.n_rounds, "clicks": result.n_clicks}


def _csv_counts(args, kwargs, result):
    path = args[1] if len(args) > 1 else kwargs["path"]
    return {"bytes": Path(path).stat().st_size}


def _pa_counts(args, kwargs, result):
    bits = args[0] if args else kwargs["bits"]
    return {"bits_in": len(bits), "bits_out": int(result.size)}


def _sweep_counts(args, kwargs, result):
    from mubqct.ratemodel import m_scan_limit

    ds, lengths, profiles = args[:3]
    evals = sum(m_scan_limit(d) for d in ds) * len(lengths) * len(profiles)
    return {"cells": len(result), "key_rate_evals": evals}


# (module, attribute, span name, counts, memory)
TARGETS = (
    ("mubqct.galois", "phase_tables", "galois.phase_tables", None, False),
    ("mubqct.mub", "build_mub_family", "mub.build_mub_family", None, False),
    ("mubqct.mub", "verify_unbiasedness", "mub.verify_unbiasedness", _verify_counts, True),
    ("mubqct.security", "lambda_numeric", "security.lambda_numeric", _lambda_counts, False),
    ("mubqct.security", "helstrom_numeric", "security.helstrom_numeric", _helstrom_counts, True),
    ("mubqct.security", "simulate_eve_random_basis", "security.simulate_eve_random_basis",
     _eve_counts, True),
    ("mubqct.detection", "mc_detection_stats", "detection.mc_detection_stats", None, False),
    ("mubqct.protocol", "run_protocol", "protocol.run_protocol", _protocol_counts, False),
    ("mubqct.protocol", "multiparty_run", "protocol.multiparty_run", None, False),
    ("mubqct.protocol", "ProtocolTranscript.to_csv", "protocol.to_csv", _csv_counts, False),
    ("mubqct.protocol", "privacy_amplify", "protocol.privacy_amplify", _pa_counts, False),
    ("mubqct.ratemodel", "sweep", "ratemodel.sweep", _sweep_counts, False),
    ("mubqct.ratemodel", "max_distance", "ratemodel.max_distance", None, False),
    ("mubqct.ratemodel", "sweep_rows_to_csv", "ratemodel.sweep_rows_to_csv", None, False),
)


def _wrapper(tracer: Tracer, fn, name: str, counts, memory: bool):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        with tracer.span(name, memory) as span:
            result = fn(*args, **kwargs)
        if counts is not None:
            span.counts.update(counts(args, kwargs, result))
        return result

    return traced


@contextlib.contextmanager
def instrumented(tracer: Tracer, namespaces: list[dict]):
    """Swap every target for its traced wrapper; restore them on exit."""
    undo = []
    try:
        for module, attr, name, counts, memory in TARGETS:
            owner = sys.modules[module]
            if "." in attr:  # a method: patch the class
                cls_name, attr = attr.split(".")
                owner = getattr(owner, cls_name)
                fn = getattr(owner, attr)
                setattr(owner, attr, _wrapper(tracer, fn, name, counts, memory))
                undo.append(functools.partial(setattr, owner, attr, fn))
                continue
            fn = getattr(owner, attr)
            traced = _wrapper(tracer, fn, name, counts, memory)
            for ns in namespaces:
                for key, value in list(ns.items()):
                    if value is fn:
                        ns[key] = traced
                        undo.append(functools.partial(ns.__setitem__, key, fn))
        yield
    finally:
        for restore in reversed(undo):
            restore()


# ------------------------------------------------------------ per-layer metrics

# Work counts derived from the inputs, not measured.
COMPUTED = (
    "mub.verify_unbiasedness.gflop",  # (d+1)(d+2)/2 products of d x d complex matrices
    "security.lambda_numeric.strings",  # 2^(d+1) outcome strings per call
    "security.lambda_numeric.eigen_dim",
    "security.helstrom_numeric.dim",  # d^m
    "security.helstrom_numeric.dense_mb",  # one d^m x d^m complex128 matrix
    "security.simulate_eve_random_basis.table_mb",  # (d+1)^2 d^2 complex128 overlaps
    "ratemodel.sweep.key_rate_evals",  # sum of m_scan_limit(d) over the grid
)

# name -> (unit, better); mirrors per_layer in BENCHMARK.json
PER_LAYER = {
    "mub.verify_unbiasedness.busy_s": ("s", "lower"),
    "mub.verify_unbiasedness.gflop": ("Gflop", "lower"),
    "mub.verify_unbiasedness.peak_alloc_mb": ("MB", "lower"),
    "mub.verify_unbiasedness.busy_1t_s": ("s", "lower"),
    "mub.build_mub_family.busy_s": ("s", "lower"),
    "galois.phase_tables.busy_s": ("s", "lower"),
    "security.lambda_numeric.busy_s": ("s", "lower"),
    "security.lambda_numeric.strings": ("count", "lower"),
    "security.lambda_numeric.eigen_dim": ("count", "lower"),
    "security.lambda_numeric.strings_per_s": ("1/s", "higher"),
    "security.lambda_numeric.busy_1t_s": ("s", "lower"),
    "security.helstrom_numeric.busy_s": ("s", "lower"),
    "security.helstrom_numeric.dim": ("count", "lower"),
    "security.helstrom_numeric.dense_mb": ("MB", "lower"),
    "security.helstrom_numeric.peak_alloc_mb": ("MB", "lower"),
    "security.helstrom_numeric.busy_1t_s": ("s", "lower"),
    "security.simulate_eve_random_basis.busy_s": ("s", "lower"),
    "security.simulate_eve_random_basis.table_mb": ("MB", "lower"),
    "security.simulate_eve_random_basis.peak_alloc_mb": ("MB", "lower"),
    "detection.mc_detection_stats.busy_s": ("s", "lower"),
    "protocol.run_protocol.busy_s": ("s", "lower"),
    "protocol.run_protocol.rounds_per_s": ("1/s", "higher"),
    "protocol.run_protocol.sift_ratio": ("ratio", "higher"),
    "protocol.multiparty_run.busy_s": ("s", "lower"),
    "protocol.to_csv.busy_s": ("s", "lower"),
    "protocol.to_csv.mb_per_s": ("MB/s", "higher"),
    "cli.simulate.self_s": ("s", "lower"),
    "protocol.privacy_amplify.busy_s": ("s", "lower"),
    "protocol.privacy_amplify.bits_in": ("count", "higher"),
    "protocol.privacy_amplify.bits_out": ("count", "higher"),
    "ratemodel.sweep.busy_s": ("s", "lower"),
    "ratemodel.sweep.key_rate_evals": ("count", "lower"),
    "ratemodel.sweep.evals_per_s": ("1/s", "higher"),
    "ratemodel.max_distance.busy_s": ("s", "lower"),
    "ratemodel.sweep_rows_to_csv.busy_s": ("s", "lower"),
    "cli.process_overhead_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, extra: dict[str, float]) -> dict[str, float]:
    """Per-layer metrics from the spans; a layer the workload never calls reads 0."""
    def spans(name):
        return [s for s in tracer.spans if s.name == name]

    def busy(name):
        return sum(s.duration for s in spans(name))

    def total(name, key):
        return sum(s.counts.get(key, 0) for s in spans(name))

    def peak(name, key):
        return max((s.counts.get(key, 0) for s in spans(name)), default=0)

    m = {}
    for _, _, fn, _, memory in TARGETS:
        m[f"{fn}.busy_s"] = busy(fn)
        if memory:
            m[f"{fn}.peak_alloc_mb"] = peak(fn, "peak_alloc_mb")
    m["mub.verify_unbiasedness.gflop"] = total("mub.verify_unbiasedness", "gflop")
    m["security.lambda_numeric.strings"] = total("security.lambda_numeric", "strings")
    m["security.lambda_numeric.eigen_dim"] = peak("security.lambda_numeric", "eigen_dim")
    m["security.lambda_numeric.strings_per_s"] = _ratio(
        m["security.lambda_numeric.strings"], m["security.lambda_numeric.busy_s"])
    m["security.helstrom_numeric.dim"] = peak("security.helstrom_numeric", "dim")
    m["security.helstrom_numeric.dense_mb"] = peak("security.helstrom_numeric", "dense_mb")
    m["security.simulate_eve_random_basis.table_mb"] = peak(
        "security.simulate_eve_random_basis", "table_mb")
    rounds = total("protocol.run_protocol", "rounds")
    m["protocol.run_protocol.rounds_per_s"] = _ratio(rounds, m["protocol.run_protocol.busy_s"])
    m["protocol.run_protocol.sift_ratio"] = _ratio(total("protocol.run_protocol", "clicks"), rounds)
    m["protocol.to_csv.mb_per_s"] = _ratio(total("protocol.to_csv", "bytes") / 1e6,
                                           m["protocol.to_csv.busy_s"])
    m["protocol.privacy_amplify.bits_in"] = total("protocol.privacy_amplify", "bits_in")
    m["protocol.privacy_amplify.bits_out"] = total("protocol.privacy_amplify", "bits_out")
    m["ratemodel.sweep.key_rate_evals"] = total("ratemodel.sweep", "key_rate_evals")
    m["ratemodel.sweep.evals_per_s"] = _ratio(m["ratemodel.sweep.key_rate_evals"],
                                              m["ratemodel.sweep.busy_s"])
    m["cli.simulate.self_s"] = sum(tracer.self_time(s) for s in spans("cli.simulate"))
    m.update(extra)
    return {name: float(m.get(name, 0.0)) for name in PER_LAYER}


# ------------------------------------------------------------ the traced run


def _entries(co: harness.Checkout) -> tuple[dict, list[dict]]:
    """In-process entry points, and the namespaces that bind layer functions."""
    sys.path.insert(0, str(co.src))
    import libjobs
    import mubqct.cli

    spec = importlib.util.spec_from_file_location("rate_vs_distance", co.rate_script)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    entries = {"cli": mubqct.cli.main, "rate_script": script.main, "libjob": libjobs.main}
    namespaces = [vars(mod) for name, mod in sorted(sys.modules.items())
                  if name == "mubqct" or name.startswith("mubqct.")]
    return entries, namespaces + [vars(script), vars(libjobs)]


def _lru_caches(namespaces: list[dict]) -> list:
    seen = {}
    for ns in namespaces:
        for value in ns.values():
            if callable(getattr(value, "cache_clear", None)):
                seen[id(value)] = value
    return list(seen.values())


def _root_span_name(step: workloads.Step) -> str:
    if step.entry == "cli":
        return "cli." + step.args[0].replace("-", "_")
    if step.entry == "libjob":
        return "libjob." + step.args[0]
    return "script.rate_vs_distance"


def _kernels_1t(co: harness.Checkout) -> tuple[harness.JobRun, dict]:
    """The three dense kernels in a child restricted to one BLAS thread."""
    env = dict(co.env, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    run = harness.JobRun("kernels_1t")
    with co.job_dir("kernels_1t") as tmp:
        run.wall_s, run.cpu_s, run.peak_rss_mb, code = harness.run_process(
            co.argv("libjob", ["kernels"]), co.root, env, tmp / "stdout0.txt", tmp / "stderr0.txt")
        run.exit_codes.append(code)
        if code != 0:
            run.problems.append(f"kernels child exited {code}")
            return run, {}
        out = json.loads((tmp / "stdout0.txt").read_text(encoding="utf-8"))
    if not out["verify_passed"]:
        run.problems.append("single-thread verification did not pass")
    run.problems += workloads.check_reference("lambda", out["lambda"], workloads.LAMBDA_D16)
    run.problems += workloads.check_reference("helstrom", out["helstrom"],
                                               workloads.HELSTROM_D16_M3)
    return run, {
        "mub.verify_unbiasedness.busy_1t_s": out["verify_s"],
        "security.lambda_numeric.busy_1t_s": out["lambda_s"],
        "security.helstrom_numeric.busy_1t_s": out["helstrom_s"],
    }


PROCESS_PROBE_REPEATS = 5


def run_traced(co: harness.Checkout, workload: str, seeds: dict[str, list[int]]) -> dict:
    jobs = workloads.WORKLOADS[workload]
    probe_job = next(job for job in jobs if job.name == workloads.TRACE_PROBE[workload])
    entries, namespaces = _entries(co)
    caches = _lru_caches(namespaces)
    tracer = Tracer()

    def cold_caches(job_name, step):
        for fn in caches:
            fn.cache_clear()
        return contextlib.nullcontext()

    @contextlib.contextmanager
    def traced_step(job_name, step):
        cold_caches(job_name, step)
        tracer.job = job_name
        with tracer.span(_root_span_name(step)):
            yield
        tracer.job = None

    def untraced_run(job):
        return harness.run_job_inprocess(co, job, seeds.get(job.name, []), entries, cold_caches)

    # children first, while this process is still small: a child's peak
    # RSS starts from its parent's
    fresh = [harness.run_job_subprocess(co, workloads.PROCESS_PROBE, [])
             for _ in range(PROCESS_PROBE_REPEATS)]
    inproc = [untraced_run(workloads.PROCESS_PROBE) for _ in range(PROCESS_PROBE_REPEATS)]
    runs = [("P.fresh", run) for run in fresh] + [("P.inprocess", run) for run in inproc]
    extra = {"cli.process_overhead_s": (statistics.median(r.wall_s for r in fresh)
                                        - statistics.median(r.wall_s for r in inproc))}
    if workload == "certify":
        kernel_run, kernel_times = _kernels_1t(co)
        runs.append(("1t", kernel_run))
        extra.update(kernel_times)

    untraced = [untraced_run(probe_job)]
    traced = []
    for job in [probe_job] + [job for job in jobs if job is not probe_job]:
        with instrumented(tracer, namespaces):
            traced.append(harness.run_job_inprocess(co, job, seeds[job.name], entries,
                                                    traced_step))
        if job is probe_job:
            untraced.append(untraced_run(probe_job))
    extra["trace.overhead_s"] = traced[0].wall_s - statistics.fmean(r.wall_s for r in untraced)
    runs += [(f"A{i + 1}", run) for i, run in enumerate(untraced)] + [("B", run) for run in traced]
    return {
        "runs": runs,
        "metrics": layer_metrics(tracer, extra),
        "computed_metrics": COMPUTED,
        "spans": [s.to_dict() for s in tracer.spans],
    }
