#!/usr/bin/env python3
"""mubqct benchmark: time to solution of user-facing commands, per workload.

    python3 perfbench/run.py --workload certify --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the package is imported from `src/`.

--trace 0  The untraced run.  One client runs the workload's jobs in a
           closed loop, one at a time, each job step in a fresh
           interpreter, until --seconds have passed (at least one loop).
           Reports setup_s (median time for a fresh interpreter to import
           mubqct, sampled before every job), wall_s (sum of the per-job median times),
           job_geomean_s (their geometric mean) and peak_rss_mb (highest
           per-child peak RSS).  The time of each job is printed above the
           result line and saved with the run's results.
--trace 1  The traced run (see tracing.py): per-layer metrics from spans
           around each layer's public functions, in-process.  It makes
           one pass over the jobs; --seconds applies to the untraced run.

Every job's outputs are checked (workloads.py); a failed check or a
non-zero exit counts in `failed`.  Full results, with provenance, job
seeds, artifact SHA-256 digests and, for traced runs, the spans, go to
.perfbench_out/.  The last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import harness
import tracing
import workloads

SETUP_SAMPLES_PER_JOB = 2
# No new loop starts once this much time has been spent measuring.
MAX_MEASURE_S = 120.0
# Fixed work that does not touch the package: a fresh interpreter imports
# numpy, then times a pure-Python loop, string formatting, RNG draws, a
# sort, complex matmuls and eigen-solves, and prints that time.  Only the
# compute is timed: the import depends on the page cache, which a job's
# memory use can change.  Its samples are saved with the results as a
# record of the machine's speed during the run; they do not enter any
# reported metric.
REFERENCE_CODE = """\
import time
import numpy as np
rng = np.random.default_rng(0)
a = rng.random((256, 256)) + 1j * rng.random((256, 256))
big = rng.random((768, 768)) + 1j * rng.random((768, 768))
t0 = time.perf_counter()
s = 0
for i in range(300_000):
    s += i % 7
rows = [f"{i},{i % 2},{i % 8},{i % 17},{-1}\\n" for i in range(100_000)]
x = rng.binomial(4, 0.3, size=2_000_000)
x.sort()
for _ in range(8):
    b = a @ a
w = np.linalg.eigvalsh(a + a.conj().T)
w = np.linalg.eigvalsh(big + big.conj().T)
b = big @ big
print(time.perf_counter() - t0)
"""
# name -> (unit, better); mirrors end_to_end in BENCHMARK.json
END_TO_END = {
    "setup_s": ("s", "lower"),
    "wall_s": ("s", "lower"),
    "job_geomean_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}


def _blas_threads() -> int | None:
    """Thread count of numpy's bundled OpenBLAS, if it can be asked."""
    libdir = Path(np.__file__).parent.parent / "numpy.libs"
    for path in glob.glob(str(libdir / "*openblas*")):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            if hasattr(lib, sym):
                fn = getattr(lib, sym)
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def provenance(co: harness.Checkout) -> dict:
    rev = None
    if (co.root / ".git").exists():
        proc = subprocess.run(["git", "-C", str(co.root), "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=False)
        rev = proc.stdout.strip() or None
    digest = hashlib.sha256()
    src_lines = 0
    for path in sorted(co.src.rglob("*.py")):
        data = path.read_bytes()
        digest.update(str(path.relative_to(co.src)).encode() + b"\0" + data)
        src_lines += data.count(b"\n")
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_revision": rev,
        "src_sha256": digest.hexdigest(),
        "src_lines": src_lines,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
    }


def check_import(co: harness.Checkout) -> None:
    """One untimed import: warms the caches and confirms that the package
    comes from this checkout's src/."""
    with co.job_dir("setup") as tmp:
        argv = [sys.executable, "-c", "import mubqct; print(mubqct.__file__)"]
        _, _, _, code = harness.run_process(argv, co.root, co.env, tmp / "out", tmp / "err")
        where = Path((tmp / "out").read_text().strip()) if code == 0 else None
        if where is None or co.src not in where.parents:
            raise SystemExit(f"error: cannot import mubqct from {co.src}: "
                             f"{(tmp / 'err').read_text(errors='replace')[-400:]}")


def sample(co: harness.Checkout, code: str, n: int) -> list[tuple[float, str]]:
    """(wall seconds, standard output) of n fresh interpreters running `code`."""
    out = []
    with co.job_dir("sample") as tmp:
        for _ in range(n):
            wall, _, _, exit_code = harness.run_process([sys.executable, "-c", code], co.root,
                                                        co.env, tmp / "out", tmp / "err")
            if exit_code != 0:
                raise SystemExit(f"error: {code.splitlines()[0]!r} failed: "
                                 f"{(tmp / 'err').read_text(errors='replace')[-400:]}")
            out.append((wall, (tmp / "out").read_text()))
    return out


def sample_setup(co: harness.Checkout, n: int) -> list[float]:
    return [wall for wall, _ in sample(co, "import mubqct", n)]


def sample_reference(co: harness.Checkout, n: int) -> list[float]:
    return [float(stdout) for _, stdout in sample(co, REFERENCE_CODE, n)]


def run_untraced(co: harness.Checkout, workload: str, seeds: dict, seconds: float):
    """Closed loop, one client: all jobs in turn until `seconds` have passed.

    Two set-up samples come before every job.  The reference runs before
    the first job and after every job, so that its saved times show the
    machine's speed all through the run."""
    jobs = workloads.WORKLOADS[workload]
    runs: dict[str, list[harness.JobRun]] = {job.name: [] for job in jobs}
    setup: list[float] = []
    reference = sample_reference(co, 1)
    t_start = time.perf_counter()
    while True:
        t_loop = time.perf_counter()
        for job in jobs:
            setup += sample_setup(co, SETUP_SAMPLES_PER_JOB)
            runs[job.name].append(harness.run_job_subprocess(co, job, seeds[job.name]))
            reference += sample_reference(co, 1)
        now = time.perf_counter()
        if now - t_start >= seconds or (now - t_start) + (now - t_loop) > MAX_MEASURE_S:
            break
    return runs, setup, reference


def check_benchmark_json(co: harness.Checkout) -> list[str]:
    """Metric names here must match those that BENCHMARK.json declares."""
    path = co.root / "BENCHMARK.json"
    if not path.is_file():
        return []
    spec = json.loads(path.read_text(encoding="utf-8"))
    problems = []
    for key, names in (("end_to_end", END_TO_END), ("per_layer", tracing.PER_LAYER)):
        declared = {m["name"]: (m["unit"], m["better"]) for m in spec.get(key, [])}
        if declared != names:
            problems.append(f"{key} in BENCHMARK.json does not match the benchmark's metrics")
    return problems


def _print_jobs(rows: list[tuple[str, list[harness.JobRun]]]) -> None:
    """One line per job: median time, sample count, peak RSS, check outcome."""
    for label, rs in rows:
        bad = [p for r in rs for p in r.problems]
        rss = max(r.peak_rss_mb for r in rs)
        print(f"{label} = {statistics.median(r.wall_s for r in rs):.4f} s, "
              f"median of {len(rs)}; "
              + (f"peak RSS {rss:.1f} MB; " if rss else "")
              + ("check ok" if not bad else f"FAILED: {bad[0][:300]}"))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    co = harness.Checkout(Path(__file__).resolve().parent.parent)
    missing = co.missing()
    if missing:
        print(f"error: not a mubqct checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2
    for problem in check_benchmark_json(co):
        print(f"error: {problem}", file=sys.stderr)
        return 2

    seeds = workloads.derive_seeds(args.workload, args.seed)
    results = {
        "workload": args.workload,
        "seed": args.seed,
        "job_seeds": seeds,
        "seed_lineage": "job i gets SeedSequence(seed).spawn(n_jobs)[i].generate_state(n_seeds)",
        "seconds": args.seconds,
        "trace": args.trace,
        "provenance": provenance(co),
    }
    print(f"# {args.workload} seed={args.seed} "
          + " ".join(f"{k}={v}" for k, v in results["provenance"].items()))
    try:
        if args.trace:
            traced = tracing.run_traced(co, args.workload, seeds)
            labelled = traced.pop("runs")
            all_runs = [run for _, run in labelled]
            metrics = {name: {"value": value, "unit": tracing.PER_LAYER[name][0]}
                       for name, value in traced["metrics"].items()}
            results.update(traced)
            results["runs"] = [{"phase": phase, **run.to_dict()} for phase, run in labelled]
            grouped: dict[str, list[harness.JobRun]] = {}
            for phase, run in labelled:
                grouped.setdefault(f"{phase}.{run.name}_s", []).append(run)
            _print_jobs(list(grouped.items()))
        else:
            check_import(co)
            runs, setup, reference = run_untraced(co, args.workload, seeds, args.seconds)
            all_runs = [r for rs in runs.values() for r in rs]
            medians = {name + "_s": statistics.median(r.wall_s for r in rs)
                       for name, rs in runs.items()}
            values = {
                "setup_s": statistics.median(setup),
                "wall_s": sum(medians.values()),
                "job_geomean_s": math.exp(statistics.fmean(math.log(v) for v in medians.values())),
                "peak_rss_mb": max(r.peak_rss_mb for r in all_runs),
            }
            metrics = {name: {"value": values[name], "unit": unit}
                       for name, (unit, _) in END_TO_END.items()}
            results.update({
                "reference_s": reference,
                "setup_samples_s": setup,
                "job_medians_s": medians,
                "jobs": {name: [r.to_dict() for r in rs] for name, rs in runs.items()},
            })
            _print_jobs([(name + "_s", rs) for name, rs in runs.items()])
            print(f"(setup_s: median of {len(setup)} samples; machine reference: median of "
                  f"{len(reference)} runs {statistics.median(reference):.4f} s, not used in any metric)")
    finally:
        co.cleanup()

    failed = sum(not r.ok for r in all_runs)
    results.update({"attempted": len(all_runs), "failed": failed, "metrics": metrics})
    co.out_dir.mkdir(exist_ok=True)
    out_path = co.out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(results, indent=1) + "\n", encoding="utf-8")
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(f"# ops_failed {failed} of ops_attempted {len(all_runs)}; results in "
          f"{out_path.relative_to(co.root)}")
    print(json.dumps({"correct": failed == 0, "attempted": len(all_runs), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
