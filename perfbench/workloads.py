"""The benchmark's workloads: jobs, their inputs, and their output checks.

A job is what one user runs to get one result: a `mubqct` subcommand, a
repo script, or one library call (see libjobs.py).  A job has one or more
steps; each step is one fresh interpreter in the untraced run, or one
in-process call of the same entry point in the traced run.  Every step
writes its standard output to `stdout<i>.txt` in the job's temp dir, and
the job's check reads that and any files the step wrote there.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

# Reference values computed by this package at the commit that added the
# benchmark (exhaustive lambda over 2^17 strings; 4096-dim Helstrom).
LAMBDA_D16 = 1.7723635432250342
HELSTROM_D16_M3 = 0.6783350184090684
REFERENCE_TOL = 1e-9
Z_LIMIT = 5.0

SWEEP_DS = ",".join(str(2**k) for k in range(1, 17))
SWEEP_L = "0:400:2"
SWEEP_PROFILES = ("ingaas_field", "snspd_lab")
SIM_ROUNDS = 1_000_000
DISTILL_BITS_IN = 60_000
DISTILL_BITS_OUT = 30_000
EVE_K = 6
EVE_TRIALS = 100_000


@dataclass(frozen=True)
class Step:
    """One run of an entry point: `cli` (mubqct.cli.main), `rate_script`
    (scripts/rate_vs_distance.py) or `libjob` (perfbench/libjobs.py)."""

    entry: str
    args: tuple[str, ...]


@dataclass(frozen=True)
class Job:
    name: str  # metric stem: the job's time is reported as `<name>_s`
    n_seeds: int  # seeds the job takes, derived from the workload seed
    steps: Callable[[list[int], Path], list[Step]]
    check: Callable[[Path], tuple[list[str], dict[str, str]]]


def sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def _json(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


def _stdout(tmp: Path) -> Path:
    """Standard output of a job's first step."""
    return tmp / "stdout0.txt"


def _count_lines(path: Path) -> int:
    with open(path, "rb") as fh:
        return sum(block.count(b"\n") for block in iter(lambda: fh.read(1 << 20), b""))


def _z_problems(where: str, core: dict) -> list[str]:
    problems = []
    for key in ("z_click_rate", "z_p_c", "z_p_e"):
        z = core.get(key)
        if z is None or not abs(z) <= Z_LIMIT:
            problems.append(f"{where}: {key} = {z} outside +-{Z_LIMIT}")
    return problems


def _sweep_problems(text: str, n_expected: int) -> list[str]:
    """Row count, K in [0, 1], and K non-increasing in L per (profile, d)."""
    lines = [ln for ln in text.splitlines() if not ln.startswith("#")]
    rows = list(csv.DictReader(io.StringIO("\n".join(lines))))
    problems = []
    if len(rows) != n_expected:
        problems.append(f"sweep has {len(rows)} rows, expected {n_expected}")
    curves: dict[tuple[str, str], list[tuple[float, float]]] = {}
    for row in rows:
        k = float(row["key_rate_bits"])
        if not 0.0 <= k <= 1.0:
            problems.append(f"K = {k} outside [0, 1] at {row['profile']} d={row['d']} L={row['L_km']}")
        curves.setdefault((row["profile"], row["d"]), []).append((float(row["L_km"]), k))
    for (profile, d), pts in curves.items():
        pts.sort()
        if any(b[1] > a[1] for a, b in zip(pts, pts[1:])):
            problems.append(f"K increases with L for {profile} d={d}")
    return problems[:10]


def _n_grid(spec: str) -> int:
    start, stop, step = (float(p) for p in spec.split(":"))
    return int(math.floor((stop - start) / step + 1e-9)) + 1


SWEEP_CELLS_PER_PROFILE = len(SWEEP_DS.split(",")) * _n_grid(SWEEP_L)


# ---------------------------------------------------------------- certify


def _check_mub_verify(tmp: Path):
    out = _stdout(tmp)
    rep = _json(out)
    problems = []
    if not rep.get("passed"):
        problems.append("mub-verify did not pass")
    for key in ("max_orthonormality_dev", "max_unbiasedness_dev"):
        if not rep[key] <= rep["tol"]:
            problems.append(f"{key} = {rep[key]} > tol {rep['tol']}")
    return problems, {"report.json": sha256_file(out)}


def check_reference(name: str, value, ref: float) -> list[str]:
    if value is None or not abs(value - ref) <= REFERENCE_TOL:
        return [f"{name} = {value} differs from reference {ref!r} by more than {REFERENCE_TOL}"]
    return []


def _check_bounds(tmp: Path):
    out = _stdout(tmp)
    rep = _json(out)
    return check_reference("lambda_numeric", rep.get("lambda_numeric"), LAMBDA_D16), {
        "bounds.json": sha256_file(out)
    }


def _check_oracle(tmp: Path):
    out = _stdout(tmp)
    rep = _json(out)
    problems = check_reference("lambda_numeric", rep.get("lambda_numeric"), LAMBDA_D16)
    problems += check_reference("helstrom_numeric", rep.get("helstrom_numeric"), HELSTROM_D16_M3)
    return problems, {"oracle.json": sha256_file(out)}


def _check_eve(tmp: Path):
    out = _stdout(tmp)
    rep = _json(out)
    d, n = rep["d"], rep["n_trials"]
    p = 0.5 + 0.5 / (d + 1.0)
    se = math.sqrt(p * (1.0 - p) / n)
    problems = []
    if (d, n) != (2**EVE_K, EVE_TRIALS):
        problems.append(f"eve ran d={d}, n={n}")
    if not abs(rep["p_success"] - p) <= Z_LIMIT * se:
        problems.append(f"eve success {rep['p_success']} not within {Z_LIMIT} SE of {p}")
    return problems, {"eve.json": sha256_file(out)}


CERTIFY = (
    Job(
        "mub_verify",
        0,
        lambda seeds, tmp: [Step("cli", ("mub-verify", "--k", "7"))],
        _check_mub_verify,
    ),
    Job(
        "bounds",
        0,
        lambda seeds, tmp: [Step("cli", ("bounds", "--d", "16", "--m", "1", "--oracle"))],
        _check_bounds,
    ),
    Job(
        "oracle",
        1,
        lambda seeds, tmp: [
            Step("cli", ("oracle", "--d", "16", "--m", "3", "--seed", str(seeds[0])))
        ],
        _check_oracle,
    ),
    Job(
        "eve_sim",
        1,
        lambda seeds, tmp: [Step("libjob", ("eve_sim", "--seed", str(seeds[0])))],
        _check_eve,
    ),
)


# ---------------------------------------------------------------- session


def _sim_args(seed: int, m: int, length_km: int) -> tuple[str, ...]:
    return ("--d", "16", "--m", str(m), "--L", str(length_km),
            "--rounds", str(SIM_ROUNDS), "--seed", str(seed))


def _check_simulate(tmp: Path):
    summary = _json(tmp / "summary.json")
    problems = _z_problems("simulate", summary)
    if summary.get("n_rounds") != SIM_ROUNDS:
        problems.append(f"simulate ran {summary.get('n_rounds')} rounds")
    n_lines = _count_lines(tmp / "transcript.csv")
    if n_lines != SIM_ROUNDS + 2:  # config comment + header + one line per round
        problems.append(f"transcript has {n_lines} lines, expected {SIM_ROUNDS + 2}")
    digests = {name: sha256_file(tmp / name) for name in ("transcript.csv", "summary.json")}
    return problems, digests


def _check_multiparty(tmp: Path):
    summary = _json(tmp / "summary.json")
    problems = []
    digests = {"summary.json": sha256_file(tmp / "summary.json")}
    if summary.get("n_parties") != 3 or len(summary.get("parties", ())) != 3:
        problems.append("multiparty summary does not list 3 parties")
    for party in summary.get("parties", ()):
        problems += _z_problems(f"party {party['party']}", party)
        name = f"transcript.csv.party{party['party']}.csv"
        n_lines = _count_lines(tmp / name)
        if n_lines != SIM_ROUNDS + 1:  # header + one line per round
            problems.append(f"{name} has {n_lines} lines, expected {SIM_ROUNDS + 1}")
        digests[name] = sha256_file(tmp / name)
    return problems, digests


def _check_distill(tmp: Path):
    rep = _json(_stdout(tmp))
    key = np.fromfile(tmp / "key.u8", dtype=np.uint8)
    problems = []
    if key.size != DISTILL_BITS_OUT:
        problems.append(f"privacy amplification returned {key.size} bits, expected {DISTILL_BITS_OUT}")
    if not np.all(key <= 1):
        problems.append("privacy amplification returned values other than 0 and 1")
    if rep.get("n_rounds") != SIM_ROUNDS:
        problems.append(f"distill ran {rep.get('n_rounds')} rounds")
    return problems, {"key.u8": sha256_file(tmp / "key.u8"), "distill.json": sha256_file(_stdout(tmp))}


SESSION = (
    Job(
        "simulate",
        1,
        lambda seeds, tmp: [
            Step("cli", ("simulate", *_sim_args(seeds[0], 4, 50),
                         "--out-transcript", str(tmp / "transcript.csv"),
                         "--out-summary", str(tmp / "summary.json")))
        ],
        _check_simulate,
    ),
    Job(
        "multiparty",
        1,
        lambda seeds, tmp: [
            Step("cli", ("multiparty", "--parties", "3", *_sim_args(seeds[0], 3, 25),
                         "--out-transcript", str(tmp / "transcript.csv"),
                         "--out-summary", str(tmp / "summary.json")))
        ],
        _check_multiparty,
    ),
    Job(
        "distill",
        2,
        lambda seeds, tmp: [
            Step("libjob", ("distill", "--protocol-seed", str(seeds[0]), "--pa-seed", str(seeds[1]),
                            "--out", str(tmp / "key.u8")))
        ],
        _check_distill,
    ),
)


# ---------------------------------------------------------------- ratecurve


def _check_sweep(tmp: Path):
    path = tmp / "sweep.csv"
    problems = _sweep_problems(path.read_text(encoding="utf-8"),
                               SWEEP_CELLS_PER_PROFILE * len(SWEEP_PROFILES))
    return problems, {"sweep.csv": sha256_file(path)}


def _check_rate_script(tmp: Path):
    problems, digests = [], {}
    for profile in SWEEP_PROFILES:
        path = tmp / f"rates_{profile}.csv"
        problems += _sweep_problems(path.read_text(encoding="utf-8"), SWEEP_CELLS_PER_PROFILE)
        digests[path.name] = sha256_file(path)
    return problems, digests


RATECURVE = (
    Job(
        "sweep",
        0,
        lambda seeds, tmp: [
            Step("cli", ("sweep", "--d", SWEEP_DS, "--L", SWEEP_L,
                         "--profile", ",".join(SWEEP_PROFILES), "--out", str(tmp / "sweep.csv")))
        ],
        _check_sweep,
    ),
    Job(
        "rate_script",
        0,
        lambda seeds, tmp: [
            Step("rate_script", ("--d", SWEEP_DS, "--L", SWEEP_L, "--profile", profile,
                                 "--out", str(tmp / f"rates_{profile}.csv")))
            for profile in SWEEP_PROFILES
        ],
        _check_rate_script,
    ),
)


WORKLOADS = {"certify": CERTIFY, "session": SESSION, "ratecurve": RATECURVE}

# The cheapest CLI job of each workload: the traced run times it untraced
# and traced, back to back, for trace.overhead_s.
TRACE_PROBE = {"certify": "bounds", "session": "simulate", "ratecurve": "sweep"}


def _check_closed_form_bounds(tmp: Path):
    rep = _json(_stdout(tmp))
    problems = [] if rep.get("d") == 16 and rep.get("oracle_used") is False else [
        "closed-form bounds report is not for d = 16 without the oracle"]
    return problems, {}


# A CLI call that does almost no work (closed-form bounds only), so that its
# time in a fresh interpreter minus its time in-process is the cost of the
# process itself: interpreter start, imports, argument parsing and exit.
PROCESS_PROBE = Job(
    "process_probe",
    0,
    lambda seeds, tmp: [Step("cli", ("bounds", "--d", "16", "--m", "1"))],
    _check_closed_form_bounds,
)


def derive_seeds(workload: str, seed: int) -> dict[str, list[int]]:
    """One SeedSequence child per job, in job order; jobs get plain ints."""
    jobs = WORKLOADS[workload]
    children = np.random.SeedSequence(seed).spawn(len(jobs))
    return {
        job.name: [int(v) for v in child.generate_state(job.n_seeds)] if job.n_seeds else []
        for job, child in zip(jobs, children)
    }
