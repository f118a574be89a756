"""Running jobs: in fresh interpreters with per-child rusage, or in-process."""

from __future__ import annotations

import contextlib
import os
import shutil
import subprocess
import sys
import tempfile
import threading
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from workloads import Job

# A job that runs longer than this is killed and counts as failed.
JOB_TIMEOUT_S = 100.0
# Mirrors the `mubqct` console-script entry point.
CLI_BOOT = "import sys; from mubqct.cli import main; sys.exit(main())"


@dataclass
class JobRun:
    """One execution of one job: its time, memory and check outcome."""

    name: str
    wall_s: float = 0.0
    cpu_s: float = 0.0  # user + system time of the children; 0 in-process
    peak_rss_mb: float = 0.0
    exit_codes: list[int] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)
    digests: dict[str, str] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.problems

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "wall_s": self.wall_s,
            "cpu_s": self.cpu_s,
            "peak_rss_mb": self.peak_rss_mb,
            "exit_codes": self.exit_codes,
            "ok": self.ok,
            "problems": self.problems,
            "digests": self.digests,
        }


class Checkout:
    """Paths and the child environment of the checkout under test."""

    def __init__(self, root: Path):
        self.root = root
        self.src = root / "src"
        self.rate_script = root / "scripts" / "rate_vs_distance.py"
        self.libjobs = root / "perfbench" / "libjobs.py"
        self.tmp_root = root / ".perfbench_tmp"
        self.out_dir = root / ".perfbench_out"
        env = dict(os.environ)
        env.pop("MUBQCT_SEED", None)
        env["PYTHONPATH"] = str(self.src)
        self.env = env

    def missing(self) -> list[str]:
        need = [self.src / "mubqct" / "__init__.py", self.rate_script, self.libjobs]
        return [str(p.relative_to(self.root)) for p in need if not p.is_file()]

    def argv(self, entry: str, args) -> list[str]:
        head = {
            "cli": ["-c", CLI_BOOT],
            "rate_script": [str(self.rate_script)],
            "libjob": [str(self.libjobs)],
        }[entry]
        return [sys.executable, *head, *args]

    @contextlib.contextmanager
    def job_dir(self, name: str):
        """A fresh temp dir inside the checkout, removed when the job ends."""
        self.tmp_root.mkdir(exist_ok=True)
        tmp = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=self.tmp_root))
        try:
            yield tmp
        finally:
            shutil.rmtree(tmp, ignore_errors=True)

    def cleanup(self) -> None:
        shutil.rmtree(self.tmp_root, ignore_errors=True)


def run_process(argv, cwd: Path, env: dict, stdout: Path, stderr: Path,
                timeout: float = JOB_TIMEOUT_S) -> tuple[float, float, float, int]:
    """Run one child to completion: (wall s, CPU s, peak RSS in MB, exit code).

    Peak RSS comes from the child's own rusage via wait4; RUSAGE_CHILDREN
    would report the maximum over every child reaped so far.
    """
    with open(stdout, "wb") as out, open(stderr, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdin=subprocess.DEVNULL,
                                stdout=out, stderr=err)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - t0
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            timer.cancel()
            if proc.returncode is None:
                proc.kill()
                proc.wait()
    return wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss * 1024 / 1e6, proc.returncode


def _record(run: JobRun, job: Job, tmp: Path) -> None:
    if any(code != 0 for code in run.exit_codes):
        run.problems.append(f"exit codes {run.exit_codes}")
        return
    try:
        problems, run.digests = job.check(tmp)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        problems = [f"output check could not read the outputs: {exc!r}"]
    run.problems.extend(problems)


def run_job_subprocess(co: Checkout, job: Job, seeds: list[int]) -> JobRun:
    """Each step in a fresh interpreter, one at a time; then the check."""
    run = JobRun(job.name)
    with co.job_dir(job.name) as tmp:
        for i, step in enumerate(job.steps(seeds, tmp)):
            wall, cpu, rss, code = run_process(co.argv(step.entry, step.args), co.root, co.env,
                                          tmp / f"stdout{i}.txt", tmp / f"stderr{i}.txt")
            run.wall_s += wall
            run.cpu_s += cpu
            run.peak_rss_mb = max(run.peak_rss_mb, rss)
            run.exit_codes.append(code)
            if code != 0:
                err = (tmp / f"stderr{i}.txt").read_text(errors="replace").strip()
                run.problems.append(f"step {i} exited {code}: {err[-400:]}")
                break
        _record(run, job, tmp)
    return run


def run_job_inprocess(co: Checkout, job: Job, seeds: list[int],
                      entries: dict[str, Callable[[list[str]], int]],
                      around_step: Callable[[str, object], contextlib.AbstractContextManager]) -> JobRun:
    """Each step as an in-process call of the same entry point.

    around_step(job name, step) wraps each call; the traced run opens the
    job's root span there.  Peak RSS is not measured in-process.
    """
    run = JobRun(job.name)
    with co.job_dir(job.name) as tmp:
        for i, step in enumerate(job.steps(seeds, tmp)):
            with open(tmp / f"stdout{i}.txt", "w", encoding="utf-8") as out, \
                    open(tmp / f"stderr{i}.txt", "w", encoding="utf-8") as err, \
                    contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                t0 = time.perf_counter()
                try:
                    with around_step(job.name, step):
                        code = entries[step.entry](list(step.args))
                except Exception:  # a failing job is counted, the run goes on
                    code = -1
                    run.problems.append(traceback.format_exc(limit=3)[-600:])
                run.wall_s += time.perf_counter() - t0
            run.exit_codes.append(code)
            if code != 0:
                break
        _record(run, job, tmp)
    return run
