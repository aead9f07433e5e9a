"""Run a workload's jobs, one at a time, as real CLI processes or in-process.

Closed loop with one client: the next job starts only when the previous one
has been reaped.  Each process is reaped with ``os.wait4``, whose rusage
gives the job's own CPU time and peak resident set.

Just before and just after each job the runner times a fixed piece of
pure-Python work in its own process, the calibration.  On a shared host the
speed of a vCPU drifts by a quarter within minutes, for every program
alike; a job's time divided by the mean of the two calibrations around it
cancels most of that drift.  The benchmark and its jobs share one CPU
(``pin_to_one_cpu``), so that the calibration measures the CPU the jobs
run on.
"""

from __future__ import annotations

import contextlib
import io
import os
import subprocess
import sys
import threading
import time
import traceback
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from statistics import median

from workloads import Job, Result, Workload

JOB_TIMEOUT_S = 90

SETUP_PROBE = """\
import json, sys
import altchain.cli
from altchain.cochain_algebra import cochain_from_json
from altchain.complex_model import load_complex
for path in sys.argv[1:]:
    with open(path) as fh:
        data = json.load(fh)
    (cochain_from_json if "degree" in data else load_complex)(data)
"""


def pin_to_one_cpu() -> None:
    """Keep this process, and every process it starts, on one CPU.  Jobs
    never overlap, so this takes no parallelism away from them."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def calibrate() -> float:
    """Wall time of a fixed piece of integer, dict and Fraction arithmetic,
    the kinds of work altchain does; about 15 ms on a 2-vCPU x86-64 VM.
    It allocates little, because a job's peak resident set as ``wait4``
    reports it starts from the size of the process that spawned it."""
    start = time.perf_counter()
    total, table = 0, {}
    for i in range(60000):
        total += i
        table[i & 255] = table.get(i >> 8, 0) + total
    for i in range(1, 400):
        total = Fraction(total, i) + i
    return time.perf_counter() - start


@dataclass
class Sample:
    wall_s: float
    cpu_s: float
    rss_mib: float
    cal_s: float = 0.0      # mean of the calibrations around the job


def child_env(src: Path) -> dict:
    env = {k: v for k, v in os.environ.items()
           if k not in ("ALTCHAIN_MAX_GENERATORS", "PYTHONPATH")}
    env["PYTHONPATH"] = str(src)
    return env


def spawn(argv: list, env: dict, cwd: Path, stdout_path: Path) -> tuple:
    """Run one process to completion; return (exit code, Sample)."""
    with open(stdout_path, "wb") as out, open(os.devnull, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, cwd=cwd, stdout=out, stderr=err)
        watchdog = threading.Timer(JOB_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
    proc.returncode = code = os.waitstatus_to_exitcode(status)
    return code, Sample(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024)


def _collect(job: Job, code: int, stdout: str) -> Result:
    files = {}
    for path in job.outputs:
        with contextlib.suppress(OSError):
            files[path] = Path(path).read_bytes()
    return Result(code, stdout, files)


def _clear_outputs(job: Job) -> None:
    for path in job.outputs:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(path)


class ProcessExecutor:
    """Each job as ``python -m altchain.cli ...`` with ``src`` on the path."""

    def __init__(self, src: Path, work: Path):
        self.env = child_env(src)
        self.work = work

    def __call__(self, job: Job) -> tuple:
        _clear_outputs(job)
        stdout_path = self.work / "stdout.txt"
        before = calibrate()
        code, sample = spawn([sys.executable, "-m", "altchain.cli", *job.argv],
                             self.env, self.work, stdout_path)
        sample.cal_s = (before + calibrate()) / 2
        text = stdout_path.read_text(errors="replace")
        return _collect(job, code, text), sample


class InProcessExecutor:
    """Each job through ``altchain.cli.main`` in this interpreter; the
    traced run uses this so that wrappers see every call."""

    def __init__(self, cli_module):
        self.cli = cli_module

    def __call__(self, job: Job) -> tuple:
        _clear_outputs(job)
        out = io.StringIO()
        start, cpu = time.perf_counter(), time.process_time()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            try:
                code = self.cli.main(job.argv)
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 1
            except Exception:
                traceback.print_exc(file=sys.stderr)
                code = 1
        sample = Sample(time.perf_counter() - start, time.process_time() - cpu, 0.0)
        return _collect(job, code, out.getvalue()), sample


@dataclass
class Round:
    samples: list           # Sample per job
    failures: list          # (job name, reason)
    results: dict           # job name -> Result

    @property
    def wall_s(self) -> float:
        return sum(s.wall_s for s in self.samples)


def run_round(workload: Workload, execute, reference: "dict | None" = None) -> Round:
    """Run every job once, then check each output.  The first round is
    checked against the known answers; later rounds (and the traced replay)
    must also reproduce the first round's output byte for byte."""
    samples, results = [], {}
    for job in workload.jobs:
        res, sample = execute(job)
        samples.append(sample)
        results[job.name] = res
    failures = []
    done: dict = {}
    for job in workload.jobs:
        res = results[job.name]
        try:
            reason = job.check(res, done)
        except Exception as exc:  # a malformed output is a failed job
            reason = f"output could not be checked: {exc!r}"
        if reason is None and reference is not None and res != reference[job.name]:
            reason = "output differs from the first round of this run"
        if reason is not None:
            failures.append((job.name, reason))
        done[job.name] = res
    return Round(samples, failures, results)


def measure(workload: Workload, execute, seconds: float, before_round=None) -> list:
    """Repeat rounds for ``seconds``: one, and another only while the median
    round so far still fits in the remaining time, so that a run on a slow
    machine measures fewer rounds instead of running long.  ``before_round``,
    when given, is called at the start of every round and timed with it."""
    rounds, spans = [], []
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        if before_round is not None:
            before_round()
        reference = rounds[0].results if rounds else None
        rounds.append(run_round(workload, execute, reference))
        now = time.perf_counter()
        spans.append(now - began)
        if now - start + median(spans) > seconds:
            return rounds


def setup_probe(src: Path, work: Path, inputs: list) -> tuple:
    """Start a fresh interpreter that imports ``altchain.cli`` and parses
    the workload's inputs with the package's loaders; return its exit code,
    its wall time and the mean of the calibrations around it."""
    before = calibrate()
    code, sample = spawn([sys.executable, "-c", SETUP_PROBE, *inputs],
                         child_env(src), work, work / "setup.txt")
    return code, sample.wall_s, (before + calibrate()) / 2


def job_medians(rounds: list) -> list:
    """Per job, the median Sample over rounds: a burst of interference
    that slows one round does not move the job's figure."""
    return [Sample(*(median(getattr(r.samples[j], f) for r in rounds)
                     for f in ("wall_s", "cpu_s", "rss_mib", "cal_s")))
            for j in range(len(rounds[0].samples))]


def job_cal_medians(rounds: list) -> list:
    """Per job, the medians over rounds of its wall and CPU seconds, each
    divided by the calibration around it: (wall, cpu) in calibration units."""
    return [tuple(median(getattr(r.samples[j], f) / r.samples[j].cal_s for r in rounds)
                  for f in ("wall_s", "cpu_s"))
            for j in range(len(rounds[0].samples))]
