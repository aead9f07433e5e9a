"""The altchain benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload laws --seed 1 --seconds 36 --trace 0

Run from the root of a checkout.  The workload's inputs are generated from
the seed under ``perfbench/_work``; every job runs as its own
``python -m altchain.cli`` process with ``src`` on the path, one after
another (a closed loop with one client), and its output is checked against
the known answer.  Rounds of the whole job list repeat for ``--seconds``
(at least one) and each end-to-end metric is read from per-job medians
over rounds.  The job times are reported in calibration units: each job's
seconds divided by the mean time of a fixed piece of pure-Python work timed
just before and just after it (``runner.calibrate``) on the one CPU the
benchmark and its jobs are pinned to, which cancels most of the drift of a
shared host's speed.  The seconds are printed too.

``--trace 1`` instead runs one untraced round, then replays the same jobs
in-process through ``altchain.cli.main`` with timing wrappers on every
module, prints the per-layer metrics, and writes the spans to
``perfbench/_work/trace-<workload>-<seed>.json``.

The last line of standard output is the JSON result.  The exit code is 0
when the run completed, 1 when a predicted-zero call count was nonzero,
and 2 when the sources are missing or the arguments are invalid.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path
from statistics import median, quantiles

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import runner  # noqa: E402
import workloads  # noqa: E402

SETUP_PROBES_PER_ROUND = 3
# setup_s is read in seconds on a CPU where the calibration takes this long,
# about its median on the 2-vCPU x86-64 VM where the benchmark was defined.
CALIBRATION_REFERENCE_S = 0.015


def _spread(values: list) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    q1, _, q3 = quantiles(values, n=4)
    return f"n={len(values)}, quartiles {q1:.4g}..{q3:.4g}"


def _report(attempted: int, failed: int, correct: bool, metrics: dict) -> None:
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


def end_to_end(wl, src: Path, work: Path, seconds: float) -> int:
    # The set-up probes are spread over the run, a few before each round,
    # and each is divided by the calibration around it, as the jobs are:
    # their raw seconds follow the host's drifting speed.  One untimed probe
    # first compiles the package's bytecode, which users pay once.
    probes = [runner.setup_probe(src, work, wl.inputs)]

    def probe_setup():
        probes.extend(runner.setup_probe(src, work, wl.inputs)
                      for _ in range(SETUP_PROBES_PER_ROUND))

    rounds = runner.measure(wl, runner.ProcessExecutor(src, work), seconds, probe_setup)
    setup = [t for _, t, _ in probes[1:]]
    setup_in_cal = [t / cal for _, t, cal in probes[1:]]
    setup_failed = sum(code != 0 for code, _, _ in probes)
    failures = [f for r in rounds for f in r.failures]
    attempted = len(wl.jobs) * len(rounds)
    jobs = runner.job_medians(rounds)
    in_cal = runner.job_cal_medians(rounds)
    seconds_taken = {
        "setup_probe_s": median(setup),
        "wall_s": sum(s.wall_s for s in jobs),
        "cpu_s": sum(s.cpu_s for s in jobs),
        "slowest_job_s": max(s.wall_s for s in jobs),
    }
    metrics = {
        "setup_s": (median(setup_in_cal) * CALIBRATION_REFERENCE_S, "s"),
        "wall_cal": (sum(w for w, _ in in_cal), "cal"),
        "cpu_cal": (sum(c for _, c in in_cal), "cal"),
        "slowest_job_cal": (max(w for w, _ in in_cal), "cal"),
        "peak_rss_mib": (max(s.rss_mib for s in jobs), "MiB"),
    }
    cal = [s.cal_s for r in rounds for s in r.samples]
    print(f"workload {wl.name}: {len(wl.jobs)} jobs per round, {len(rounds)} rounds, "
          f"closed loop, one client; setup probes {_spread(setup)} s, "
          f"round walls {_spread([r.wall_s for r in rounds])}, "
          f"calibration {_spread(cal)}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<16} {value:12.6f} {unit}")
    for name, value in seconds_taken.items():
        print(f"  {name:<16} {value:12.6f} s")
    metrics = {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()}
    print(f"  {'failed_ratio':<16} {len(failures) / attempted:12.6f} ratio "
          f"({len(failures)} of {attempted} jobs)")
    for name, reason in failures:
        print(f"  FAILED {name}: {reason}")
    if setup_failed:
        print(f"  FAILED set-up: {setup_failed} probes exited nonzero")
    _report(attempted, len(failures), not failures and not setup_failed, metrics)
    return 0


def traced(wl, src: Path, work: Path, seed: int) -> int:
    import altchain.cli
    from tracer import Tracer

    base = runner.run_round(wl, runner.ProcessExecutor(src, work))
    tracer = Tracer()
    tracer.install()
    try:
        replay = runner.run_round(wl, runner.InProcessExecutor(altchain.cli),
                                  reference=base.results)
    finally:
        tracer.uninstall()
    failures = base.failures + replay.failures
    output_bytes = sum(len(res.stdout.encode()) + sum(map(len, res.files.values()))
                       for res in replay.results.values())
    metrics = layers.compute(tracer, replay.wall_s, base.wall_s, output_bytes)
    spans_path = HERE / "_work" / f"trace-{wl.name}-{seed}.json"
    tracer.dump(spans_path, [{"job": job.name, "wall_s": s.wall_s}
                             for job, s in zip(wl.jobs, replay.samples)])
    violations = layers.zero_violations(wl.name, tracer)
    print(f"workload {wl.name}: traced replay of {len(wl.jobs)} jobs; spans in {spans_path}")
    for name, m in metrics.items():
        print(f"  {name:<56} {m['value']:>16.6g} {m['unit']}")
    for name, reason in failures:
        print(f"  FAILED {name}: {reason}")
    for v in violations:
        print(f"  PREDICTED ZERO VIOLATED: {v}", file=sys.stderr)
    _report(2 * len(wl.jobs), len(failures), not failures and not violations, metrics)
    return 1 if violations else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "altchain" / "cli.py").is_file():
        print(f"error: no altchain sources at {src}; run from a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    runner.pin_to_one_cpu()
    work = HERE / "_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        wl = workloads.build(args.workload, args.seed, work, src / "altchain" / "data")
        if args.trace:
            return traced(wl, src, work, args.seed)
        return end_to_end(wl, src, work, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
