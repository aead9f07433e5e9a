"""Run the benchmark over several seeds and summarise each metric.

    python3 perfbench/record.py --seeds 1-10 [--workloads laws,cochain_ops]
                                [--seconds 40] [--trace 0] [--out FILE]

Runs ``run.py`` once per workload and seed, one run at a time, and prints
for every metric the median, the quartiles and their distance as a share of
the median (the run-to-run spread the benchmark's bounds are set against).
With ``--out`` the summary is also written as JSON, together with the
environment: Python version, processor count and git revision.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path
from statistics import median, quantiles

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402


def _seeds(text: str) -> list:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def _revision() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return out.stdout.strip()


def summarise(values: list) -> dict:
    mid = median(values)
    q1, _, q3 = quantiles(values, n=4) if len(values) > 1 else (mid, mid, mid)
    return {"median": mid, "q1": q1, "q3": q3, "runs": len(values),
            "spread": (q3 - q1) / mid if mid else 0.0}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    parser.add_argument("--seconds", default="40")
    parser.add_argument("--trace", default="0", choices=("0", "1"))
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)

    summary = {}
    for workload in args.workloads.split(","):
        values: dict = {}
        units: dict = {}
        failed = 0
        for seed in _seeds(args.seeds):
            start = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", args.seconds, "--trace", args.trace],
                cwd=ROOT, capture_output=True, text=True)
            result = json.loads(proc.stdout.splitlines()[-1])
            failed += result["failed"] + (not result["correct"]) + (proc.returncode != 0)
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
                units[name] = m["unit"]
            print(f"{workload} seed {seed} ({time.perf_counter() - start:.1f} s): " + " ".join(
                f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()
                if args.trace == "0"), flush=True)
        summary[workload] = {name: {"unit": units[name], **summarise(v)}
                             for name, v in values.items()}
        for name, s in summary[workload].items():
            print(f"  {workload} {name}: median {s['median']:.6g} {s['unit']}, "
                  f"quartiles {s['q1']:.6g}..{s['q3']:.6g}, spread {s['spread']:.4f}")
        if failed:
            print(f"  {workload}: {failed} failures or incorrect runs")
    if args.out:
        env = {"python": platform.python_version(), "nproc": os.cpu_count(),
               "machine": platform.machine(), "git_revision": _revision(),
               "seconds": args.seconds, "seeds": args.seeds, "trace": args.trace}
        Path(args.out).write_text(json.dumps({"environment": env, "workloads": summary},
                                             indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
