"""Record the benchmark medians of one change as ``BENCH_<pr>.json``.

Usage, from the root of a checkout::

    python3 tools/bench_record.py --pr 15 --seeds 1 2 3 --seconds 35

Runs ``perfbench/run.py --workload all`` once per seed, each workload in
its own process, and writes the median over the seeds of every end-to-end
metric of every workload, with the values of each seed, whether every run
was correct, and the git commit, CPU count and Python and numpy versions
that produced them; the commit and whether the tree was dirty are null
outside a git checkout.  One more run with ``--trace 1``, at the first seed,
adds the per-layer self times of each workload under ``per_layer``.  The
file goes to the root of the checkout unless ``--out`` names another path.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import numpy

ROOT = Path(__file__).resolve().parent.parent


def _git(*args: str) -> str | None:
    """What git prints in ROOT, or None outside a git checkout (an export
    made with `git archive`, or a tarball)."""
    if not (ROOT / ".git").exists():
        return None
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True,
                          check=True).stdout.strip()


def run_seed(seed: int, seconds: float, trace: int = 0) -> dict:
    """{workload: run.py's result object} for one seed."""
    argv = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", "all",
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def self_times(traced: dict) -> dict:
    """Per workload, the metrics in seconds of one traced run: the self
    time of each layer."""
    return {
        name: {metric: entry["value"] for metric, entry in result["metrics"].items()
               if entry["unit"] == "s"}
        for name, result in traced.items()
    }


def summarize(runs: dict[int, dict]) -> dict:
    """Per workload: the median and per-seed values of each metric."""
    workloads = {}
    for name in next(iter(runs.values())):
        results = {seed: run[name] for seed, run in runs.items()}
        metrics = {}
        for metric, entry in next(iter(results.values()))["metrics"].items():
            values = [result["metrics"][metric]["value"] for result in results.values()]
            metrics[metric] = {"median": statistics.median(values), "unit": entry["unit"],
                               "values": values}
        workloads[name] = {
            "metrics": metrics,
            "correct": all(result["correct"] for result in results.values()),
            "attempted": sum(result["attempted"] for result in results.values()),
            "failed": sum(result["failed"] for result in results.values()),
        }
    return workloads


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--pr", type=int, required=True, help="number in the file name")
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    parser.add_argument("--seconds", type=float, default=35.0,
                        help="timed seconds per workload and seed")
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args(argv)

    runs = {}
    for seed in args.seeds:
        runs[seed] = run_seed(seed, args.seconds)
        print(f"seed {seed} done", file=sys.stderr)
    traced = run_seed(args.seeds[0], args.seconds, trace=1)
    print(f"traced seed {args.seeds[0]} done", file=sys.stderr)
    status = _git("status", "--porcelain", "--untracked-files=no")
    record = {
        "pr": args.pr,
        "git_sha": _git("rev-parse", "HEAD"),
        "git_dirty": None if status is None else bool(status),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "seeds": args.seeds,
        "seconds": args.seconds,
        "workloads": summarize(runs),
        "per_layer": self_times(traced),
    }
    out = args.out or ROOT / f"BENCH_{args.pr}.json"
    out.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    for name, workload in record["workloads"].items():
        for metric, entry in workload["metrics"].items():
            print(f"{name:12s} {metric:14s} {entry['median']:12.6g} {entry['unit']}")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
