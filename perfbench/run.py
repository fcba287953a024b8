"""Benchmark for the blockdesigns package.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload catalog --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

One run is one process and one workload (see workloads.py).  It imports the
package from ``src/``, builds the seeded inputs, runs one warm-up pass and
then timed passes until ``--seconds`` would be exceeded.  Every item of
every pass is checked against ``goldens.json``.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
untraced and traced passes and reports the per-layer metrics of the traced
ones plus the tracing overhead.  The last line of stdout is a JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``; the full
record (run metadata, pass and item times, spans) goes to
``perfbench/_results/``.  See README.md beside this file.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

import numpy

from spans import LAYER_METRICS, Tracer, layer_metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "_results"
WORKLOAD_NAMES = ("catalog", "affine-cli", "search")

SETUP_REPEATS = 3  # fresh-interpreter imports and input builds per run
MIN_PASSES = 3  # per kind (untraced, traced) even when --seconds is short
TAIL_PERCENTILE = 90
# Times are reported at a reference machine speed: raw seconds scaled by
# REFERENCE_CALIBRATION_S / (measured time of calibrate()).  The reference
# is about the loop's time on a quiet 2-core machine, so reported values
# stay close to seconds there; raw seconds are kept in the record.
CALIBRATION_WINDOW = 6
REFERENCE_CALIBRATION_S = 0.007
CALIBRATION_MASKS = numpy.array(
    [random.Random(0).getrandbits(64) for _ in range(2000 * 4)], dtype=numpy.uint64
).reshape(2000, 4)

END_TO_END_UNITS = {
    "wall_s": "s",
    "wall_tail_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "solved_ratio": "ratio",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_probe() -> None:
    """Start a fresh interpreter that imports blockdesigns and exits: the
    start-up cost every CLI call pays."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    subprocess.run(
        [sys.executable, "-c", "import blockdesigns"],
        cwd=ROOT, env=env, check=True, timeout=60,
    )


def run_metadata(args) -> dict:
    sha = None
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10,
            ).stdout.strip() or None
        except OSError:
            pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "blockdesigns").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "loadavg_1m_at_start": os.getloadavg()[0],
    }


def calibrate() -> float:
    """Seconds taken by a fixed piece of work, independent of the package,
    in the mix the package's own code runs: tuple creation, dict updates and
    recursive calls in pure Python, and numpy bit counts over uint64 masks.
    Other tenants' load moves this machine's speed by tens of percent within
    seconds, and the two parts respond to it differently.  In a 5-minute log
    on a shared 2-core machine, item times went as the pure-Python part's
    time to the power 0.6 and the numpy part's to the power 1.2; with the
    numpy part at about 70% of the total, as here, they went as the total
    to the power 1.0, which is what the scaling assumes."""
    start = time.perf_counter()
    counts: dict = {}
    for block in itertools.combinations(range(12), 5):
        for pair in itertools.combinations(block, 2):
            counts[pair] = counts.get(pair, 0) + 1

    def orderings(depth: int, used: int) -> int:
        if depth == 0:
            return 1
        return sum(
            orderings(depth - 1, used | bit) for bit in (1, 2, 4, 8, 16) if not used & bit
        )

    orderings(5, 0)
    sizes = numpy.zeros(CALIBRATION_MASKS.shape[1] * 64 + 1, dtype=numpy.int64)
    for row in CALIBRATION_MASKS[:60]:
        meets = numpy.bitwise_count(CALIBRATION_MASKS & row).sum(axis=1, dtype=numpy.int64)
        sizes += numpy.bincount(meets, minlength=sizes.size)
    return time.perf_counter() - start


def reference_speeds(calibrations: list[float]) -> list[float]:
    """Speed factor of each timed step, for the calibrations taken before
    the first step and after every step (one more than there are steps).
    A step's factor is REFERENCE_CALIBRATION_S / the median of the
    calibrations in a window of CALIBRATION_WINDOW boundaries around it;
    the median damps the jitter of single calibrations."""
    half = CALIBRATION_WINDOW // 2
    return [
        REFERENCE_CALIBRATION_S / statistics.median(calibrations[max(0, i + 1 - half) : i + 1 + half])
        for i in range(len(calibrations) - 1)
    ]


def timed_steps(steps) -> list[dict]:
    """Run each (label, fn) in turn, with a calibration before the first
    and after every step; returns the raw and reference-speed seconds of
    each step."""
    records = []
    calibrations = [calibrate()]
    for label, fn in steps:
        start = time.perf_counter()
        fn()
        records.append({"label": label, "raw_s": time.perf_counter() - start})
        calibrations.append(calibrate())
    for record, speed in zip(records, reference_speeds(calibrations)):
        record.update(speed=speed, ref_s=record["raw_s"] * speed)
    return records


def run_pass(workload, pass_index: int, tracer=None) -> dict:
    """Run and check one pass.

    An item's time covers its call; the pass time covers calls, checks and
    file clean-up.  A calibration loop runs before and after every item
    (outside every timed region and span).  Each item's times are also given
    at reference speed (see reference_speeds).
    """
    items = workload.items(pass_index)
    records = []
    mark = None
    calibrations = [calibrate()]
    if tracer is not None:
        tracer.install()
        mark = tracer.mark()
    try:
        for item in items:
            start = time.perf_counter()
            if item.prepare is not None:
                item.prepare()
            t0 = time.perf_counter()
            try:
                value, error = item.call(), None
            except Exception as exc:  # an unexpected raise is a failed item
                value, error = None, f"{type(exc).__name__}: {exc}"
            t1 = time.perf_counter()
            record = {"label": item.label, "call_s": t1 - t0,
                      "ok": False, "solved": None, "detail": error}
            if error is None:
                outcome = item.check(value)
                record.update(ok=outcome.ok, solved=outcome.solved, detail=outcome.detail)
            record["item_s"] = time.perf_counter() - start
            records.append(record)
            calibrations.append(calibrate())
    finally:
        if tracer is not None:
            tracer.uninstall()
    for record, speed in zip(records, reference_speeds(calibrations)):
        record.update(speed=speed, call_ref_s=record["call_s"] * speed,
                      item_ref_s=record["item_s"] * speed)
    pass_s = sum(r["item_s"] for r in records)
    pass_ref_s = sum(r["item_ref_s"] for r in records)
    result = {"index": pass_index, "traced": tracer is not None, "pass_s": pass_s,
              "pass_ref_s": pass_ref_s, "calibrations": calibrations, "items": records}
    if tracer is not None:
        summary = tracer.summarize(mark)
        result["summary"] = summary
        self_total = sum(entry["self_s"] for entry in summary["layers"].values())
        harness = pass_s - sum(r["call_s"] for r in records)
        result["accounting"] = {
            "self_s_total": self_total,
            "harness_s": harness,
            "pass_s": pass_s,
            "residual_s": pass_s - (self_total + harness),
        }
    return result


def percentile(values, p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * p // 100))
    return ordered[int(rank) - 1]


def slowdowns(passes, key: str) -> list[float]:
    """Each call's time (under ``key``) divided by the median time of the
    calls of its kind (same label) in these passes."""
    by_kind = defaultdict(list)
    for p in passes:
        for r in p["items"]:
            by_kind[r["label"]].append(r[key])
    return [t / statistics.median(times) for times in by_kind.values() for t in times]


def end_to_end(passes, setup_s: float) -> tuple[dict, dict]:
    times = [p["pass_ref_s"] for p in passes]
    slow = slowdowns(passes, "call_ref_s")
    tail_slowdown = percentile(slow, TAIL_PERCENTILE)
    raw_wall = statistics.median(p["pass_s"] for p in passes)
    searches = [r["solved"] for p in passes for r in p["items"] if r["solved"] is not None]
    items = [r for p in passes for r in p["items"]]
    metrics = {
        "wall_s": statistics.median(times),
        "wall_tail_s": statistics.median(times) * tail_slowdown,
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "solved_ratio": sum(searches) / len(searches) if searches else 1.0,
    }
    details = {
        "raw_wall_s": raw_wall,
        "raw_wall_tail_s": raw_wall * percentile(slowdowns(passes, "call_s"), TAIL_PERCENTILE),
        "passes": len(times),
        "items": len(slow),
        "tail_percentile": TAIL_PERCENTILE,
        "tail_slowdown": tail_slowdown,
        "tail_items_beyond": sum(1 for x in slow if x > tail_slowdown),
        "searches_attempted": len(searches),
        "searches_solved": sum(searches),
        "failed_ratio": sum(not r["ok"] for r in items) / len(items),
    }
    return metrics, details


def traced_metrics(passes) -> tuple[dict, dict]:
    traced = [p for p in passes if p["traced"]]
    plain = [p for p in passes if not p["traced"]]
    per_pass = []
    for p in traced:
        speed = statistics.median(r["speed"] for r in p["items"])
        values = layer_metrics(p["summary"])
        per_pass.append(
            {name: values[name] * speed if unit == "s" else values[name]
             for name, unit in LAYER_METRICS}
        )
    metrics = {
        name: statistics.median(values[name] for values in per_pass)
        for name, _ in LAYER_METRICS
    }
    traced_wall = statistics.median(p["pass_ref_s"] for p in traced)
    plain_wall = statistics.median(p["pass_ref_s"] for p in plain)
    metrics["trace_overhead_ratio"] = traced_wall / plain_wall
    details = {
        "traced_passes": len(traced),
        "untraced_passes": len(plain),
        "traced_wall_s": traced_wall,
        "untraced_wall_s": plain_wall,
        "accounting": [p["accounting"] for p in traced],
    }
    return metrics, details


def run_workload(args) -> int:
    process_start = time.perf_counter()
    if not (SRC / "blockdesigns" / "__init__.py").is_file():
        print(f"error: no package at {SRC / 'blockdesigns'}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path.insert(0, str(SRC))
    meta = run_metadata(args)

    import workloads  # imports blockdesigns; fresh imports are timed below

    with open(HERE / "goldens.json") as handle:
        goldens = json.load(handle)
    workload = workloads.WORKLOADS[args.workload](args.seed, goldens)
    steps = timed_steps(
        [("import_s", import_probe)] * SETUP_REPEATS + [("build_s", workload.build)] * SETUP_REPEATS
    )
    warmup = run_pass(workload, -1)
    setup = {
        label: {kind: statistics.median(r[kind] for r in steps if r["label"] == label)
                for kind in ("raw_s", "ref_s")}
        for label in ("import_s", "build_s")
    }
    setup["warmup_s"] = {"raw_s": warmup["pass_s"], "ref_s": warmup["pass_ref_s"]}
    setup_s = sum(part["ref_s"] for part in setup.values())
    meta["budgets"] = workload.budgets()

    tracer = Tracer() if args.trace else None
    passes = []
    loop_start = time.perf_counter()
    estimate = warmup["pass_s"]
    while True:
        kinds = [p["traced"] for p in passes]
        short = min(kinds.count(False), kinds.count(True) if tracer else MIN_PASSES)
        elapsed = time.perf_counter() - loop_start
        if short >= MIN_PASSES and elapsed + estimate > args.seconds:
            break
        traced = tracer is not None and len(passes) % 2 == 1
        passes.append(run_pass(workload, len(passes), tracer if traced else None))
        estimate = statistics.median(p["pass_s"] for p in passes)
    total_s = time.perf_counter() - process_start

    items = [r for p in passes for r in p["items"]]
    failures = [
        {"pass": p["index"], "label": r["label"], "detail": r["detail"]}
        for p in [warmup] + passes
        for r in p["items"]
        if not r["ok"]
    ]
    metrics, details = end_to_end([p for p in passes if not p["traced"]], setup_s)
    units = dict(END_TO_END_UNITS)
    if tracer is not None:
        metrics, trace_details = traced_metrics(passes)
        details.update(trace_details)
        units = dict(LAYER_METRICS, trace_overhead_ratio="ratio")
    details.update(
        setup_steps=steps,
        setup_ref_s={label: part["ref_s"] for label, part in setup.items()},
        setup_raw_s={label: part["raw_s"] for label, part in setup.items()},
        run_s=total_s,
    )
    result = {
        "correct": not failures,
        "attempted": len(items),
        "failed": sum(not r["ok"] for r in items),
        "metrics": {
            name: {"value": value, "unit": units[name]} for name, value in metrics.items()
        },
    }

    RESULTS.mkdir(exist_ok=True)
    record_path = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record = {"meta": meta, "result": result, "details": details, "failures": failures,
              "warmup": warmup,
              "passes": [{k: v for k, v in p.items() if k != "summary"} for p in passes]}
    if tracer is not None:
        record["spans"] = tracer.spans
    with open(record_path, "w") as handle:
        json.dump(record, handle, default=str)

    for failure in failures[:10]:
        print(f"FAILED pass {failure['pass']} {failure['label']}: {failure['detail']}"[:500])
    print(f"{args.workload} seed={args.seed} trace={args.trace} passes={len(passes)} "
          f"items={len(items)} failed={result['failed']} "
          f"failed_ratio={details['failed_ratio']:.4f} record={record_path.relative_to(ROOT)}")
    for name, entry in result["metrics"].items():
        print(f"  {name:48s} {entry['value']:.6g} {entry['unit']}")
    print(json.dumps({"meta": meta}))
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Each workload in its own process; prints every metric by name."""
    results = {}
    for name in WORKLOAD_NAMES:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=600)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            return proc.returncode
        results[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    print(f"{'workload':12s} {'metric':48s} {'value':>12s} unit")
    for name, result in results.items():
        for metric, entry in result["metrics"].items():
            print(f"{name:12s} {metric:48s} {entry['value']:12.6g} {entry['unit']}")
        print(f"{name:12s} {'correct':48s} {str(result['correct']):>12s} "
              f"({result['failed']} of {result['attempted']} items failed)")
    print(json.dumps(results))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
