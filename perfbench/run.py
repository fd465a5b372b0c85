"""cpgates benchmark: end-to-end metrics per workload, per-layer metrics traced.

Run from the repository root:

    python3 perfbench/run.py --workload fig-sech --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10

One run repeats whole passes of the workload until ``--seconds`` of pass
time have gone by, and at least two, in one process at the default worker
count.  With ``--trace 0`` it reports the end-to-end metrics; with
``--trace 1`` the same loop runs with spans recorded and it reports the
per-layer metrics.  Timed metrics are wall time adjusted to a reference
host speed (``hostspeed.py``); the raw wall-time figures are printed and
recorded beside them.  Every output is checked against the
oracles in ``oracle.py``; the last line of stdout is one JSON result and
the exit code is 1 if any point failed.
``--workload all`` runs every workload in its own process, untraced and
traced, and prints the tables the README's baseline comes from, with the
tracing overhead (traced against untraced points per second).

The package is imported from ``src/`` beside this directory; without it the
benchmark exits 2.  Scratch files go to ``.perfbench/`` under the root.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".perfbench"
WORKLOAD_NAMES = ("fig-sech", "fig-rect-map", "closed-form-map", "point-queries")
SETUP_PROBES = 9  # set-ups per run; setup_s is their median


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _declared_metrics(trace: bool) -> dict[str, str]:
    """Metric name -> unit, in the order BENCHMARK.json lists them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        child = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                               text=True, timeout=30, cwd=ROOT)
    except OSError:
        return None
    return child.stdout.strip() if child.returncode == 0 else None


def _environment(seed: int) -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": importlib.metadata.version("scipy"),
        "platform": platform.platform(),
        "git_commit": _git_commit(),
        "seed": seed,
    }


def _measure_setup(name: str, seed: int, workdir: Path) -> list[tuple[float, float]]:
    """(wall seconds, calibration seconds) of each set-up.

    The probe times the calibration loop in its own process just after the
    first point, untimed: the parent cannot follow the host speed the child
    sees, since the child may run on another CPU.
    """
    samples = []
    for _ in range(SETUP_PROBES):
        start = time.monotonic()
        child = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), name, str(seed), str(workdir)],
            capture_output=True, text=True, timeout=120, cwd=ROOT)
        if child.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{child.stderr}")
        first_point, calibration = map(float, child.stdout.split()[-2:])
        samples.append((first_point - start, calibration))
    return samples


def _measure(workload, seconds: float, tracer=None) -> list:
    """Whole passes until ``seconds`` of pass time, and at least the minimum.

    Two passes at least, so that a run of a 12-second preset on a slow
    moment of a shared host still averages over more than one pass.
    """
    min_passes = max(2, getattr(workload, "MIN_QUERIES", 0) // workload.points_per_pass)
    passes = []
    while sum(p.seconds for p in passes) < seconds or len(passes) < min_passes:
        if tracer is not None:
            tracer.run_id = len(passes)
        passes.append(workload.run_pass(len(passes)))
    return passes


def _timings(passes, seconds) -> dict[str, float]:
    """The timed end-to-end metrics from per-pass and per-request times."""
    latencies = [seconds(*r) * 1e6 for p in passes for r in p.requests]
    return {
        "points_per_s": (sum(p.points for p in passes)
                         / sum(seconds(p.start, p.end) for p in passes)),
        "query_p50_us": float(np.percentile(latencies, 50)),
        "query_p99_us": float(np.percentile(latencies, 99)),
    }


def run_one(args) -> int:
    import hostspeed
    import tracing
    import workloads

    SCRATCH.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=SCRATCH))
    speed = hostspeed.HostSpeed()
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
        setup = [] if args.trace else _measure_setup(args.workload, args.seed, workdir)
        tracer = tracing.Tracer() if args.trace else None
        if tracer is not None:
            tracer.install()
        try:
            with speed:
                passes = _measure(workload, args.seconds, tracer)
        finally:
            if tracer is not None:
                tracer.uninstall()
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        failed = workload.check(np.random.default_rng([args.seed, 1]))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(p.points for p in passes)
    timings = _timings(passes, speed.adjust)
    raw = _timings(passes, lambda t0, t1: t1 - t0)
    if setup:
        timings["setup_s"] = statistics.median(
            wall * speed.REFERENCE / calibration for wall, calibration in setup)
        raw["setup_s"] = statistics.median(wall for wall, _ in setup)
    samples = sum(len(p.requests) for p in passes)
    if tracer is not None:
        metrics = tracing.layer_metrics(tracer.spans, len(passes))
        metrics["trace.points_per_s"] = timings["points_per_s"]
        tracer.write(SCRATCH / f"spans-{args.workload}.jsonl")
    else:
        metrics = dict(timings, peak_rss_mb=peak_rss_mb)

    units = _declared_metrics(bool(args.trace))
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics differ from BENCHMARK.json: "
                           f"{sorted(set(metrics) ^ set(units))}")
    record = {
        "workload": args.workload,
        "trace": args.trace,
        "environment": _environment(args.seed),
        "input": workload.describe(),
        "passes": len(passes),
        "pass_seconds": [p.seconds for p in passes],
        "setup_samples": setup,  # (wall seconds, calibration seconds) per probe
        "query_samples": samples,
        "raw_wall_time": raw,
        "host": speed.record(),
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed / attempted,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }
    (SCRATCH / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")

    print(f"# environment {json.dumps(record['environment'])}")
    print(f"# input {json.dumps(record['input'])}")
    for name, unit in units.items():
        print(f"{args.workload}  {name} = {metrics[name]:.6g} {unit}")
    print(f"{args.workload}  failed_frac = {record['failed_frac']:.6g} "
          f"({failed} of {attempted} points)")
    print(f"{args.workload}  query samples = {samples} in {len(passes)} passes")
    print(f"{args.workload}  raw wall time: " + ", ".join(
        f"{name} = {value:.6g}" for name, value in raw.items()))
    print(f"{args.workload}  host: " + ", ".join(
        f"{name} = {value:.6g}" for name, value in record["host"].items()))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": record["metrics"],
    }))
    return 0 if failed == 0 else 1


def run_all(args) -> int:
    """Every workload in its own process, untraced then traced; print tables."""
    results = {}
    for trace_flag in (0, 1):
        for name in WORKLOAD_NAMES:
            child = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", name,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(trace_flag)],
                capture_output=True, text=True, timeout=900, cwd=ROOT)
            sys.stderr.write(child.stderr)
            if not child.stdout.strip():
                print(f"{name}: no result (exit {child.returncode})", file=sys.stderr)
                return 1
            results[name, trace_flag] = json.loads(child.stdout.strip().splitlines()[-1])

    def value(workload, trace_flag, metric):
        return results[workload, trace_flag]["metrics"][metric]["value"]

    for trace_flag, title in ((0, "End-to-end"), (1, "Per layer (traced run)")):
        units = _declared_metrics(bool(trace_flag))
        print(f"\n{title}, seed {args.seed}, {args.seconds:g} s per run\n")
        print("| metric | unit | " + " | ".join(WORKLOAD_NAMES) + " |")
        print("|---|---|" + "---|" * len(WORKLOAD_NAMES))
        for metric, unit in units.items():
            cells = [f"{value(w, trace_flag, metric):.4g}" for w in WORKLOAD_NAMES]
            print(f"| {metric} | {unit} | " + " | ".join(cells) + " |")
        if trace_flag:
            cells = [f"{1 - value(w, 1, 'trace.points_per_s') / value(w, 0, 'points_per_s'):.3g}"
                     for w in WORKLOAD_NAMES]
            print("| trace overhead (1 - traced/untraced points_per_s) | ratio | "
                  + " | ".join(cells) + " |")
        else:
            cells = [f"{results[w, 0]['failed'] / results[w, 0]['attempted']:.3g}"
                     for w in WORKLOAD_NAMES]
            print("| failed_frac | ratio | " + " | ".join(cells) + " |")

    summary = {"environment": _environment(args.seed),
               "results": {f"{w}/trace{t}": r for (w, t), r in results.items()}}
    (SCRATCH / f"summary-seed{args.seed}.json").write_text(json.dumps(summary, indent=1) + "\n")
    failed = sum(r["failed"] for r in results.values())
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": failed,
        "metrics": {f"{w}.{m}": v for (w, t), r in results.items() if t == 0
                    for m, v in r["metrics"].items()},
    }))
    return 0 if failed == 0 else 1


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (SRC / "cpgates" / "__init__.py").is_file():
        print(f"error: no cpgates source tree at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import cpgates

    if Path(cpgates.__file__).resolve().parent != SRC / "cpgates":
        print(f"error: imported cpgates from {cpgates.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
