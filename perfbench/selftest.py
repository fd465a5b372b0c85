"""Self-test of the benchmark's output checks: one corrupted value is caught.

Run from the repository root:  python3 perfbench/selftest.py

For a small detuned-rect map (every point against the Rabi formula), a
small sech curve (every row against scipy DOP853) and one block of point
queries, it checks the clean output, expects no failure, then corrupts one
value and expects exactly one failed point.  Exits 1 otherwise.
"""

from __future__ import annotations

import math
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import workloads  # noqa: E402
from workloads import Job  # noqa: E402


def _scan_workload(job: Job, pulse_argv: list[str], workdir: Path):
    """A one-command workload scanning ``job``; every row is checked."""

    class Scan(workloads.CommandWorkload):
        sample_per_job = job.points

        def build_inputs(self, rng):
            argv = ["scan", "--family", job.family, "--variant", job.variant,
                    f"--phase-pi={job.gate_phase / math.pi!r}", *pulse_argv,
                    "--out", "{out}/" + job.filename]
            for param, lo, hi, n in job.axes:
                argv += ["--axis", param, f"--range={lo!r}:{hi!r}", "--samples", str(n)]
            return [(argv, [job])]

    return Scan(0, workdir)


def _corrupt_row(path: Path, row: int) -> None:
    lines = path.read_text().splitlines(keepends=True)
    data = [i for i, line in enumerate(lines) if not line.startswith("#")]
    fields = lines[data[row]].rstrip("\n").split(",")
    fields[-1] = f"{float(fields[-1]) * 1.001 + 1e-6:.11e}"
    lines[data[row]] = ",".join(fields) + "\n"
    path.write_text("".join(lines))


def _scan_case(name: str, job: Job, pulse_argv: list[str], workdir: Path) -> bool:
    rng = np.random.default_rng(5)
    workload = _scan_workload(job, pulse_argv, workdir / name)
    workload.workdir.mkdir()
    workload.run_pass(0)
    clean = workload.check(rng)
    (path,) = workload.kept.values()
    _corrupt_row(path, int(rng.integers(job.points)))
    corrupted = workload.check_job(job, path, "", rng)
    return _report(name, clean, corrupted)


def _query_case() -> bool:
    rng = np.random.default_rng(5)
    workload = workloads.PointQueries(3, None)
    workload.run_pass(0)
    clean = workload.check(rng)
    # one sech query: the scipy sample covers every sech query of a block
    i = next(i for i, (q, _) in enumerate(workload.results) if q.pulse == "sech")
    q, value = workload.results[i]
    workload.results[i] = (q, value * 1.001 + 1e-6)
    corrupted = workload.check(rng)
    return _report("point-queries", clean, corrupted)


def _report(name: str, clean: int, corrupted: int) -> bool:
    ok = clean == 0 and corrupted == 1
    print(f"{'PASS' if ok else 'FAIL'}  {name}: clean output {clean} failed, "
          f"one corrupted value {corrupted} failed")
    return ok


def main() -> int:
    scratch = ROOT / ".perfbench"
    scratch.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="selftest-", dir=scratch))
    try:
        rect = Job("rect.csv", "universal", "U5a", 0.25 * math.pi, "rect",
                   (("duration_fraction", 0.0, 2.0, 21), ("detuning_times_T", -2.0, 2.0, 21)))
        sech = Job("sech.csv", "detuning", "n5", 0.5 * math.pi, "sech",
                   (("detuning_times_T", -3.0, 3.0, 9),))
        results = [
            _scan_case("detuned-rect map", rect, [], workdir),
            _scan_case("sech curve", sech, ["--pulse", "sech"], workdir),
            _query_case(),
        ]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
