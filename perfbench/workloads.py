"""The four benchmark workloads: inputs from a seed, one pass, output checks.

A pass is the unit a run repeats until its time is up:

- ``fig-sech``: ``cpgates preset fig2`` then ``fig3`` (12 jobs, 14,412
  points of sech pulses through the integrator);
- ``fig-rect-map``: ``cpgates preset fig4`` (2 maps sharing one grid,
  181,202 points of detuned rectangular pulses);
- ``closed-form-map``: one ``cpgates scan`` of a broadband n25 gate over a
  seeded 601 x 601 resonant-rect map, then ``read_scan_csv`` of its CSV;
- ``point-queries``: a block of 100 seeded scalar queries (69 resonant
  rect, 23 detuned rect, 4 sech, 4 chirped sech), each
  ``composite_phases`` -> ``make_phase_gate_sequence`` ->
  ``constituent_propagator`` -> ``gate_propagator`` -> ``infidelity``.

A request is what a user waits for: one whole pass (its commands in turn,
with the read-back) on the first three, one scalar query on the last.
Every module attribute is looked up at call time, so the tracer's wrappers
take effect.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import cpgates.cli
import cpgates.pulses
import cpgates.scan
import cpgates.sequences
import cpgates.su2

import oracle

PI = math.pi
MAX_INFIDELITY = 2.0 * math.sqrt(2.0)


class FirstPoint(BaseException):
    """Raised by the set-up probe when the first point is requested."""


@dataclass(frozen=True)
class Job:
    """One scan CSV a command writes, described independently of cpgates."""

    filename: str
    family: str
    variant: str
    gate_phase: float
    pulse: str  # "rect", "sech" or "sech_tanh"
    axes: tuple  # ((parameter, start, stop, samples), ...)

    @property
    def points(self) -> int:
        return math.prod(ax[3] for ax in self.axes)

    @property
    def n_pulses(self) -> int:
        return 2 * len(oracle.cp_phases(self.family, self.variant)[0])

    @property
    def grid_key(self):
        """Identity of the constituent grid: same key, same propagators."""
        area = oracle.cp_phases(self.family, self.variant)[1]
        return (self.pulse, area if self.pulse == "sech" else None, self.axes)

    def coordinates(self) -> list[np.ndarray]:
        return [np.linspace(lo, hi, n) for _, lo, hi, n in self.axes]


def _phase_tag(phase_pi: float) -> str:
    return f"phase{phase_pi:g}pi"


def _preset_jobs(name: str) -> list[Job]:
    """The jobs of a figure preset, as the README and ROADMAP describe them."""
    if name == "fig2":
        axis = (("peak_rabi_times_T", 0.0, 12.0, 1201),)
        return [Job(f"fig2_n{n}_{_phase_tag(p)}.csv", "broadband", f"n{n}", p * PI,
                    "sech_tanh", axis)
                for p in (0.5, 0.25) for n in (1, 3, 5)]
    if name == "fig3":
        axis = (("detuning_times_T", -3.0, 3.0, 1201),)
        cases = (("n1", "broadband", "n1"), ("n5", "detuning", "n5"),
                 ("n9", "detuning", "n9"))
        return [Job(f"fig3_{tag}_{_phase_tag(p)}.csv", fam, var, p * PI, "sech", axis)
                for p in (0.5, 0.25) for tag, fam, var in cases]
    axes = (("duration_fraction", 0.0, 2.0, 301), ("detuning_times_T", -2.0, 2.0, 301))
    return [Job(f"fig4_{var}_phase0.25pi.csv", fam, var, 0.25 * PI, "rect", axes)
            for fam, var in (("broadband", "n1"), ("universal", "U5a"))]


def _job_reference(job: Job, coords: list[np.ndarray]) -> np.ndarray:
    """Closed-form infidelity of a rectangular-pulse job at the given rows."""
    phases = oracle.gate_phases(job.family, job.variant, job.gate_phase)
    area = oracle.cp_phases(job.family, job.variant)[1]
    omega, duration, detuning = area, 1.0, 0.0  # template duration T0 = 1
    for (param, *_), c in zip(job.axes, coords):
        if param == "pulse_area_fraction":
            omega = c * PI
        elif param == "duration_fraction":
            duration = c
        elif param == "detuning_times_T":
            detuning = c
    a, b = oracle.rect_pulse(omega, duration, detuning)
    return oracle.gate_infidelity(a, b, phases, job.gate_phase)


def _sech_reference(job: Job, x: float) -> float:
    phases = oracle.gate_phases(job.family, job.variant, job.gate_phase)
    if job.pulse == "sech_tanh":  # fig2: chirp rate 1/T, swept peak Rabi
        a, b = oracle.sech_pulse(x, 1.0, chirp_rate=1.0)
    else:  # fig3: nominal area, swept constant detuning
        area = oracle.cp_phases(job.family, job.variant)[1]
        a, b = oracle.sech_pulse(area / PI, 1.0, detuning=x)
    return float(oracle.gate_infidelity(a, b, phases, job.gate_phase)[0])


def _data_digest(path: Path) -> str:
    """Digest of the data rows; the header carries a timestamp."""
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for line in fh:
            if not line.startswith(b"#"):
                h.update(line)
    return h.hexdigest()


@dataclass
class PassResult:
    start: float  # time.perf_counter() at the start and end of the pass
    end: float
    points: int
    requests: list  # (start, end) of each request, on the same clock

    @property
    def seconds(self) -> float:
        return self.end - self.start


class CommandWorkload:
    """Workloads driven through ``cpgates.cli.main``, writing CSVs.

    Each pass writes into its own directory.  After a pass, untimed, a file
    whose data rows repeat an earlier pass's is deleted and inherits that
    file's verdict, so the oracle runs once per distinct output and every
    pass is still checked.
    """

    read_back = False
    sample_per_job = 0  # sech rows per distinct output checked against scipy

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        # [(argv with "{out}" for the pass directory, jobs it writes), ...]
        self.commands = self.build_inputs(np.random.default_rng(seed))
        self.jobs = [job for _, jobs in self.commands for job in jobs]
        self.outputs: list[tuple[Job, str | None]] = []  # (job, data digest) per pass
        self.kept: dict[tuple[str, str], Path] = {}  # (filename, digest) -> file
        self._read: dict[str, str] = {}  # filename -> digest of read-back values
        self.passes_run = 0

    def build_inputs(self, rng):
        raise NotImplementedError

    @property
    def points_per_pass(self) -> int:
        return sum(job.points for job in self.jobs)

    def describe(self) -> dict:
        grids = {job.grid_key: job.points for job in self.jobs}
        return {
            "points_per_pass": self.points_per_pass,
            "jobs": len(self.jobs),
            "pulses_per_sequence": sorted({job.n_pulses for job in self.jobs}),
            "distinct_constituent_grids": len(grids),
            "grid_reuse": self.points_per_pass / sum(grids.values()),
        }

    def _argv(self, argv, out: Path) -> list[str]:
        return [arg.format(out=out) for arg in argv]

    def probe(self) -> float:
        """Run the first command until its first scan; the time it was asked for."""
        def first_point(*args, **kwargs):
            raise FirstPoint(time.monotonic())

        cpgates.cli.scan_1d = cpgates.cli.scan_2d = first_point
        out = self.workdir / "probe"
        with contextlib.redirect_stdout(io.StringIO()):
            try:
                cpgates.cli.main(self._argv(self.commands[0][0], out))
            except FirstPoint as hit:
                return hit.args[0]
        raise RuntimeError("the command finished without requesting a point")

    def run_pass(self, index: int) -> PassResult:
        self.passes_run += 1
        out = self.workdir / f"pass{self.passes_run}"
        out.mkdir()
        codes, read = [], {}
        sink = io.StringIO()
        start = time.perf_counter()
        for argv, jobs in self.commands:
            with contextlib.redirect_stdout(sink):
                try:
                    codes.append(cpgates.cli.main(self._argv(argv, out)))
                except Exception:  # a crash fails the command's points
                    traceback.print_exc()
                    codes.append(-1)
            if self.read_back and codes[-1] == 0:
                for job in jobs:
                    try:
                        read[job.filename] = cpgates.scan.read_scan_csv(
                            out / job.filename).values
                    except Exception:  # a failed read fails the job's points
                        read[job.filename] = None
        end = time.perf_counter()
        for filename, values in read.items():
            self._read[filename] = ("unreadable" if values is None
                                    else hashlib.sha256(values.tobytes()).hexdigest())
        self._settle(out, codes)
        # the request a user waits for is the whole pass: its commands in turn
        return PassResult(start, end, self.points_per_pass, [(start, end)])

    def _settle(self, out: Path, codes: list[int]) -> None:
        for (_, jobs), code in zip(self.commands, codes):
            for job in jobs:
                path = out / job.filename
                digest = None
                if code == 0 and path.exists():
                    digest = _data_digest(path)
                    if self.read_back:
                        digest += "/" + self._read.get(job.filename, "")
                    if (job.filename, digest) in self.kept:
                        path.unlink()
                    else:
                        self.kept[job.filename, digest] = path
                self.outputs.append((job, digest))

    def check(self, rng) -> int:
        """Failed points over every pass: exits, missing files, oracle misses."""
        jobs = {job.filename: job for job in self.jobs}
        verdicts = {key: self.check_job(jobs[key[0]], path, key[1], rng)
                    for key, path in self.kept.items()}
        return sum(job.points if digest is None else verdicts[job.filename, digest]
                   for job, digest in self.outputs)

    def check_job(self, job: Job, path: Path, digest: str, rng) -> int:
        rows = oracle.read_rows(path)
        coords = job.coordinates()
        expected = np.stack([c.ravel() for c in np.meshgrid(*coords, indexing="ij")],
                            axis=1)
        if rows.shape != (job.points, len(job.axes) + 1):
            return job.points
        values = rows[:, -1]
        bad = ~np.isfinite(values) | (values < 0) | (values > MAX_INFIDELITY + 1e-9)
        bad |= np.any(np.abs(rows[:, :-1] - expected) > 1e-10 * (1 + np.abs(expected)),
                      axis=1)
        if self.read_back:
            # read_scan_csv must return exactly the values the rows hold
            if digest.split("/")[1] != hashlib.sha256(values.tobytes()).hexdigest():
                return job.points
        integrated = job.pulse != "rect" or any(ax[0] == "detuning_times_T"
                                                for ax in job.axes)
        tol = oracle.tolerance(job.n_pulses, integrated)
        if job.pulse == "rect":
            reference = _job_reference(job, [expected[:, i] for i in range(len(job.axes))])
            bad |= ~(np.abs(values - reference) <= tol)
        else:
            for i in rng.choice(job.points, self.sample_per_job, replace=False):
                reference = _sech_reference(job, float(expected[i, 0]))
                bad[i] |= not abs(values[i] - reference) <= tol
        return int(np.count_nonzero(bad))


class FigSech(CommandWorkload):
    sample_per_job = 4

    def build_inputs(self, rng):
        return [(["preset", name, "--out-dir", "{out}"], _preset_jobs(name))
                for name in ("fig2", "fig3")]


class FigRectMap(CommandWorkload):
    def build_inputs(self, rng):
        return [(["preset", "fig4", "--out-dir", "{out}"], _preset_jobs("fig4"))]


class ClosedFormMap(CommandWorkload):
    read_back = True
    SAMPLES = 601

    def build_inputs(self, rng):
        # six decimals, so the command line carries the values exactly
        area_lo, dur_lo, area_span, dur_span, phase_pi = (
            round(float(v), 6) for v in (*rng.uniform(0.2, 0.7, 2),
                                         *rng.uniform(0.6, 1.2, 2),
                                         rng.uniform(0.05, 1.95)))
        axes = (("pulse_area_fraction", area_lo, area_lo + area_span, self.SAMPLES),
                ("duration_fraction", dur_lo, dur_lo + dur_span, self.SAMPLES))
        job = Job("closed_form_map.csv", "broadband", "n25", phase_pi * PI, "rect", axes)
        argv = ["scan", "--family", "broadband", "--variant", "n25",
                f"--phase-pi={phase_pi!r}", "--out", "{out}/" + job.filename]
        for param, lo, hi, n in axes:
            argv += ["--axis", param, f"--range={lo!r}:{hi!r}", "--samples", str(n)]
        return [(argv, [job])]


@dataclass(frozen=True)
class Query:
    family: str
    variant: str
    gate_phase: float
    pulse: str  # "rect", "rect_detuned", "sech" or "sech_tanh"
    peak: float  # area (rect) or peak Rabi frequency times T (sech)
    rate: float  # constant detuning or chirp rate, times T

    def spec(self):
        PulseSpec = cpgates.pulses.PulseSpec
        if self.pulse.startswith("rect"):
            return PulseSpec.rectangular(self.peak, 1.0, self.rate)
        if self.pulse == "sech_tanh":
            return PulseSpec.sech(self.peak, 1.0, chirp_rate=self.rate)
        return PulseSpec.sech(self.peak, 1.0, detuning=self.rate)


def _strata(rng, k: int, lo: float, hi: float) -> np.ndarray:
    """k draws, one from each of k equal strata of [lo, hi), in random order."""
    return lo + (hi - lo) * (rng.permutation(k) + rng.random(k)) / k


class PointQueries:
    """Blocks of seeded scalar queries through the library API.

    Each block asks, for every one of the 23 shipped sequences, three
    resonant-rect queries and one detuned-rect query, and adds four sech and
    four chirped-sech queries: 69 % closed form, 23 % detuned rect, 8 % sech
    models.  The mix is a choice, not a measured usage: it keeps at least
    1,000 queries inside a run, and it puts the median inside the closed-form
    class and the p99 inside the sech classes (80 of every 1,000 queries),
    away from the boundaries between classes.  Parameters come from
    stratified draws, so blocks have nearly the same cost.
    """

    BLOCK = 100  # 4 * 23 sequences + 2 * SECH_PER_MODEL
    SECH_PER_MODEL = 4
    MIN_QUERIES = 1000  # p99 needs ten samples above it
    SECH_SAMPLE = 10  # integrated sech queries checked against scipy

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.results: list[tuple[Query, float]] = []

    def describe(self) -> dict:
        lengths = sorted({2 * len(oracle.cp_phases(f, v)[0]) for f, v in oracle.VARIANTS})
        return {"queries_per_pass": self.BLOCK, "pulses_per_sequence": lengths,
                "distinct_constituent_grids": self.BLOCK, "grid_reuse": 1.0}

    @property
    def points_per_pass(self) -> int:
        return self.BLOCK

    def make_block(self, index: int) -> list[Query]:
        rng = np.random.default_rng([self.seed, index])
        queries = []

        def add(pulse, variants, peaks, rates):
            gate_phases = _strata(rng, len(variants), 0.0, 2.0 * PI)
            for (fam, var), phi, peak, rate in zip(variants, gate_phases, peaks, rates):
                queries.append(Query(fam, var, float(phi), pulse, float(peak), float(rate)))

        def nominal(variants):
            return np.array([oracle.cp_phases(f, v)[1] for f, v in variants])

        variants = list(oracle.VARIANTS)
        closed = variants * 3
        add("rect", closed, nominal(closed) * _strata(rng, len(closed), 0.5, 1.5),
            np.zeros(len(closed)))
        n = len(variants)
        add("rect_detuned", variants, nominal(variants) * _strata(rng, n, 0.7, 1.3),
            _strata(rng, n, 0.1, 2.0) * rng.choice([-1.0, 1.0], n))
        picks = [variants[i] for i in rng.choice(n, 2 * self.SECH_PER_MODEL)]
        sech, chirped = picks[:self.SECH_PER_MODEL], picks[self.SECH_PER_MODEL:]
        add("sech", sech, nominal(sech) / PI * _strata(rng, len(sech), 0.8, 1.2),
            _strata(rng, len(sech), -1.5, 1.5))
        add("sech_tanh", chirped, _strata(rng, len(chirped), 1.0, 6.0),
            _strata(rng, len(chirped), 0.5, 1.5))
        return [queries[i] for i in rng.permutation(len(queries))]

    def probe(self) -> float:
        self.make_block(0)
        return time.monotonic()

    def run_pass(self, index: int) -> PassResult:
        """Block ``index``; its queries depend only on the seed and the index."""
        block = self.make_block(index)
        requests = []
        start = time.perf_counter()
        for q in block:
            t0 = time.perf_counter()
            try:
                cp = cpgates.sequences.composite_phases(q.family, q.variant)
                seq = cpgates.sequences.make_phase_gate_sequence(cp, q.gate_phase)
                pulse = cpgates.pulses.constituent_propagator(q.spec())
                gate = cpgates.sequences.gate_propagator(seq, pulse)
                value = cpgates.su2.infidelity(gate, cpgates.su2.TargetGate(seq.gate_phase))
            except Exception:  # a failed query counts as a failed point
                value = math.nan
            requests.append((t0, time.perf_counter()))
            self.results.append((q, value))
        return PassResult(start, time.perf_counter(), len(block), requests)

    def check(self, rng) -> int:
        """Failed queries: every rect query, and a sample of sech queries."""
        failed = 0
        sech = []
        for q, value in self.results:
            if q.pulse.startswith("rect"):
                pulse = oracle.rect_pulse(q.peak, 1.0, q.rate)
                failed += _query_bad(q, value, pulse, q.pulse == "rect_detuned")
            elif math.isfinite(value):
                sech.append((q, value))
            else:
                failed += 1
        for i in rng.choice(len(sech), min(self.SECH_SAMPLE, len(sech)), replace=False):
            q, value = sech[i]
            if q.pulse == "sech_tanh":
                pulse = oracle.sech_pulse(q.peak, 1.0, chirp_rate=q.rate)
            else:
                pulse = oracle.sech_pulse(q.peak, 1.0, detuning=q.rate)
            failed += _query_bad(q, value, pulse, True)
        return failed


def _query_bad(q: Query, value: float, pulse, integrated: bool) -> int:
    phases = oracle.gate_phases(q.family, q.variant, q.gate_phase)
    reference = oracle.gate_infidelity(*pulse, phases, q.gate_phase)
    return oracle.count_bad([value], reference, oracle.tolerance(len(phases), integrated))


WORKLOADS = {
    "fig-sech": FigSech,
    "fig-rect-map": FigRectMap,
    "closed-form-map": ClosedFormMap,
    "point-queries": PointQueries,
}
