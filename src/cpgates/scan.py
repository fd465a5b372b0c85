"""Parameter sweeps of composite-gate infidelity, plus diagnostic fits.

A scan walks its flat grid in blocks of 8,192 points.  Each block goes
through :func:`cpgates.pulses.constituent_grid`, :func:`cpgates.su2.fold`
of the composite pulse, :func:`cpgates.su2.phase_gate` and the infidelity:
the same kernels a single point query runs.  The block bounds the memory of
both pulse routes and keeps the fold's arrays in cache.  Grid points are
pure function evaluations and every block takes the same numpy loops, so a
point's bits depend neither on the run nor on the size of its scan.  A scan
holds at most 10,000,000 points in all, checked before any grid is built.
How accurately pulses are computed is the pulse layer's business: a point
that missed its accuracy contract arrives as NaN, so a scan fails with
:class:`ScanError` exactly when some infidelity is not finite, and the error
carries every failing coordinate.

Swept parameters are dimensionless and always refer to the template pulse's
duration T0:

    pulse_area_fraction   A/pi; sets peak_rabi so the area is A at T0
    peak_rabi_times_T     Omega0*T0; sets peak_rabi
    detuning_times_T      Delta*T0; sets the constant detuning
    duration_fraction     T/T0; scales the pulse length, all else fixed

CSV output carries the full metadata as '#'-prefixed header lines followed
by "x[,y],F" rows in scientific notation with 12 significant digits.  Axis
bounds are written exactly, so write, read and write again gives the same
bytes.  The writer spells the digits of a block of whole rows (at most
8,192 values) in numpy, byte for byte Python's "%.11e": integer arithmetic
on a 12-digit mantissa scaled to within 2.3e-4, with Python's own format
for the few values within 1e-3 of a rounding tie, beyond |e| >= 100 or not
finite.  The text it holds is bounded by the block and not by the grid.
Reading checks every row's coordinates against the axes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import IO

import numpy as np

from . import pulses
from .pulses import PulseSpec, constituent_grid
from .sequences import CompositePhases, PhaseGateSequence
from .su2 import fold, gate_infidelity, phase_gate

__all__ = [
    "SweepAxis",
    "ScanResult",
    "ScanError",
    "PARAMETERS",
    "scan_1d",
    "scan_2d",
    "error_order",
    "high_fidelity_bandwidth",
    "write_scan_csv",
    "save_scan_csv",
    "read_scan_csv",
]

PARAMETERS = (
    "pulse_area_fraction",
    "detuning_times_T",
    "peak_rabi_times_T",
    "duration_fraction",
)

_MAX_SAMPLES = 10_000_000  # per axis, and for the product of all axes
_NOISE_FLOOR = 1e-13
# points per scan block and lines per CSV write: bounds the memory held, and
# stays below numpy's 16,384-point (256 KiB complex) threshold for reusing
# temporaries, past which other loops may round the last bit differently
_BLOCK = 8192


class ScanError(RuntimeError):
    """Grid points failed; ``coordinates`` is a (k, n_axes) array of all k."""

    def __init__(self, message: str, coordinates: np.ndarray):
        super().__init__(message)
        self.coordinates = coordinates


@dataclass(frozen=True)
class SweepAxis:
    """One swept parameter: range, sample count and spacing."""

    parameter: str
    start: float
    stop: float
    samples: int
    spacing: str = "linear"

    def __post_init__(self):
        if self.parameter not in PARAMETERS:
            raise ValueError(
                f"unknown sweep parameter {self.parameter!r}; "
                f"choose from {', '.join(PARAMETERS)}"
            )
        if not (math.isfinite(self.start) and math.isfinite(self.stop)):
            raise ValueError("axis start and stop must be finite")
        if not (self.start < self.stop):
            raise ValueError("axis start must be below stop")
        if not (2 <= self.samples <= _MAX_SAMPLES):
            raise ValueError(f"samples must be in [2, {_MAX_SAMPLES}]")
        if self.spacing not in ("linear", "log"):
            raise ValueError("spacing must be 'linear' or 'log'")
        if self.spacing == "log" and self.start <= 0:
            raise ValueError("log spacing needs a positive start")

    def grid(self) -> np.ndarray:
        if self.spacing == "linear":
            return np.linspace(self.start, self.stop, self.samples)
        return np.geomspace(self.start, self.stop, self.samples)


@dataclass(frozen=True)
class ScanResult:
    """Sampled infidelity grid over one or two axes."""

    axes: tuple[SweepAxis, ...]
    values: np.ndarray
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        expected = tuple(ax.samples for ax in self.axes)
        if self.values.shape != expected:
            raise ValueError(
                f"grid shape {self.values.shape} does not match axes {expected}"
            )


def _apply_axes(template: PulseSpec, axes: tuple[SweepAxis, ...], mesh):
    """Per-sample pulse parameter arrays from the template and axis meshes."""
    t0 = template.duration
    if t0 <= 0:
        raise ValueError("scan templates need a positive duration")
    params = [ax.parameter for ax in axes]
    if len(set(params)) != len(params):
        raise ValueError("scan axes must address distinct parameters")
    if {"pulse_area_fraction", "peak_rabi_times_T"} <= set(params):
        raise ValueError(
            "pulse_area_fraction and peak_rabi_times_T both control the "
            "peak Rabi frequency; sweep only one of them"
        )

    shape = np.broadcast_shapes(*(g.shape for g in mesh)) if mesh else ()
    omega0 = np.full(shape, template.peak_rabi, dtype=float)
    duration = np.full(shape, t0, dtype=float)
    rate = np.full(shape, template.rate, dtype=float)

    for ax, grid in zip(axes, mesh):
        if ax.parameter == "pulse_area_fraction":
            # area grid*pi over the area per unit Omega0*T gives Omega0*T0
            omega0 = grid * (math.pi / pulses._AREA_PER_RABI_T[template.shape]) / t0
        elif ax.parameter == "peak_rabi_times_T":
            omega0 = grid / t0
        elif ax.parameter == "detuning_times_T":
            if template.model != "constant":
                raise ValueError(
                    "a detuning sweep requires the constant-detuning model"
                )
            rate = grid / t0
        elif ax.parameter == "duration_fraction":
            duration = grid * t0
    return np.broadcast_arrays(omega0, duration, rate)


def _check_points(metric: np.ndarray, coords: tuple[np.ndarray, ...]) -> None:
    """Raise ScanError carrying every point whose metric is not finite."""
    bad = ~np.isfinite(metric)
    if not bad.any():
        return
    where = np.stack([c.ravel()[bad] for c in coords], axis=1)
    shown = ", ".join(str(tuple(map(float, row))) for row in where[:5])
    raise ScanError(
        f"{len(where)} grid point(s) failed (a pulse missed its accuracy "
        f"contract or the infidelity is not finite); first at coordinates "
        f"{shown}",
        coordinates=where,
    )


def _metadata(seq: PhaseGateSequence, template: PulseSpec) -> dict:
    return {
        "family": seq.source.family,
        "variant": seq.source.variant,
        "gate_phase_pi": seq.gate_phase / math.pi,
        "pulse_shape": template.shape,
        "detuning_model": template.model,
        "peak_rabi": template.peak_rabi,
        "duration": template.duration,
        "detuning_rate": template.rate,
        "window_half_width": pulses.DEFAULT_WINDOW_HALF_WIDTH,
    }


def _run_scan(
    axes: tuple[SweepAxis, ...],
    seq: PhaseGateSequence,
    template: PulseSpec,
) -> ScanResult:
    points = math.prod(ax.samples for ax in axes)
    if points > _MAX_SAMPLES:
        raise ValueError(f"a scan holds at most {_MAX_SAMPLES} points, "
                         f"this one {points}")
    grids = [ax.grid() for ax in axes]
    mesh = np.meshgrid(*grids, indexing="ij") if len(grids) > 1 else [grids[0]]
    # overflow and NaN surface as non-finite points, which _check_points
    # reports as a ScanError, so numpy need not warn about them on the way
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        omega0, duration, rate = (v.ravel() for v in _apply_axes(template, axes, mesh))
        values = np.empty(points)
        for lo in range(0, points, _BLOCK):
            block = slice(lo, lo + _BLOCK)
            a, b = constituent_grid(template.shape, template.model, omega0[block],
                                    duration[block], rate[block])
            gate = phase_gate(*fold(seq.source.phases, a, b), seq.gate_phase)
            values[block] = gate_infidelity(*gate, seq.gate_phase)
    _check_points(values, tuple(mesh))
    return ScanResult(
        axes=axes,
        values=values.reshape(mesh[0].shape),
        metadata=_metadata(seq, template),
    )


def scan_1d(
    axis: SweepAxis,
    seq: PhaseGateSequence,
    pulse_template: PulseSpec,
) -> ScanResult:
    """Infidelity curve along one swept parameter."""
    return _run_scan((axis,), seq, pulse_template)


def scan_2d(
    axis_x: SweepAxis,
    axis_y: SweepAxis,
    seq: PhaseGateSequence,
    pulse_template: PulseSpec,
) -> ScanResult:
    """Infidelity map over the Cartesian grid of two distinct parameters.

    Values are row-major over (axis_x, axis_y): ``values[i, j]`` belongs to
    the i-th x sample and j-th y sample.  The product of the two sample
    counts may not exceed 10,000,000 (ValueError).
    """
    return _run_scan((axis_x, axis_y), seq, pulse_template)


def error_order(
    seq: PhaseGateSequence | CompositePhases,
    perturbation: str,
    eps_range: tuple[float, float] = (1e-3, 1e-2),
    samples: int = 20,
    seed: int | None = None,
) -> float:
    """Fitted error-scaling exponent of a gate or of its composite pulse.

    Evaluates rectangular constituent pulses at the sequence's nominal area,
    perturbed by relative size eps, and fits the least-squares slope of
    log(metric) against log(eps) over log-spaced eps in ``eps_range``.  The
    metric is the gate infidelity for a :class:`PhaseGateSequence` and the
    surviving-amplitude modulus |a| for a bare :class:`CompositePhases`.
    The pulses take the same route as scans, the closed form for detuned as
    well as resonant rectangular pulses, so the samples carry rounding error
    only and no integration error.

    ``perturbation`` is one of:

    - "area": pulse area scaled by (1 + eps) at zero detuning,
    - "detuning": Delta*T = eps at the nominal area,
    - "random_direction": a seeded unit direction in (relative area error,
      Delta*T) space, scaled by eps; requires ``seed``.

    Samples whose metric falls below the 1e-13 noise floor are excluded from
    the fit.  If fewer than two samples survive, a ValueError recommends a
    larger eps range.
    """
    lo, hi = eps_range
    if not (0 < lo < hi < 1):
        raise ValueError("eps_range must satisfy 0 < lo < hi < 1")
    cp = seq.source if isinstance(seq, PhaseGateSequence) else seq

    if perturbation == "area":
        direction = (1.0, 0.0)
    elif perturbation == "detuning":
        direction = (0.0, 1.0)
    elif perturbation == "random_direction":
        if seed is None:
            raise ValueError("random_direction needs a seed")
        angle = np.random.default_rng(seed).uniform(0.0, 2.0 * math.pi)
        direction = (math.cos(angle), math.sin(angle))
    else:
        raise ValueError(f"unknown perturbation {perturbation!r}")

    eps = np.geomspace(lo, hi, samples)
    area = cp.nominal_per_pulse_area * (1.0 + eps * direction[0])
    delta_t = eps * direction[1]

    # duration 1, so the peak Rabi frequency equals the area
    a, b = constituent_grid("rectangular", "constant", area, np.ones_like(eps), delta_t)
    ga, gb = fold(cp.phases, a, b)
    if isinstance(seq, PhaseGateSequence):
        metric = gate_infidelity(*phase_gate(ga, gb, seq.gate_phase), seq.gate_phase)
    else:
        metric = np.abs(ga)
    _check_points(metric, (eps,))

    usable = metric > _NOISE_FLOOR
    if usable.sum() < 2:
        raise ValueError(
            "error metric sits below the 1e-13 noise floor across the whole "
            "range; fit needs a larger eps range"
        )
    slope = np.polyfit(np.log(eps[usable]), np.log(metric[usable]), 1)[0]
    return float(slope)


def _cell_widths(x: np.ndarray) -> np.ndarray:
    w = np.empty_like(x)
    if x.size > 2:
        w[1:-1] = 0.5 * (x[2:] - x[:-2])
    w[0] = x[1] - x[0]
    w[-1] = x[-1] - x[-2]
    return w


def high_fidelity_bandwidth(result: ScanResult, threshold: float) -> float:
    """Width of the largest contiguous sub-threshold run of a 1D scan.

    Each sample owns a cell of the axis (half-distance to each neighbor, one
    grid spacing at the edges); the bandwidth is the summed cell width of the
    longest run with infidelity strictly below ``threshold``, or 0.0 if no
    sample qualifies.  A single qualifying sample therefore counts one grid
    spacing.
    """
    if len(result.axes) != 1:
        raise ValueError("bandwidth is defined for 1D scans only")
    below = result.values < threshold
    if not below.any():
        return 0.0
    widths = _cell_widths(result.axes[0].grid())
    idx = np.nonzero(below)[0]
    runs = np.split(idx, np.nonzero(np.diff(idx) > 1)[0] + 1)
    return float(max(widths[run].sum() for run in runs))


# --- CSV contract ---------------------------------------------------------

# the widest "%.11e" text, "-1.00000000000e+100"
_FIELD = 19
# 10**k correctly rounded for k = -88..110: the scale 10**(11 - e) of a
# decimal exponent |e| < 100 sits at index 99 - e
_POW10 = np.array([float(f"1e{k}") for k in range(-88, 111)])
# columns of the six leading and the six trailing mantissa digits, last
# digit first; "." is column 2
_DIGIT_COLUMNS = ((7, 6, 5, 4, 3, 1), (13, 12, 11, 10, 9, 8))


def _format_e11(values: np.ndarray) -> np.ndarray:
    """``b"%.11e" % v`` of every value, one row of 19 ASCII codes each.

    Column 0 holds "-" or NUL, and NULs pad each text to 19 codes.  The
    exponent comes from ``log10``, the 12-digit mantissa is
    ``rint(|v| * 10**(11 - e))``, and integer division spells its digits.
    The scaled value is within 2.3e-4 of its exact value (one rounding in
    the power of ten and one in the product), so ``rint`` decides exactly
    unless the fraction lies within 1e-3 of one half.  Those values, and
    |e| >= 100, NaN and infinities, take Python's own ``%.11e``; about 0.2%
    of random doubles do.  Zero and a mantissa that carries into the next
    power of ten stay on the integer path.
    """
    v = np.asarray(values, dtype=float).ravel()
    mag = np.abs(v)
    text = np.zeros((v.size, _FIELD), np.uint8)
    # rows of slow values, NaN and infinities among them, are overwritten
    # with Python's text at the end, whatever digits they got
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        e = np.floor(np.log10(mag))
        e[mag == 0] = 0
        slow = ~(np.abs(e) < 100)
        e[slow] = 0
        scaled = mag * _POW10[99 - e.astype(np.intp)]
        mantissa = np.rint(scaled)
        # outside [1e11, 1e12] only if log10 erred by more than rounding
        slow |= ((np.abs(scaled - np.floor(scaled) - 0.5) < 1e-3)
                 | ~((mantissa >= 1e11) & (mantissa <= 1e12)))
        carry = mantissa == 1e12
        mantissa[carry] = 1e11
        e += carry
        slow |= e > 99

        text[:, 0] = np.signbit(v) * ord("-")
        text[:, 2] = ord(".")
        text[:, 14] = ord("e")
        text[:, 15] = np.where(e < 0, ord("-"), ord("+"))
        exponent = np.abs(e).astype(np.int32)
        text[:, 16] = exponent // 10 + ord("0")
        text[:, 17] = exponent % 10 + ord("0")
        # int32 division by a constant is fast; split the mantissa in halves
        high = np.floor(mantissa / 1e6)
        for half, columns in zip((high, mantissa - high * 1e6), _DIGIT_COLUMNS):
            rest = half.astype(np.int32)
            for column in columns:
                quotient = rest // 10
                text[:, column] = rest - 10 * quotient + ord("0")
                rest = quotient
    slow = np.flatnonzero(slow)
    python = np.array([b"%.11e" % x for x in v[slow].tolist()], f"S{_FIELD}")
    text[slow] = python.view(np.uint8).reshape(-1, _FIELD)
    return text


def write_scan_csv(result: ScanResult, stream: IO[str],
                   extra_header: dict | None = None) -> None:
    """Write a scan in the CSV contract: '#' metadata lines, then data rows.

    ``extra_header`` entries (e.g. a run manifest with command line and
    timestamp) are emitted before the scan metadata.  Every value is
    written as ``"%.11e" % v`` would write it, by :func:`_format_e11` on
    blocks of whole rows of at most 8,192 values (the inner axis once, or
    per block if it is longer).
    """
    stream.write("# cpgates-scan\n")
    for key, value in [*(extra_header or {}).items(), *result.metadata.items()]:
        text = f"{value:.12g}" if isinstance(value, float) else str(value)
        stream.write(f"# {key}: {text}\n")
    for i, ax in enumerate(result.axes):
        stream.write(
            f"# axis{i}: parameter={ax.parameter} spacing={ax.spacing} "
            f"start={float(ax.start)!r} stop={float(ax.stop)!r} "
            f"samples={ax.samples}\n"
        )
    names = ",".join(ax.parameter for ax in result.axes)
    stream.write(f"# columns: {names},infidelity\n")

    *outer, inner = (ax.grid() for ax in result.axes)
    values = result.values.reshape(-1, inner.size)
    step = min(inner.size, _BLOCK)  # inner values per block
    rows = _BLOCK // step  # whole rows per block
    built = None
    for r in range(0, len(values), rows):
        for lo in range(0, inner.size, step):
            if built != lo:  # per row only if the inner axis spans blocks
                built, y = lo, _format_e11(inner[lo:lo + step])[None]
            block = values[r:r + rows, lo:lo + step]
            x = [_format_e11(outer[0][r:r + rows])[:, None]] if outer else []
            stream.write(_lines([*x, y, _format_e11(block).reshape(*block.shape, _FIELD)]))


def _lines(fields: list[np.ndarray]) -> str:
    """CSV lines of broadcast field texts from :func:`_format_e11`, NULs dropped."""
    shape = np.broadcast_shapes(*(f.shape[:-1] for f in fields))
    text = np.empty((*shape, len(fields), _FIELD + 1), np.uint8)
    for k, field in enumerate(fields):
        text[..., k, :_FIELD] = field
    text[..., :-1, _FIELD] = ord(",")
    text[..., -1, _FIELD] = ord("\n")
    return text.tobytes().translate(None, b"\0").decode("ascii")


def save_scan_csv(result: ScanResult, path, extra_header: dict | None = None) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        write_scan_csv(result, fh, extra_header)


def read_scan_csv(path) -> ScanResult:
    """Parse a file written by :func:`write_scan_csv`.

    The '#' header ends at the first data row; numpy parses the rows.  The
    axes come back exactly, because their bounds are written in the shortest
    form that round-trips; every other header line comes back as a string
    in ``metadata``, except ``columns``, which the axes imply.  Writing the
    result again gives the same bytes.  A file with another number of rows
    or fields than its axes call for, or a row whose coordinates are not
    ``float("%.11e" % g)`` of its grid point, raises ValueError.
    """
    metadata: dict = {}
    axes: list[SweepAxis] = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            if not line.startswith("#"):
                break
            body = line[1:].strip()
            if body.startswith("axis"):
                _, spec = body.split(":", 1)
                fields = dict(item.split("=") for item in spec.split())
                axes.append(
                    SweepAxis(
                        parameter=fields["parameter"],
                        start=float(fields["start"]),
                        stop=float(fields["stop"]),
                        samples=int(fields["samples"]),
                        spacing=fields["spacing"],
                    )
                )
            elif ":" in body:
                key, value = (part.strip() for part in body.split(":", 1))
                if key != "columns":
                    metadata[key] = value
    if not axes:
        raise ValueError(f"{path} carries no axis header")
    rows = np.loadtxt(path, delimiter=",", comments="#", ndmin=2)
    shape = tuple(ax.samples for ax in axes)
    if rows.shape != (math.prod(shape), len(axes) + 1):
        raise ValueError(
            f"{path}: the axes call for {math.prod(shape)} data rows of "
            f"{len(axes) + 1} fields, found {rows.shape[0]} rows of {rows.shape[1]}"
        )
    # each coordinate column against its axis as written, broadcast
    coords = rows[:, :-1].reshape(*shape, len(axes))
    written = [_read_back(ax.grid()) for ax in axes]
    misplaced = np.zeros(shape, bool)
    for i, grid in enumerate(written):
        misplaced |= coords[..., i] != grid.reshape([-1 if k == i else 1
                                                     for k in range(len(axes))])
    if misplaced.any():
        first = int(np.argmax(misplaced))  # flat, so the data row less one
        at = np.unravel_index(first, shape)
        wanted = tuple(float(grid[k]) for grid, k in zip(written, at))
        raise ValueError(
            f"{path}: data row {first + 1} holds coordinates "
            f"{tuple(coords[at].tolist())}, where the axes put {wanted}"
        )
    values = np.ascontiguousarray(rows[:, -1]).reshape(shape)
    return ScanResult(axes=tuple(axes), values=values, metadata=metadata)


def _read_back(grid: np.ndarray) -> np.ndarray:
    """float("%.11e" % g) of every grid value: the coordinates a file holds."""
    return np.concatenate([
        np.array(_lines([_format_e11(grid[lo:lo + _BLOCK])]).split(), dtype=float)
        for lo in range(0, grid.size, _BLOCK)
    ])
