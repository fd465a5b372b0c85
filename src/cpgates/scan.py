"""Parameter sweeps of composite-gate infidelity, plus diagnostic fits.

A scan walks its flat grid in blocks of 8,192 points.  Each block takes its
pulse parameters from the axis grids at its flat indices and goes through
:func:`cpgates.pulses.constituent_grid`, :func:`cpgates.su2.fold` of the
composite pulse, :func:`cpgates.su2.phase_gate` and the infidelity: the same
kernels a single point query runs.  A scan holds its values, its axes and
one block, whose arrays stay in cache; under tracemalloc a 400x400 map of a
50-pulse gate peaks at 2.4x its values.  Grid points are
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
bytes.  The writer and the reader walk the rows in the same blocks of whole
rows (at most 8,192 values), each with its coordinates' codes.  The writer
spells digits in numpy, byte for byte Python's "%.11e": integer arithmetic
on a 12-digit mantissa scaled to within 2.3e-4, with Python's own format
for the few values within 1e-3 of a rounding tie, beyond |e| >= 100 or not
finite.  It fills one byte array per write, so it holds one block.  The
reader takes a block whose coordinates have the canonical 17 bytes,
d.ddddddddddde+dd (no sign, two exponent digits), as fixed-width bytes:
coordinates compared as bytes with the block's codes, values cast by numpy.
fig1, fig2 and maps over positive axes read this way.  Negative coordinates
(fig3, fig4), or a block off that layout (a comment, a CRLF, a signed value,
three exponent digits), send the rest of the file to numpy.loadtxt.  Both
give float() of a field.
"""

from __future__ import annotations

import io
import itertools
import math
import numbers
import re
from collections.abc import Iterator
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
_ORDER_SAMPLES = 20  # eps values in an error_order fit
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
        # a bool is an Integral but not a count
        if (not isinstance(self.samples, numbers.Integral) or isinstance(self.samples, bool)
                or not 2 <= self.samples <= _MAX_SAMPLES):
            raise ValueError(f"samples must be an integer in [2, {_MAX_SAMPLES}]")
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


def _apply_axes(template: PulseSpec, axes: tuple[SweepAxis, ...], coords):
    """Pulse parameter arrays of a block from the template and its axis coordinates."""
    t0 = template.duration
    omega0 = np.full_like(coords[0], template.peak_rabi)
    duration = np.full_like(coords[0], t0)
    rate = np.full_like(coords[0], template.rate)

    for ax, grid in zip(axes, coords):
        if ax.parameter == "pulse_area_fraction":
            # area grid*pi over the area per unit Omega0*T gives Omega0*T0
            omega0 = grid * (math.pi / pulses._AREA_PER_RABI_T[template.shape]) / t0
        elif ax.parameter == "peak_rabi_times_T":
            omega0 = grid / t0
        elif ax.parameter == "detuning_times_T":
            rate = grid / t0
        elif ax.parameter == "duration_fraction":
            duration = grid * t0
    return omega0, duration, rate


def _check_points(metric: np.ndarray, grids: tuple[np.ndarray, ...]) -> None:
    """Raise ScanError with every non-finite point of a metric, row-major over grids."""
    bad = np.flatnonzero(~np.isfinite(metric))
    if not bad.size:
        return
    at = np.unravel_index(bad, tuple(g.size for g in grids))
    where = np.stack([g[i] for g, i in zip(grids, at)], axis=1)
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
    if template.duration <= 0:
        raise ValueError("scan templates need a positive duration")
    names = [ax.parameter for ax in axes]
    if len(set(names)) != len(names):
        raise ValueError("scan axes must address distinct parameters")
    if {"pulse_area_fraction", "peak_rabi_times_T"} <= set(names):
        raise ValueError(
            "pulse_area_fraction and peak_rabi_times_T both control the "
            "peak Rabi frequency; sweep only one of them"
        )
    if "detuning_times_T" in names and template.model != "constant":
        raise ValueError("a detuning sweep requires the constant-detuning model")
    if any(ax.start < 0 for ax in axes if ax.parameter != "detuning_times_T"):
        raise ValueError("only a detuning_times_T axis may start below 0")
    grids = [ax.grid() for ax in axes]
    shape = tuple(g.size for g in grids)
    # overflow and NaN surface as non-finite points, which _check_points
    # reports as a ScanError, so numpy need not warn about them on the way
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        values = np.empty(points)
        for lo in range(0, points, _BLOCK):
            at = np.unravel_index(np.arange(lo, min(lo + _BLOCK, points)), shape)
            params = _apply_axes(template, axes, [g[i] for g, i in zip(grids, at)])
            a, b = constituent_grid(template.shape, template.model, *params)
            gate = phase_gate(*fold(seq.source.phases, a, b), seq.gate_phase)
            values[lo:lo + _BLOCK] = gate_infidelity(*gate, seq.gate_phase)
    _check_points(values, grids)
    return ScanResult(
        axes=axes,
        values=values.reshape(shape),
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
    seed: int | None = None,
) -> float:
    """Fitted error-scaling exponent of a gate or of its composite pulse.

    Evaluates rectangular constituent pulses at the sequence's nominal area,
    perturbed by relative size eps, and fits the least-squares slope of
    log(metric) against log(eps) over 20 log-spaced eps in ``eps_range``.  The
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

    eps = np.geomspace(lo, hi, _ORDER_SAMPLES)
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

    Column 0 holds "-" or NUL, so a text's first digit sits at column 1,
    and NULs pad each text to 19 codes.  The exponent comes from ``log10``,
    the 12-digit mantissa is ``rint(|v| * 10**(11 - e))``, and integer
    division spells its digits.
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
    # "% .11e" leaves a space where "-" would go: a NUL, as on the fast path
    python = np.array([(b"% .11e" % x).replace(b" ", b"\0") for x in v[slow].tolist()],
                      f"S{_FIELD}")
    text[slow] = python.view(np.uint8).reshape(-1, _FIELD)
    return text


def _blocks(axes: tuple[SweepAxis, ...]) -> Iterator[tuple[int, np.ndarray | None, np.ndarray]]:
    """A scan's data rows in the blocks that the CSV writer and reader walk.

    A block is whole rows of at most 8,192 values, or part of one row if the
    inner axis is longer.  It comes as its first flat index and the
    :func:`_format_e11` rows of its outer coordinates (None for a curve),
    sliced from those of up to 8,192 rows, and of its inner ones, made once
    unless the inner axis spans blocks.
    """
    *outer, inner = (ax.grid() for ax in axes)
    step = min(inner.size, _BLOCK)  # inner values per block
    rows = _BLOCK // step  # whole rows per block
    span = rows * (_BLOCK // rows)  # outer values formatted at once, in whole blocks
    y = None
    for c in range(0, outer[0].size if outer else 1, span):
        xs = _format_e11(outer[0][c:c + span]) if outer else [None]
        for r in range(0, len(xs), rows):
            for lo in range(0, inner.size, step):
                if y is None or step < inner.size:
                    y = _format_e11(inner[lo:lo + step])
                yield (c + r) * inner.size + lo, xs[r:r + rows] if outer else None, y


def _csv_bytes(result: ScanResult, extra_header: dict | None) -> Iterator[bytes | bytearray]:
    """The CSV contract as bytes: the UTF-8 header, then one chunk per block.

    A block of :func:`_blocks` is laid out in one bytearray made for the
    first, the largest, with its separators set once and the inner
    coordinates written when they change.  It comes out NULs dropped, in one
    pass and with no copy of its own as ``tobytes`` would make.
    """
    header = ["# cpgates-scan\n"]
    for key, value in [*(extra_header or {}).items(), *result.metadata.items()]:
        text = f"{value:.12g}" if isinstance(value, float) else str(value)
        header.append(f"# {key}: {text}\n")
    for i, ax in enumerate(result.axes):
        header.append(
            f"# axis{i}: parameter={ax.parameter} spacing={ax.spacing} "
            f"start={float(ax.start)!r} stop={float(ax.stop)!r} "
            f"samples={ax.samples}\n"
        )
    names = ",".join(ax.parameter for ax in result.axes)
    header.append(f"# columns: {names},infidelity\n")
    yield "".join(header).encode("utf-8")

    columns = len(result.axes) + 1
    values = result.values.ravel()
    built = None
    for start, x, y in _blocks(result.axes):
        shape = (1 if x is None else len(x), len(y))
        if built is None:  # a field takes 19 codes, then "," or "\n"
            whole = bytearray(math.prod(shape) * columns * (_FIELD + 1))
            text = np.frombuffer(whole, np.uint8).reshape(*shape, columns, _FIELD + 1)
            text[..., :-1, _FIELD] = ord(",")
            text[..., -1, _FIELD] = ord("\n")
        lines = text[:shape[0], :shape[1]]  # text or a leading part of it
        if built is not y:
            built = y
            lines[:, :, -2, :_FIELD] = y
        if x is not None:
            lines[:, :, 0, :_FIELD] = x[:, None]
        block = values[start:start + math.prod(shape)]
        lines[:, :, -1, :_FIELD] = _format_e11(block).reshape(*shape, _FIELD)
        yield (whole if lines.size == len(whole) else whole[:lines.size]).translate(None, b"\0")


def write_scan_csv(result: ScanResult, stream: IO[str],
                   extra_header: dict | None = None) -> None:
    """Write a scan in the CSV contract: '#' metadata lines, then data rows.

    ``extra_header`` entries (e.g. a run manifest with command line and
    timestamp) are emitted before the scan metadata.  Every value is
    written as ``"%.11e" % v`` would write it; the text is that of
    :func:`save_scan_csv`, decoded a block at a time.
    """
    for chunk in _csv_bytes(result, extra_header):
        stream.write(chunk.decode("utf-8"))


def save_scan_csv(result: ScanResult, path, extra_header: dict | None = None) -> None:
    """Write a scan to a file in the CSV contract, as bytes, a block at a time."""
    with open(path, "wb") as fh:
        for chunk in _csv_bytes(result, extra_header):
            fh.write(chunk)


# "%.11e" of 0 <= v < 1e100 takes 17 bytes, d.ddddddddddde+dd or -dd; per
# column of such a field, the lowest code and how many codes above it it may
# take ("+" to "-" spans "," too, which is checked apart)
_CANONICAL = 17
_LOWEST = np.frombuffer(b"0.00000000000e+00", np.uint8)
_SPAN = np.array([9, 0, *[9] * 11, 0, 2, 9, 9], np.uint8)


def _canonical_rows(lines: np.ndarray, codes: list[np.ndarray]) -> np.ndarray | None:
    """Values of a block of canonical lines, or None if any byte is off.

    ``lines`` holds the block as ``(rows, values, line)`` codes, and
    ``codes`` the :func:`_format_e11` rows of each axis's coordinates, which
    broadcast over it.  Every byte is checked: the separators, coordinates
    against columns 1-17 of their codes, and the value field's layout.
    numpy's bytes-to-float cast of the values rounds correctly, so they
    equal ``float`` of each field.
    """
    ends = lines[..., _CANONICAL::_CANONICAL + 1]
    if not ((ends[..., :-1] == ord(",")).all() and (ends[..., -1] == ord("\n")).all()):
        return None
    for i, code in enumerate(codes):
        lo = i * (_CANONICAL + 1)
        if not (lines[..., lo:lo + _CANONICAL] == code[..., 1:_CANONICAL + 1]).all():
            return None
    value = lines[..., -_CANONICAL - 1:-1]
    if not (((value - _LOWEST) <= _SPAN).all() and (value[..., 14] != ord(",")).all()):
        return None
    return value.view(f"S{_CANONICAL}").reshape(-1)


def read_scan_csv(path) -> ScanResult:
    """Parse a file written by :func:`write_scan_csv`.

    The '#' header ends at the first data row.  The axes come back exactly,
    because their bounds are written in the shortest form that round-trips;
    every other header line comes back as a string in ``metadata``, except
    ``columns``, which the axes imply.  Writing the result again gives the
    same bytes.

    The rows are read a block of :func:`_blocks` at a time into the values
    array.  A block whose coordinate codes are canonical (no sign, a
    two-digit exponent) is read as fixed-width bytes and taken as it stands
    if its coordinates equal those codes and its values have the canonical
    layout (:func:`_canonical_rows`).  From the first block that does not,
    and after the last expected row, ``numpy.loadtxt`` parses the text 8,192
    lines at a time, skipping blank and comment lines; its errors name the
    file's data row.  Values are ``float`` of each field either way.  A
    file with another number of rows or fields than its axes call for, a
    row whose coordinates are not ``float("%.11e" % g)`` of its grid point
    or an axis line without a key raises ValueError.
    """
    metadata: dict = {}
    axes: list[SweepAxis] = []
    with open(path, "rb") as fh:
        data = 0  # the byte offset of the first data row
        header = io.TextIOWrapper(fh, encoding="utf-8", newline="")  # line ends kept
        for line in header:
            body = line.strip()
            if body and not body.startswith("#"):
                break
            data += len(line.encode("utf-8"))
            body = body[1:].strip()
            if body.startswith("axis"):
                _, spec = body.split(":", 1)
                f = dict(item.split("=") for item in spec.split())
                try:
                    axes.append(SweepAxis(f["parameter"], float(f["start"]), float(f["stop"]),
                                          int(f["samples"]), f["spacing"]))
                except KeyError as err:
                    raise ValueError(f"{path}: an axis line lacks {err.args[0]}=") from None
            elif ":" in body:
                key, value = (part.strip() for part in body.split(":", 1))
                if key != "columns":
                    metadata[key] = value
        else:
            data = None
        header.detach()
        if not axes:
            raise ValueError(f"{path} carries no axis header")
        shape = tuple(ax.samples for ax in axes)
        size, width = math.prod(shape), len(axes) + 1
        if data is None:  # numpy would warn first, and report one field
            raise ValueError(f"{path}: the axes call for {size} data "
                             f"rows of {width} fields, found 0 rows")
        fh.seek(data)
        values = np.empty(size)  # a read holds its values and one block
        found, fields = 0, width
        line_width = (_CANONICAL + 1) * width
        raw = None  # made once a block's coordinates are canonical
        for start, x, y in _blocks(tuple(axes)):
            codes = [y] if x is None else [x[:, None], y]
            # a sign (column 0) or a third exponent digit (column 18)
            if any((code[..., 0] | code[..., -1]).any() for code in codes):
                break
            if raw is None:
                raw = np.empty(_BLOCK * line_width, np.uint8)
            layout = (1 if x is None else len(x), len(y), line_width)
            at, block, rows = fh.tell(), raw[:math.prod(layout)], None
            if fh.readinto(block) == block.size:
                rows = _canonical_rows(block.reshape(layout), codes)
            if rows is None:
                fh.seek(at)
                break
            found = start + len(rows)
            values[start:found] = rows
        # the coordinates as the file holds them, if rows remain to check
        written = [_read_back(ax.grid()) for ax in axes] if found < size else []
        lines = io.TextIOWrapper(fh, encoding="utf-8")  # as a text read, from here
        for line in lines:
            if not line.split("#", 1)[0].rstrip("\n"):
                continue  # numpy skips blank and comment lines
            try:
                rows = np.loadtxt(itertools.chain([line], itertools.islice(lines, _BLOCK - 1)),
                                  delimiter=",", comments="#", ndmin=2)
            except ValueError as err:  # numpy counts data rows from the block's first
                err.args = (re.sub(r"at row (\d+)", lambda m: f"at row {int(m[1]) + found}",
                                   str(err)),)
                raise
            lo, found = found, found + len(rows)
            fields = rows.shape[1] if rows.shape[1] != width else fields
            if found > size or fields != width:
                continue  # counted for the error below
            # each coordinate column against its axis as written
            at = np.unravel_index(np.arange(lo, found), shape)
            off = np.any([rows[:, i] != g[k] for i, (g, k) in enumerate(zip(written, at))],
                         axis=0)
            if off.any():
                j = int(np.argmax(off))  # the first, at data row lo + j + 1
                wanted = tuple(float(g[k[j]]) for g, k in zip(written, at))
                raise ValueError(f"{path}: data row {lo + j + 1} holds coordinates "
                                 f"{tuple(rows[j, :-1].tolist())}, where the axes put {wanted}")
            values[lo:found] = rows[:, -1]
    if (found, fields) != (size, width):
        raise ValueError(f"{path}: the axes call for {size} data rows of {width} "
                         f"fields, found {found} rows of {fields}")
    return ScanResult(axes=tuple(axes), values=values.reshape(shape), metadata=metadata)


def _read_back(grid: np.ndarray) -> np.ndarray:
    """float("%.11e" % g) of every grid value: the coordinates a file holds."""
    back = np.empty(grid.size)
    for lo in range(0, grid.size, _BLOCK):
        codes = _format_e11(grid[lo:lo + _BLOCK])
        codes[codes[:, 0] == 0, 0] = ord("+")  # the cast stops at a NUL
        back[lo:lo + _BLOCK] = codes.view(f"S{_FIELD}")[:, 0]
    return back
