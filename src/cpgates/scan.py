"""Parameter sweeps of composite-gate infidelity, plus diagnostic fits.

A scan walks its flat grid in blocks of 8,192 points.  Each block takes its
pulse parameters from the axis grids at its flat indices and goes through
:func:`cpgates.pulses.constituent_grid` and
:func:`cpgates.sequences.sequence_infidelity`, which takes each point to the
closed form or to the fold and its closure: the same kernels a single point
query runs.  A scan holds its values, its axes and one block, whose arrays
stay in cache; under tracemalloc a 400x400 map of a 50-pulse gate peaks at
2.2x its values in closed form, 2.4x folded.  Grid points are pure function
evaluations and every block takes the same numpy loops, so a point's bits
depend neither on the run nor on the size of its scan.  A scan
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
rows (at most 8,192 values).  The writer spells digits in numpy, byte for
byte Python's "%.11e": integer arithmetic on a 12-digit mantissa scaled to
within 2.3e-4, with Python's own format for the few values within 1e-3 of a
rounding tie, beyond |e| >= 100 or not finite.  Every block has one byte
template that the writer and the reader share: its coordinates and
separators, and value fields of 17 bytes, d.ddddddddddde+dd (no sign, two
exponent digits).  A coordinate takes 17 to 19 bytes (a sign, a third
exponent digit), so the template is a few rectangles, each holding lines of
one length: rows whose outer coordinate has one layout times columns whose
inner coordinate has one.  The writer spells a block's values once into a
contiguous scratch and copies them into each rectangle's value fields; a
value with three exponent digits (below 1e-99, or from 1e100) keeps its
first 17 bytes there, and its line gets the third digit spliced in before
its "\n".  A block with a sign, NaN or inf comes out as Python's "%.11e" of
each point.  The reader finds a block's few longer lines from where its
line ends fall, takes their 18-byte fields out of line, checks each
rectangle against the template in one range compare and parses each value
from its 12 digits M and exponent e: one multiply or divide by an exact
power of ten where |e - 11| <= 22 (Clinger), a double-double power of ten
and Dekker's exact product error for every other two-digit exponent, and
numpy's cast for three exponent digits and within 2**-30 ulp of a rounding
tie.  A block off the template (a comment, a CRLF, a sign) sends the rest of
the file to numpy.loadtxt, checked against each block's span of the axes.
Both give float() of a field.
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
from .sequences import CompositePhases, PhaseGateSequence, sequence_infidelity
from .su2 import fold

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


def _check_axes(axes: tuple[SweepAxis, ...]) -> None:
    """Raise ValueError unless the axes can span a scan, whatever its pulse."""
    if not 1 <= len(axes) <= 2:
        raise ValueError(f"a scan has one or two axes, not {len(axes)}")
    names = [ax.parameter for ax in axes]
    if len(set(names)) != len(names):
        raise ValueError("scan axes must address distinct parameters")
    points = math.prod(ax.samples for ax in axes)
    if points > _MAX_SAMPLES:
        raise ValueError(f"a scan holds at most {_MAX_SAMPLES} points, "
                         f"this one {points}")


@dataclass(frozen=True)
class ScanResult:
    """Sampled infidelity grid over one or two axes.

    The axes address distinct parameters and span at most 10,000,000 points,
    and ``values`` has their shape (ValueError otherwise).
    """

    axes: tuple[SweepAxis, ...]
    values: np.ndarray
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        _check_axes(self.axes)
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
    _check_axes(axes)
    if template.duration <= 0:
        raise ValueError("scan templates need a positive duration")
    names = [ax.parameter for ax in axes]
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
    points = math.prod(shape)
    # overflow and NaN surface as non-finite points, which _check_points
    # reports as a ScanError, so numpy need not warn about them on the way
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        values = np.empty(points)
        for lo in range(0, points, _BLOCK):
            at = np.unravel_index(np.arange(lo, min(lo + _BLOCK, points)), shape)
            params = _apply_axes(template, axes, [g[i] for g, i in zip(grids, at)])
            a, b = constituent_grid(template.shape, template.model, *params)
            values[lo:lo + _BLOCK] = sequence_infidelity(seq, a, b)
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
    only and no integration error; gates take ``sequence_infidelity``.

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
    if isinstance(seq, PhaseGateSequence):
        metric = sequence_infidelity(seq, a, b)
    else:
        metric = np.abs(fold(cp.phases, a, b)[0])
    _check_points(metric, (eps,))

    usable = metric > _NOISE_FLOOR
    if usable.sum() < 2:
        raise ValueError(
            "error metric sits below the 1e-13 noise floor across the whole "
            "range; fit needs a larger eps range"
        )
    slope = np.polyfit(np.log(eps[usable]), np.log(metric[usable]), 1)[0]
    return float(slope)


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
    widths = np.gradient(result.axes[0].grid())
    idx = np.nonzero(below)[0]
    runs = np.split(idx, np.nonzero(np.diff(idx) > 1)[0] + 1)
    return float(max(widths[run].sum() for run in runs))


# --- CSV contract ---------------------------------------------------------

# the widest "%.11e" text, "-1.00000000000e+100"
_FIELD = 19
# 10**k correctly rounded for k = -88..110: the scale 10**(11 - e) of a
# decimal exponent |e| < 100 sits at index 99 - e
_POW10 = np.array([float(f"1e{k}") for k in range(-88, 111)])
# columns of the six leading and the six trailing mantissa digits in a
# text's 17 codes, last digit first; "." is column 1
_DIGIT_COLUMNS = ((6, 5, 4, 3, 2, 0), (12, 11, 10, 9, 8, 7))


def _format_e11(values: np.ndarray, text: np.ndarray | None = None):
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

    Given ``text``, codes of shape ``values.shape + (17,)`` such as the
    writer's scratch for a block, it spells columns 1-17 there and returns
    the rows whose texts have a third exponent digit and that digit's code,
    or writes nothing and returns None if a text has a sign or no digits.
    """
    v = np.asarray(values, dtype=float)
    scaled = np.abs(v)  # |v|, scaled by 10**(11 - e) in place
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        e = np.floor(np.log10(scaled))
        e[scaled == 0] = 0
        slow = ~(np.abs(e) < 100)
        e[slow] = 0
        scaled *= _POW10[99 - e.astype(np.intp)]
        mantissa = np.rint(scaled)
        # outside [1e11, 1e12] only if log10 erred by more than rounding
        slow |= ((np.abs(scaled - np.floor(scaled) - 0.5) < 1e-3)
                 | ~((mantissa >= 1e11) & (mantissa <= 1e12)))
        carry = mantissa == 1e12
        mantissa[carry] = 1e11
        e += carry
        slow |= e > 99
        # slow rows get Python's text at the end, whatever digits they got;
        # "% .11e" leaves a space where "-" would go: a NUL, as on the fast path
        texts = np.array([(b"% .11e" % x).replace(b" ", b"\0") for x in v[slow].tolist()],
                         f"S{_FIELD}").view(np.uint8).reshape(-1, _FIELD)
        if text is None:
            text = np.zeros((*v.shape, _FIELD), np.uint8)
            text[..., 0] = np.signbit(v) * ord("-")
            codes, python = text[..., 1:], texts
        elif np.signbit(v).any() or not texts[:, -2].all():
            return None  # a sign, or no digit in column 17: NaN or inf
        else:
            codes, python = text, texts[:, 1:-1]
        codes[..., 1] = ord(".")
        codes[..., 13] = ord("e")
        codes[..., 14] = np.where(e < 0, ord("-"), ord("+"))
        exponent = np.abs(e).astype(np.int32)
        codes[..., 15] = exponent // 10 + ord("0")
        codes[..., 16] = exponent % 10 + ord("0")
        # int32 division by a constant is fast; split the mantissa in halves
        high = np.floor(mantissa / 1e6)
        mantissa -= high * 1e6
        for half, columns in zip((high, mantissa), _DIGIT_COLUMNS):
            rest = half.astype(np.int32)
            for column in columns:
                quotient = rest // 10
                codes[..., column] = rest - 10 * quotient + ord("0")
                rest = quotient
        text[slow] = python
    if python is texts:
        return text
    third = texts[:, -1] != 0
    return np.flatnonzero(slow)[third], texts[third, -1]


# "%.11e" of 0 <= v < 1e100 takes 17 bytes, d.ddddddddddde+dd or -dd; per
# column of such a field, the lowest code and how many codes above it it may
# take ("+" to "-" spans "," too, which is checked apart)
_CANONICAL = 17
_LOWEST = np.frombuffer(b"0.00000000000e+00", np.uint8)
_SPAN = np.array([9, 0, *[9] * 11, 0, 2, 9, 9], np.uint8)
_VALUE = slice(-_CANONICAL - 1, -1)  # a line's value field, before its "\n"
_PIECE = 4096  # lines per step of the reader's byte check: bounds its temporaries
_SLACK = 256  # lines with three exponent digits a block may hold and be read as bytes


def _runs(codes: np.ndarray) -> list[tuple[slice, slice]]:
    """Each run of :func:`_format_e11` rows whose texts take the same columns.

    A run comes as its rows and its texts' columns: from 0 with a sign, else
    from 1, to 19 with a third exponent digit, else to 18.  An axis grid is
    monotonic, so it has few runs: negative, zero and positive values, and
    any band of values below 1e-99 or from 1e100 on.
    """
    kinds = (codes[:, 0] != 0) * 2 + (codes[:, -1] != 0)
    edges = [0, *(np.flatnonzero(kinds[1:] != kinds[:-1]) + 1).tolist(), len(kinds)]
    return [(slice(a, b), slice(1 - k // 2, 18 + k % 2))
            for a, b, k in zip(edges, edges[1:], kinds[edges[:-1]].tolist())]


def _layout(row_runs: list, column_runs: list) -> tuple[list[tuple], int]:
    """The rectangles of a block's lines and its size in bytes, from its runs.

    A rectangle is its rows, its columns, the byte offset of its first line,
    the bytes from one row to the next, its line length, and where its texts
    go: the length of "x," (0 on a curve) and the columns of the x and y texts.
    """
    rects, size = [], 0
    for rows, xt in row_runs:
        lead = 0 if xt is None else xt.stop - xt.start + 1
        widths = [lead + yt.stop - yt.start + _CANONICAL + 2 for _, yt in column_runs]
        stride = sum(w * (cols.stop - cols.start) for (cols, _), w in zip(column_runs, widths))
        for (cols, yt), w in zip(column_runs, widths):
            rects.append((rows, cols, size, stride, w, lead, xt, yt))
            size += w * (cols.stop - cols.start)
        size += stride * (rows.stop - rows.start - 1)
    return rects, size


def _rectangle(lines: np.ndarray, rect: tuple) -> np.ndarray:
    """A rectangle of a block's lines, a (rows, columns, line) view of its codes."""
    rows, columns, offset, stride, width = rect[:5]
    return np.ndarray((rows.stop - rows.start, columns.stop - columns.start, width),
                      np.uint8, lines, offset, (stride, width, 1))


def _line_ends(rects: list, shape: tuple[int, int]) -> np.ndarray:
    """The offset of each line's "\n" in a block's lines of (rows, columns)."""
    widths = np.empty(shape, np.intp)
    for rect in rects:
        widths[rect[0], rect[1]] = rect[4]
    return np.cumsum(widths.ravel()) - 1


def _blocks(axes: tuple[SweepAxis, ...]) -> Iterator[tuple]:
    """A scan's data rows in the blocks that the CSV writer and reader walk.

    A block is whole rows of at most 8,192 values, or part of one row if the
    inner axis is longer.  It comes as its first flat index, its coordinates
    (one grid slice per axis), its lines and their rectangles.  The lines are
    one byte template, "x,y,0.00000000000e+00\n" for every point (without
    "x," on a curve), each coordinate spelled by :func:`_format_e11`.  A
    rectangle (:func:`_layout`) holds lines of one length: the block's rows
    in one run of the outer axis (:func:`_runs`; a curve's block is one row)
    times its columns in one run of the inner axis; :func:`_rectangle` views
    it in the lines.

    The lines are a leading part of one buffer, made for the largest block.
    Separators and value fields are set when the rectangles change, inner
    coordinates when they change and outer ones for every block, so a block's
    lines hold until the next block is taken.  Inner codes are kept only
    while they serve every block.
    """
    *outer, inner = (ax.grid() for ax in axes)
    step = min(inner.size, _BLOCK)  # inner values per block
    rows = _BLOCK // step  # whole rows per block
    span = rows * (_BLOCK // rows)  # outer values formatted at once, in whole blocks
    y = buffer = laid = None
    for c in range(0, outer[0].size if outer else 1, span):
        xs = _format_e11(outer[0][c:c + span]) if outer else None
        xruns = _runs(xs) if outer else [(slice(0, 1), None)]
        for r in range(0, len(xs) if outer else 1, rows):
            x = xs[r:r + rows] if outer else None
            row_runs = [(slice(max(a.start - r, 0), min(a.stop - r, rows)), xt)
                        for a, xt in xruns if r < a.stop and a.start < r + rows]
            for lo in range(0, inner.size, step):
                fresh = y is None or step < inner.size
                if fresh:
                    y = None  # not held while the next codes are spelled
                    y = _format_e11(inner[lo:lo + step])
                    column_runs = _runs(y)
                rects, size = _layout(row_runs, column_runs)
                if buffer is None or buffer.size < size:
                    buffer, laid = np.empty(size, np.uint8), None
                lines, whole = buffer[:size], laid != rects
                for rect in rects:
                    view, (xrows, ycols, *_, lead, xt, yt) = _rectangle(lines, rect), rect
                    if whole:
                        view[..., _VALUE.start - 1] = ord(",")
                        view[..., _VALUE] = _LOWEST
                        view[..., -1] = ord("\n")
                        if xt is not None:
                            view[..., lead - 1] = ord(",")
                    if whole or fresh:
                        view[..., lead:lead + yt.stop - yt.start] = y[ycols, yt]
                    if xt is not None:
                        view[..., :lead - 1] = x[xrows, None, xt]
                laid = rects
                coordinates = [outer[0][c + r:c + r + len(x)]] if outer else []
                yield (c + r) * inner.size + lo, coordinates + [inner[lo:lo + step]], lines, rects


def _csv_bytes(result: ScanResult, extra_header: dict | None) -> Iterator[bytes | memoryview]:
    """The CSV contract as bytes: the UTF-8 header, then one chunk per block.

    A block's values are spelled once into a contiguous scratch of 17 codes
    each, then copied into the value fields of each rectangle of its lines
    (:func:`_blocks`), which come out as they stand.  A block with a value
    off that layout (a sign, NaN or inf) comes out instead as Python's
    "%.11e" of each of its points.  A value with three exponent digits
    leaves its first 17 bytes in the template, and the block comes out in
    pieces with its third digit between them, before the line's "\n".
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

    line = b",".join([b"%.11e"] * (len(result.axes) + 1)) + b"\n"
    values = result.values.ravel()
    scratch = None
    for start, coordinates, lines, rects in _blocks(result.axes):
        shape = (1, *map(len, coordinates))[-2:]  # a curve's block is one row
        block = values[start:start + math.prod(shape)]
        if scratch is None:  # for the first block, the largest
            scratch = np.empty((block.size, _CANONICAL), np.uint8)
        spelled = _format_e11(block, scratch[:block.size])
        if spelled is None:  # a sign, NaN or inf
            points = itertools.product(*(g.tolist() for g in coordinates))
            yield b"".join(line % (*p, v) for p, v in zip(points, block.tolist()))
            continue
        digits = scratch[:block.size].reshape(*shape, _CANONICAL)
        for rect in rects:
            _rectangle(lines, rect)[..., _VALUE] = digits[rect[0], rect[1]]
        long, digit = spelled  # a third exponent digit goes before its line's "\n"
        ends = [0, *(_line_ends(rects, shape)[long].tolist() if long.size else [])]
        for lo, hi, code in zip(ends, ends[1:], digit.tolist()):
            yield lines.data[lo:hi]
            yield bytes((code,))
        yield lines.data[ends[-1]:]


def write_scan_csv(result: ScanResult, stream: IO[str],
                   extra_header: dict | None = None) -> None:
    """Write a scan in the CSV contract: '#' metadata lines, then data rows.

    ``extra_header`` entries (e.g. a run manifest with command line and
    timestamp) are emitted before the scan metadata.  Every value is
    written as ``"%.11e" % v`` would write it; the text is that of
    :func:`save_scan_csv`, decoded a block at a time.
    """
    for chunk in _csv_bytes(result, extra_header):
        stream.write(str(chunk, "utf-8"))


def save_scan_csv(result: ScanResult, path, extra_header: dict | None = None) -> None:
    """Write a scan to a file in the CSV contract, as bytes, a block at a time."""
    with open(path, "wb") as fh:
        for chunk in _csv_bytes(result, extra_header):
            fh.write(chunk)


# by e + 99, a field's 12 digits as an integer M times _TIMES over _OVER round
# once to M * 10**j, j = e - 11, where |j| <= 22, and stay M elsewhere
_CLINGER = 22  # 10**k is a double for k <= 22
_EXACT = np.array([float(10 ** k) for k in range(_CLINGER + 1)])
_J = np.arange(-110, 89)
_TIMES, _OVER = (_EXACT[np.where(np.abs(_J) <= _CLINGER, np.maximum(sign * _J, 0), 0)]
                 for sign in (1, -1))


def _ten_to(j: int) -> tuple[float, float]:
    """10**j as hi + lo, each a correctly rounded double, from integers alone."""
    num, den = (10 ** j, 1) if j >= 0 else (1, 10 ** -j)
    hi = num / den
    p, q = hi.as_integer_ratio()
    return hi, (num * q - p * den) / (den * q)


# by e + 99, 10**(e - 11) as a double-double
_HI, _LO = np.array([_ten_to(j) for j in _J.tolist()]).T


def _product_error(a, b):
    """a * b - fl(a * b), exactly: Dekker's two-product (numpy has no fma)."""
    ah, bh = (x * 134217729.0 - (x * 134217729.0 - x) for x in (a, b))  # Veltkamp's split
    al, bl = a - ah, b - bh
    return ((ah * bh - a * b) + ah * bl + al * bh) + al * bl


def _canonical_rows(lines: np.ndarray, template: np.ndarray, rects: list,
                    values: np.ndarray) -> bool:
    """Parse a block's canonical lines into ``values``; False if a byte is off.

    ``lines`` holds the block's bytes, ``template`` and ``rects`` its lines
    and their rectangles from :func:`_blocks`, and ``values`` its (rows,
    columns) values.  One range compare per rectangle checks every byte:
    ``lines - template`` in uint8 is 0 outside the value fields and at most
    ``_SPAN`` in them, where an exponent sign "," (1) is refused apart.  It
    is taken in place, in pieces of at most 4,096 lines that bound the
    temporaries, and leaves the value digits as 0-9, which :func:`_parse`
    reads.  A rectangle of one row or of whole rows is parsed in place, and
    others through a copy of their fields and values.
    """
    for rect in rects:
        got, want = _rectangle(lines, rect), _rectangle(template, rect)
        rows, columns, width = got.shape
        span = np.zeros(width, np.uint8)
        span[_VALUE] = _SPAN
        step = max(1, _PIECE // columns)
        for i, j in itertools.product(range(0, rows, step), range(0, columns, _PIECE)):
            at = np.s_[i:i + step, j:j + _PIECE]
            if not (np.subtract(got[at], want[at], out=got[at]) <= span).all():
                return False
        if (got[..., -4] == 1).any():
            return False
        cells = values[rect[0], rect[1]]
        parsed = cells.reshape(-1)
        _parse(got[..., _VALUE].reshape(-1, _CANONICAL), parsed)
        if not np.may_share_memory(parsed, cells):
            cells[...] = parsed.reshape(cells.shape)
    return True


def _parse(value: np.ndarray, values: np.ndarray) -> None:
    """Parse (n, 17) fields d.ddddddddddde±dd, as digits 0-9, into ``values``.

    A value is M * 10**j: M, its 12 digits, is summed column by column in
    ``values`` (exact, as M < 2**53), and j = e - 11.  Where |j| <= 22,
    one multiply or divide by the exact 10**|j| rounds correctly (Clinger).
    Elsewhere, -110 <= j <= 88, 10**j = hi + lo as a double-double: with
    q = M * hi and r its exact error (Dekker's two-product) plus M * lo,
    q + r is M * 10**j within 2**-100 of itself.  v = q + r rounds it once,
    and the exact remainder of that sum (Fast2Sum) says how far v lies from
    a rounding tie.  numpy's bytes-to-float cast, which rounds correctly,
    reads a value within 2**-30 of a gap from a tie.  So every value is
    ``float`` of its field.
    """
    values[:] = value[:, 0]
    for column in range(2, 13):
        values *= 10
        values += value[:, column]
    e = value[:, 15].astype(np.int16) * 10 + value[:, 16]  # not in uint8, which wraps
    e *= 1 - value[:, 14].astype(np.int16)  # "+" is 0 and "-" 2
    values *= _TIMES[e + 99]
    values /= _OVER[e + 99]
    wide = np.flatnonzero(np.abs(e - 11) > _CLINGER)
    slow = [wide[:0]]
    for at in np.split(wide, range(1024, wide.size, 1024)):  # pieces bound the memory
        m, hi = values[at], _HI[e[at] + 99]
        q = m * hi
        r = _product_error(m, hi) + m * _LO[e[at] + 99]
        values[at] = v = q + r
        t = r - (v - q)  # M * 10**j - v
        near = np.nextafter(v, np.where(t < 0, -np.inf, np.inf))
        slow.append(at[np.abs(t / (near - v)) > 0.5 - 2.0 ** -30])
    slow = np.concatenate(slow)
    values[slow] = (value[slow] + _LOWEST).view(f"S{_CANONICAL}")[:, 0]


def _long_lines(fh: IO[bytes], raw: np.ndarray, ends: np.ndarray) -> tuple | None:
    """Take a block's lines with three exponent digits out of line, in place.

    ``raw`` holds a block read to its template's size, ``ends[-1] + 1``, and
    ``ends`` its template's "\n" offsets.  A value with three exponent
    digits makes its line one byte longer than the template's, and shifts
    every later line by one: a line whose "\n" is not where the template and
    the longer lines before it put it is one.  Reads at most 256 bytes more,
    finds those lines, copies their 18-byte fields, removes each one's
    hundreds digit, so that the block has its template's size again, and
    leaves ``fh`` at the block's end.  Returns the lines and their fields,
    or None where more than 256 such lines or the file's end lie beyond or a
    byte taken out is not a digit.
    """
    size = int(ends[-1]) + 1
    got = fh.readinto(raw[size:size + _SLACK])
    raw[size + got:size + _SLACK] = 0  # no stale "\n"
    long: list[int] = []
    while len(long) <= got:
        first = long[-1] + 1 if long else 0
        off = raw[ends[first:] + len(long)] != ord("\n")
        if not off.any():
            break
        long.append(first + int(off.argmax()))
    if len(long) > got:
        return None
    last = ends[long] + np.arange(len(long))  # each field's last digit
    fields = raw[last[:, None] + np.arange(-_CANONICAL, 1)]
    if not (fields[:, -3] - ord("0") <= 9).all():  # in uint8
        return None
    for k, (lo, hi) in enumerate(zip(last - 2, [*(last[1:] - 2).tolist(), size + len(long)])):
        raw[lo - k:hi - k - 1] = raw[lo + 1:hi]
    fh.seek(len(long) - got, io.SEEK_CUR)
    return np.array(long), fields


def read_scan_csv(path) -> ScanResult:
    """Parse a file written by :func:`write_scan_csv`.

    The '#' header ends at the first data row.  The axes come back exactly,
    because their bounds are written in the shortest form that round-trips;
    every other header line comes back as a string in ``metadata``, except
    ``columns``, which the axes imply.  Writing the result again gives the
    same bytes.

    The rows are read a block of :func:`_blocks` at a time into the values
    array.  A block is read as the bytes of its template's lines and taken as
    it stands if each of its rectangles matches the template in one range
    compare: coordinates and separators byte for byte, values in the
    canonical layout (:func:`_canonical_rows`).  A block whose last byte is
    not a "\n" first has its lines with three exponent digits taken out of
    line (:func:`_long_lines`), up to 256 of them.  From the first block that
    does not match (a comment, a CRLF, a value with a sign, NaN or inf), and
    after the last expected row, ``numpy.loadtxt`` parses the text 8,192
    lines at a time, skipping blank and comment lines; its errors name the
    file's data row.  Values are ``float`` of each field either way: read
    from their digits, exactly from 1e-99 to below 1e100, and by numpy's cast
    for three exponent digits or within 2**-30 of a gap from a rounding tie.
    A file with another number of rows or fields than its axes call for, a
    row whose coordinates are not ``float("%.11e" % g)`` of its grid point, a
    malformed axis line or axes that no scan has (see :class:`ScanResult`)
    raise ValueError that names the file, and the missing key or the line.
    """
    metadata: dict = {}
    axes: list[SweepAxis] = []
    with open(path, "rb") as fh:
        data = 0  # the byte offset of the first data row
        header = io.TextIOWrapper(fh, encoding="utf-8", newline="")  # line ends kept
        for number, line in enumerate(header, 1):
            body = line.strip()
            if body and not body.startswith("#"):
                break
            data += len(line.encode("utf-8"))
            body = body[1:].strip()
            if body.startswith("axis"):
                try:
                    f = dict(item.split("=") for item in body.split(":", 1)[1].split())
                    axes.append(SweepAxis(f["parameter"], float(f["start"]), float(f["stop"]),
                                          int(f["samples"]), f["spacing"]))
                except KeyError as err:
                    raise ValueError(f"{path}: an axis line lacks {err.args[0]}=") from None
                except (ValueError, IndexError) as err:
                    raise ValueError(f"{path}, line {number}: bad axis line "
                                     f"{line.rstrip()!r}: {err}") from None
            elif ":" in body:
                key, value = (part.strip() for part in body.split(":", 1))
                if key != "columns":
                    metadata[key] = value
        else:
            data = None
        header.detach()
        if not axes:
            raise ValueError(f"{path} carries no axis header")
        try:  # before the values are allocated
            _check_axes(tuple(axes))
        except ValueError as err:
            raise ValueError(f"{path}: {err}") from None
        shape = tuple(ax.samples for ax in axes)
        size, width = math.prod(shape), len(axes) + 1
        if data is None:  # numpy would warn first, and report one field
            raise ValueError(f"{path}: the axes call for {size} data "
                             f"rows of {width} fields, found 0 rows")
        fh.seek(data)
        values = np.empty(size)  # a read holds its values and one block
        found, fields = 0, width
        raw = None  # made for the largest block in bytes
        for start, coordinates, template, rects in _blocks(tuple(axes)):
            lines = (1, *map(len, coordinates))[-2:]  # rows and columns
            if raw is None or raw.size < template.size + _SLACK:
                raw = np.empty(template.size + _SLACK, np.uint8)
            at, block, rows = fh.tell(), raw[:template.size], values[start:start + math.prod(lines)]
            whole, long = fh.readinto(block) == block.size, ()
            if whole and block[-1] != ord("\n"):  # a line longer than the template's
                long = _long_lines(fh, raw, _line_ends(rects, lines))
            if (not whole or long is None
                    or not _canonical_rows(block, template, rects, rows.reshape(lines))):
                fh.seek(at)
                break
            if long:
                rows[long[0]] = long[1].view(f"S{_CANONICAL + 1}")[:, 0]
            found = start + rows.size
        # the axes as the file holds them: whole up to a block's length, else by span
        grids = [ax.grid() for ax in axes] if found < size else []
        backs = [_read_back(g) if g.size <= _BLOCK else None for g in grids]
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
            at = np.unravel_index(np.arange(lo, found), shape)
            written = [_read_back(g[k.min():k.max() + 1])[k - k.min()] if b is None else b[k]
                       for g, b, k in zip(grids, backs, at)]
            off = np.any([rows[:, i] != w for i, w in enumerate(written)], axis=0)
            if off.any():
                j = int(np.argmax(off))  # the first, at data row lo + j + 1
                wanted = tuple(float(w[j]) for w in written)
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
