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
finite.  A block whose texts all take 17 bytes, d.ddddddddddde+dd (no sign,
two exponent digits), has one byte template with its coordinates and
separators that the writer and the reader share: the writer spells each
value into it, and the reader checks a block against it in one range
compare and parses each value from its 12 digits M and exponent e: one
multiply or divide by an exact power of ten where |e - 11| <= 22
(Clinger), Dekker's exact remainders to correct two roundings where
-33 <= e <= -12, numpy's cast elsewhere and within 2**-30 ulp of a
rounding tie.  The writer spells other blocks as 19 NUL-padded codes per
field, NULs dropped, and holds one block.  Negative coordinates (fig3,
fig4), or a block off that layout (a comment, a CRLF, a signed value, three
exponent digits), send the rest of the file to numpy.loadtxt, checked
against each block's span of the axes.  Both give float() of a field.
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


def _format_e11(values: np.ndarray, text: np.ndarray | None = None) -> np.ndarray | None:
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

    Given ``text``, codes of shape ``values.shape + (17,)`` such as a
    block's value fields, it spells columns 1-17 there, or writes nothing and
    returns None if a text has a sign, three exponent digits or no digits.
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
        python = np.array([(b"% .11e" % x).replace(b" ", b"\0") for x in v[slow].tolist()],
                          f"S{_FIELD}").view(np.uint8).reshape(-1, _FIELD)
        if text is None:
            text = np.zeros((*v.shape, _FIELD), np.uint8)
            text[..., 0] = np.signbit(v) * ord("-")
            codes = text[..., 1:]
        elif np.signbit(v).any() or (python[:, [0, -1]].any() or not python[:, -2].all()):
            return None  # a canonical text has column 17, but neither 0 nor 18
        else:
            codes, python = text, python[:, 1:-1]
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
    return text


# "%.11e" of 0 <= v < 1e100 takes 17 bytes, d.ddddddddddde+dd or -dd; per
# column of such a field, the lowest code and how many codes above it it may
# take ("+" to "-" spans "," too, which is checked apart)
_CANONICAL = 17
_LOWEST = np.frombuffer(b"0.00000000000e+00", np.uint8)
_SPAN = np.array([9, 0, *[9] * 11, 0, 2, 9, 9], np.uint8)


def _blocks(axes: tuple[SweepAxis, ...]) -> Iterator[tuple]:
    """A scan's data rows in the blocks that the CSV writer and reader walk.

    A block is whole rows of at most 8,192 values, or part of one row if the
    inner axis is longer.  It comes as its first flat index, the
    :func:`_format_e11` rows of its outer coordinates (None for a curve),
    sliced from those of up to 8,192 rows, and of its inner ones, made once
    unless the inner axis spans blocks, then its lines if no coordinate has a
    sign or a third exponent digit, else None.  The lines, one per row of
    18-byte fields, are a leading part of one template made for the largest
    block: each coordinate's 17 codes and ",", then "0.00000000000e+00\n".
    Separators and value fields are set once, inner coordinates when they
    change and outer ones for every block, so a block's lines hold until the
    next block is taken.
    """
    *outer, inner = (ax.grid() for ax in axes)
    step = min(inner.size, _BLOCK)  # inner values per block
    rows = _BLOCK // step  # whole rows per block
    span = rows * (_BLOCK // rows)  # outer values formatted at once, in whole blocks
    y = template = None
    for c in range(0, outer[0].size if outer else 1, span):
        xs = _format_e11(outer[0][c:c + span]) if outer else [None]
        for r in range(0, len(xs), rows):
            for lo in range(0, inner.size, step):
                if y is None or step < inner.size:
                    y, filled = _format_e11(inner[lo:lo + step]), False
                x, lines = (xs[r:r + rows] if outer else None), None
                codes = [y] if x is None else [x, y]
                if not any((code[:, 0] | code[:, -1]).any() for code in codes):
                    if template is None:
                        shape = (min(rows, outer[0].size) if outer else 1, step, len(codes) + 1)
                        template = np.tile(np.frombuffer(_LOWEST.tobytes() + b",", np.uint8), shape)
                        template[..., -1], filled = ord("\n"), False
                    lines = template[:1 if x is None else len(x), :len(y)]
                    if not filled:
                        lines[..., -2 * _CANONICAL - 2:-_CANONICAL - 2], filled = y[:, 1:-1], True
                    if x is not None:
                        lines[..., :_CANONICAL] = x[:, None, 1:-1]
                    lines = lines.reshape(-1, template.shape[-1])
                yield (c + r) * inner.size + lo, x, y, lines


def _csv_bytes(result: ScanResult, extra_header: dict | None) -> Iterator[bytes | memoryview]:
    """The CSV contract as bytes: the UTF-8 header, then one chunk per block.

    A block with lines (:func:`_blocks`) comes out as those lines, each
    value's 17 codes spelled into its field, if its texts are canonical.
    Others are laid out in one bytearray of 19 codes and a separator per
    field, separators set once and inner coordinates when they change, and
    come out NULs dropped.
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
    whole = built = largest = None
    for start, x, y, lines in _blocks(result.axes):
        shape = (1 if x is None else len(x), len(y))
        largest = largest or math.prod(shape)  # the first block is the largest
        block = values[start:start + math.prod(shape)]
        if lines is not None and _format_e11(block, lines[:, -_CANONICAL - 1:-1]) is not None:
            yield lines.data
            continue
        if whole is None:  # for any block; a field takes 19 codes, then "," or "\n"
            whole = bytearray(largest * columns * (_FIELD + 1))
            text = np.frombuffer(whole, np.uint8).reshape(-1, columns, _FIELD + 1)
            text[:, :-1, _FIELD] = ord(",")
            text[:, -1, _FIELD] = ord("\n")
        padded = text[:block.size].reshape(*shape, columns, _FIELD + 1)
        if built is not y:
            built = y
            padded[:, :, -2, :_FIELD] = y
        if x is not None:
            padded[:, :, 0, :_FIELD] = x[:, None]
        padded[:, :, -1, :_FIELD] = _format_e11(block).reshape(*shape, _FIELD)
        # a slice of a bytearray is a copy, which a whole block does without
        yield (whole if padded.size == len(whole) else whole[:padded.size]).translate(None, b"\0")


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
# once to M * 10**(e - 11) where |e - 11| <= 22, and to M / 1e22 below that
_CLINGER = 22  # 10**k is a double for k <= 22
_EXACT = np.array([float(10 ** k) for k in range(_CLINGER + 1)])
_J = np.arange(-110, 89)
_TIMES, _OVER = _EXACT[np.clip(_J, 0, _CLINGER)], _EXACT[np.clip(-_J, 0, _CLINGER)]


def _product_error(a, b):
    """a * b - fl(a * b), exactly: Dekker's two-product (numpy has no fma)."""
    ah, bh = (x * 134217729.0 - (x * 134217729.0 - x) for x in (a, b))  # Veltkamp's split
    al, bl = a - ah, b - bh
    return ((ah * bh - a * b) + ah * bl + al * bh) + al * bl


def _canonical_rows(lines: np.ndarray, template: np.ndarray, values: np.ndarray) -> bool:
    """Parse a block's canonical lines into ``values``; False if a byte is off.

    ``lines`` holds the block's bytes and ``template`` its lines from
    :func:`_blocks`, both as ``(lines, line)`` codes.  One range compare
    checks every byte: ``lines - template`` in uint8 is 0 outside the value
    fields and at most ``_SPAN`` in them, where an exponent sign "," (1) is
    refused apart.  It is taken in place, in pieces of 1,024 lines that bound
    the temporaries, and leaves the value digits as 0-9.

    A value d.ddddddddddde±dd is M * 10**j: M, its 12 digits, is summed
    column by column in int64 (M < 2**53), and j = e - 11.  Where |j| <= 22,
    one multiply or divide by the exact 10**|j| rounds correctly (Clinger).
    Where -44 <= j <= -23, q = M / 1e22 / 10**(-j - 22) rounds twice, and
    Dekker's two-products give both remainders exactly: q moves to its
    neighbour on the quotient's side if the quotient lies past one half of
    the gap between them, a distance known within 1e-15 of the gap.  q lies
    within 1.5 gaps of the quotient, so the neighbour is nearest also where
    the quotient lies past it, unless it were a power of two below q, where
    gaps halve; no such field lies within 67 gaps of a power of two.  numpy's
    bytes-to-float cast, which rounds correctly, reads other j and a distance
    within 2**-30 of one half.  So every value is ``float`` of its field.
    """
    field = slice(-_CANONICAL - 1, -1)
    span = np.zeros(lines.shape[1], np.uint8)
    span[field] = _SPAN
    for lo in range(0, len(lines), 1024):
        piece = np.subtract(lines[lo:lo + 1024], template[lo:lo + 1024], out=lines[lo:lo + 1024])
        if not ((piece <= span).all() and (piece[:, field][:, 14] != 1).all()):
            return False
    value = lines[:, field]
    mantissa = value[:, 0].astype(np.int64)
    for column in range(2, 13):
        mantissa *= 10
        mantissa += value[:, column]
    e = value[:, 15].astype(np.int16) * 10 + value[:, 16]  # not in uint8, which wraps
    e *= 1 - value[:, 14].astype(np.int16)  # "+" is 0 and "-" 2
    np.multiply(mantissa, _TIMES[e + 99], out=values)
    values /= _OVER[e + 99]
    slow = [np.flatnonzero((e < -33) | (e > 11 + _CLINGER))]
    twice = np.flatnonzero((e >= -33) & (e < 11 - _CLINGER))
    for at in np.split(twice, range(1024, twice.size, 1024)):  # pieces bound the memory
        q1 = values[at]  # M / 1e22
        r1 = (mantissa[at] - q1 * _EXACT[-1]) - _product_error(q1, _EXACT[-1])
        scale = _EXACT[11 - _CLINGER - e[at]]
        q = q1 / scale
        r2 = (q1 - q * scale) - _product_error(q, scale)
        s = r2 + r1 / _EXACT[-1]  # (M * 10**j - q) * scale
        near = np.nextafter(q, np.where(s < 0, 0.0, np.inf))
        past = s / ((near - q) * scale)
        values[at] = np.where(past > 0.5, near, q)
        slow.append(at[np.abs(past - 0.5) < 2.0 ** -30])
    slow = np.concatenate(slow)
    values[slow] = (value[slow] + _LOWEST).view(f"S{_CANONICAL}")[:, 0]
    return True


def read_scan_csv(path) -> ScanResult:
    """Parse a file written by :func:`write_scan_csv`.

    The '#' header ends at the first data row.  The axes come back exactly,
    because their bounds are written in the shortest form that round-trips;
    every other header line comes back as a string in ``metadata``, except
    ``columns``, which the axes imply.  Writing the result again gives the
    same bytes.

    The rows are read a block of :func:`_blocks` at a time into the values
    array.  A block with lines (no coordinate with a sign or a third exponent
    digit) is read as fixed-width bytes and taken as it stands if it matches
    its template in one range compare: coordinates and separators byte for
    byte, values in the canonical layout (:func:`_canonical_rows`).  From the
    first block that does not, and after the last expected row,
    ``numpy.loadtxt`` parses the text 8,192 lines at a time, skipping blank
    and comment lines; its errors name the file's data row.  Values are
    ``float`` of each field either way: read from their digits, exactly from
    1e-33 to below 1e34, and by numpy's cast elsewhere or within 2**-30 of a
    gap from a rounding tie.  A file with another number of rows or fields
    than its axes call for, a row whose coordinates are not
    ``float("%.11e" % g)`` of its grid point or a malformed axis line raises
    ValueError that names the file, and the missing key or the line.
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
        shape = tuple(ax.samples for ax in axes)
        size, width = math.prod(shape), len(axes) + 1
        if data is None:  # numpy would warn first, and report one field
            raise ValueError(f"{path}: the axes call for {size} data "
                             f"rows of {width} fields, found 0 rows")
        fh.seek(data)
        values = np.empty(size)  # a read holds its values and one block
        found, fields = 0, width
        raw = None  # made for the first block, the largest
        for start, _, _, template in _blocks(tuple(axes)):
            if template is None:
                break
            raw = np.empty(template.shape, np.uint8) if raw is None else raw
            at, block, rows = fh.tell(), raw[:len(template)], values[start:start + len(template)]
            if fh.readinto(block) != block.size or not _canonical_rows(block, template, rows):
                fh.seek(at)
                break
            found = start + len(rows)
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
