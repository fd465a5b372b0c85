"""Single-pulse propagators for the supported physical pulse models.

All models are written in the interaction picture, where the Hamiltonian is
purely off-diagonal,

    H(t) = (1/2) * Omega(t) * exp(-i D(t)) |1><2| + h.c.,
    D(t) = integral of Delta(t') from the pulse's own t = 0 to t,

so every propagator has unit determinant and the field-phase map of
:func:`cpgates.su2.with_phase` is exact for all pulse models.  t = 0 is a
rectangular pulse's start and a sech pulse's centre, and D restarts there
for each pulse; a composite sequence therefore sees one fixed constituent
propagator, phased pulse by pulse.

A pulse is named by the same strings everywhere: a shape ("rectangular" or
"sech") and a detuning model ("constant" or "tanh_chirp") with its rate.
:func:`constituent_grid` is the one entry point and the one route choice;
:func:`constituent_propagator` calls it at a single point.  Every pulse with
a constant detuning, resonant or not, takes a closed form, on scalars as on
arrays: rectangular pulses the Rabi form of :func:`rect_propagator_grid`
(in ``math`` and ``cmath`` on floats), sech pulses the Rosen-Zener form of
:func:`_rosen_zener_grid`.  Only the
tanh-chirped model is integrated numerically, by
:func:`integrate_pulse_grid`, sech pulses over the fixed window of
:data:`DEFAULT_WINDOW_HALF_WIDTH` widths on each side, a truncation that
sets no phase.  Its envelope Omega0 sech(t/T) and its detuning phase
D(t) = B*T*ln cosh(t/T) are both even, so H(-t) = H(t), and since
H* = sigma_x H sigma_x the first half of the window mirrors the second:
U(0, -wT) = (sigma_x U(wT, 0) sigma_x)^T.  Only [0, wT] is integrated;
from that half's (a_h, b_h) the pulse is a = |a_h|^2 - |b_h|^2, real, and
b = 2 a_h b_h.  Inside a :func:`grid_reuse` scope, which ``cpgates preset``
opens for one command, an integrated grid whose inputs repeat exactly is
integrated once and handed out again; nothing is kept once the scope ends.

Integration runs at :data:`REL_TOL` and :data:`MAX_STEPS` and over that
window, all read at call time, on the grid as given (a scan's block of at
most 8,192 points).  The Rosen-Zener form keeps the same contract: where
rounding could cost its phase more than :data:`REL_TOL`, which happens only
beyond |Delta*T| of about 4,200, near where integration ran out of steps, it
does not guess.
A failed grid point comes back as NaN, and a single pulse whose propagator
is not finite raises :class:`IntegrationError`.  A :class:`PulseSpec` whose
generalized Rabi frequency times its duration overflows is rejected as bad
input.

Times are in arbitrary units; all physically meaningful inputs are the
dimensionless products (pulse area, Delta*T, Omega_0*T, B*T).
"""

from __future__ import annotations

import cmath
import contextlib
import contextvars
import math
import types
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from . import integrator
from .su2 import Propagator

__all__ = [
    "PulseSpec",
    "IntegrationError",
    "resonant_rect_propagator",
    "rect_propagator_grid",
    "grid_reuse",
    "constituent_grid",
    "constituent_propagator",
    "transition_probability",
]

#: Truncation of the integrated (tanh-chirped) sech window, in units of the
#: width parameter T.  The neglected tail changes the propagator by about
#: 2*Omega0*T*exp(-w), which stays below 1e-8 for Omega0*T <= 20 at w = 25.
#: The Rosen-Zener form has no tail and does not read it.
DEFAULT_WINDOW_HALF_WIDTH = 25.0

#: The integrator's accuracy contract.  A delivered propagator's unitarity
#: defect must stay below 10 * REL_TOL.  Because local step control does not
#: cap the accumulated error, the stepper runs 10x tighter, at relative
#: tolerance 0.1 * REL_TOL and absolute tolerance 0.001 * REL_TOL, for
#: margin, and gives up on a pulse after MAX_STEPS step attempts.
REL_TOL = 1e-10
MAX_STEPS = 100_000

# Lanczos coefficients, g = 7, nine terms
_LANCZOS = (0.99999999999980993, 676.5203681218851, -1259.1392167224028,
            771.32342877765313, -176.61502916214059, 12.507343278686905,
            -0.13857109526572012, 9.9843695780195716e-6, 1.5056327351493116e-7)

# the functions rect_propagator_grid takes on floats in place of numpy's
_SCALAR_MATH = types.SimpleNamespace(hypot=math.hypot, sin=math.sin, cos=math.cos,
                                     exp=cmath.exp)

# the area convention: pulse area per unit Omega0*T, by envelope shape
_AREA_PER_RABI_T = {"rectangular": 1.0, "sech": math.pi}

# integrated grids of the open grid_reuse scope, by their exact inputs; None
# outside any scope, so nothing is kept between commands
_reused_grids: contextvars.ContextVar[dict | None] = contextvars.ContextVar(
    "cpgates_reused_grids", default=None)


@dataclass(frozen=True)
class PulseSpec:
    """One constituent pulse of a composite sequence.

    Parameters
    ----------
    shape : {"rectangular", "sech"}
        Envelope model.  Rectangular pulses run over [0, duration] at
        constant peak_rabi; sech pulses are Omega(t) = peak_rabi * sech(t/T)
        with T = duration (the width parameter, not the full length), in
        closed form over all time at a constant detuning, and integrated
        over [-w*T, +w*T] with w = DEFAULT_WINDOW_HALF_WIDTH when chirped.
        Either shape counts its detuning phase from t = 0.
    peak_rabi : float
        Peak Rabi frequency Omega_0 >= 0, rad/time.
    duration : float
        Pulse length (rectangular) or sech width parameter, >= 0.  A zero
        duration degenerates to the identity propagator, which parameter
        sweeps starting at zero duration rely on.
    model : {"constant", "tanh_chirp"}
        Detuning model: a constant detuning Delta = rate, or, for sech
        pulses only, a sweep through resonance Delta(t) = rate * tanh(t/T).
    rate : float
        The constant detuning or the chirp rate, rad/time.
    """

    shape: str
    peak_rabi: float
    duration: float
    model: str = "constant"
    rate: float = 0.0

    def __post_init__(self):
        if self.shape not in _AREA_PER_RABI_T:
            raise ValueError(f"unknown pulse shape {self.shape!r}")
        if self.model not in ("constant", "tanh_chirp"):
            raise ValueError(f"unknown detuning model {self.model!r}")
        if self.shape == "rectangular" and self.model == "tanh_chirp":
            raise ValueError("rectangular pulses take a constant detuning, not a chirp")
        if not (math.isfinite(self.peak_rabi) and math.isfinite(self.duration)
                and math.isfinite(self.rate)):
            raise ValueError("pulse parameters must be finite")
        if self.peak_rabi < 0:
            raise ValueError("peak_rabi must be nonnegative")
        if self.duration < 0:
            raise ValueError("duration must be nonnegative")
        # keeps every term of the closed Rabi form finite
        if not math.isfinite(math.hypot(self.peak_rabi, self.rate) * self.duration):
            raise ValueError("pulse too strong: hypot(peak_rabi, rate) * duration "
                             "overflows")

    def area(self) -> float:
        """Pulse area: Omega0*duration (rectangular) or pi*Omega0*T (sech)."""
        return _AREA_PER_RABI_T[self.shape] * self.peak_rabi * self.duration

    @classmethod
    def rectangular(cls, area: float, duration: float = 1.0,
                    detuning: float = 0.0) -> "PulseSpec":
        """Rectangular pulse of the given area with a constant detuning."""
        if duration <= 0:
            raise ValueError("duration must be positive to set an area")
        return cls("rectangular", area / duration, duration, "constant", detuning)

    @classmethod
    def sech(cls, peak_rabi: float, width: float = 1.0, detuning: float = 0.0,
             chirp_rate: float | None = None) -> "PulseSpec":
        """Sech pulse; pass ``chirp_rate`` for the tanh-swept detuning model."""
        if chirp_rate is None:
            return cls("sech", peak_rabi, width, "constant", detuning)
        if detuning:
            raise ValueError("give either a constant detuning or a chirp")
        return cls("sech", peak_rabi, width, "tanh_chirp", chirp_rate)


class IntegrationError(RuntimeError):
    """Raised when a pulse propagator cannot meet its accuracy contract."""


def resonant_rect_propagator(area: float) -> Propagator:
    """Closed-form propagator of a resonant rectangular pulse of given area."""
    if not math.isfinite(area) or area < 0:
        raise ValueError("area must be finite and nonnegative")
    a, b = rect_propagator_grid(area, 1.0, 0.0)
    return Propagator(complex(a), complex(b))


def rect_propagator_grid(omega0, duration, detuning) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form (a, b) of rectangular pulses with a constant detuning.

    Elementwise over arrays of Rabi frequency Omega, duration T and detuning
    Delta.  With g = sqrt(Omega^2 + Delta^2), in the interaction picture of
    this module,

        a = e^{-i Delta T/2} (cos(gT/2) + i (Delta/g) sin(gT/2)),
        b = -i e^{-i Delta T/2} (Omega/g) sin(gT/2).

    Omega = Delta = 0 gives the identity.  The ratios Delta/g and Omega/g
    are formed before they scale sin(gT/2), and g = Omega exactly at
    Delta = 0, so resonant pulses come out bit for bit as cos(A/2) and
    -i sin(A/2) with A = Omega*T.  Three floats (numpy's included) take
    ``math`` and ``cmath`` and give Python complex numbers, which needs a
    finite g*T and Delta*T, as every :class:`PulseSpec` has (ValueError
    otherwise); anything else takes numpy.
    """
    if isinstance(omega0, float) and isinstance(duration, float) and isinstance(detuning, float):
        xp = _SCALAR_MATH
    else:
        xp = np
        omega0, duration, detuning = (np.asarray(v, dtype=float)
                                      for v in (omega0, duration, detuning))
    g = xp.hypot(omega0, detuning)
    safe_g = g + (g == 0)  # g = 0 only for the identity pulse
    half = 0.5 * g * duration
    try:  # on floats, math raises "math domain error" where these overflowed
        sin_half, phase = xp.sin(half), xp.exp(-0.5j * detuning * duration)
    except ValueError:
        raise ValueError("rect_propagator_grid needs a finite hypot(omega0, "
                         "detuning) * duration and detuning * duration") from None
    a = phase * (xp.cos(half) + 1j * (detuning / safe_g) * sin_half)
    b = -1j * phase * ((omega0 / safe_g) * sin_half)
    return a, b


def transition_probability(u: Propagator) -> float:
    """Population transferred by ``u`` starting from either bare state."""
    return float(abs(u.b) ** 2)


def _log_cosh(x: np.ndarray) -> np.ndarray:
    # overflow-safe ln cosh for large |x|
    ax = np.abs(x)
    return ax - math.log(2.0) + np.log1p(np.exp(-2.0 * ax))


def _sincospi(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """sin(pi x) and cos(pi x), with exact zeros at integers and half-integers."""
    r = np.fmod(x, 2.0)  # exact
    quarter = np.rint(2.0 * r)
    f = np.pi * (r - 0.5 * quarter)  # r - quarter/2 is exact; |f| <= pi/4
    s, c = np.sin(f), np.cos(f)
    k = quarter % 4
    odd = (k == 1) | (k == 3)
    sin = np.where(odd, c, s) * np.where(k >= 2, -1.0, 1.0)
    cos = np.where(odd, s, c) * np.where((k == 1) | (k == 2), -1.0, 1.0)
    return sin, cos


def _log_gamma(z) -> np.ndarray:
    """Complex ln Gamma(z) on the branch of ``scipy.special.loggamma``.

    Lanczos's series with g = 7 and nine terms (Lanczos, SIAM J. Numer.
    Anal. B 1, 86, 1964) for Re z >= 1/2, and the reflection
    ln Gamma(z) = ln pi - ln sin(pi z) - ln Gamma(1 - z) below, with
    ln|sin(pi z)| in a form that cannot overflow at large |Im z|.  Im ln
    Gamma carries a rounding error of a few eps times its own size.
    """
    z = np.asarray(z, dtype=complex)
    left = z.real < 0.5
    w = np.where(left, 1.0 - z, z) - 1.0
    series = _LANCZOS[0] + sum(c / (w + k) for k, c in enumerate(_LANCZOS[1:], 1))
    t = w + 7.5
    lg = 0.5 * math.log(2.0 * math.pi) + (w + 0.5) * np.log(t) - t + np.log(series)
    if not left.any():
        return lg
    s, c = _sincospi(z.real)
    y = np.pi * z.imag
    # |sin(pi z)|^2 = sin^2(pi x) + sinh^2(pi y), scaled by e^{-2|pi y|}
    u = np.exp(-2.0 * np.abs(y))
    log_abs_sin = (np.abs(y) - math.log(2.0)
                   + 0.5 * np.log(4.0 * s * s * u + np.expm1(-2.0 * np.abs(y)) ** 2))
    arg_sin = np.arctan2(c * np.tanh(y), s)
    branch = np.copysign(2.0 * np.pi, z.imag) * np.floor(0.5 * z.real + 0.25)
    reflected = math.log(math.pi) - log_abs_sin + 1j * (branch - arg_sin) - lg
    return np.where(left, reflected, lg)


def _rosen_zener_grid(omega0, duration, detuning) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form (a, b) of sech pulses with a constant detuning.

    Elementwise over arrays, scalars included.  With alpha = Omega0*T/2,
    delta = Delta*T/2 and z = 1/2 + i*delta (Rosen & Zener, Phys. Rev. 40,
    502, 1932),

        a = Gamma(z)^2 / (Gamma(z + alpha) Gamma(z - alpha))
          = (cos(pi alpha) + i sin(pi alpha) tanh(pi delta))
            * exp(2i (arg Gamma(z) - arg Gamma(z + alpha))),
        b = -i sin(pi alpha) sech(pi delta).

    The detuning phase counts from the pulse's centre, so no window enters.
    The second form of a follows from reflection, 1/Gamma(z - alpha) =
    Gamma(1 - z + alpha) sin(pi (z - alpha)) / pi with Gamma(1 - z + alpha)
    the conjugate of Gamma(z + alpha), and from |Gamma(z)|^2 =
    pi / cosh(pi delta): the large real parts of the log gammas cancel
    exactly, so |a| and |b| carry only rounding, nothing overflows, and the
    poles of Gamma(z - alpha) give exact zeros.  Where rounding in the two
    log gammas could move the phase of a by more than :data:`REL_TOL`, a
    and b are NaN.
    """
    alpha = 0.5 * np.asarray(omega0, dtype=float) * duration
    delta_t = np.asarray(detuning, dtype=float) * duration
    y = 0.5 * np.pi * delta_t
    s, c = _sincospi(alpha)
    sech = np.exp(-_log_cosh(y))
    z = 0.5 + 0.5j * delta_t
    arg = _log_gamma(np.stack(np.broadcast_arrays(z, z + alpha))).imag
    a = (c + 1j * s * np.tanh(y)) * np.exp(2j * (arg[0] - arg[1]))
    b = -1j * s * sech
    # a few eps of each |arg Gamma| (see _log_gamma), both doubled, with margin
    unresolved = 16.0 * np.finfo(float).eps * (np.abs(arg[0]) + np.abs(arg[1]))
    ok = (unresolved <= REL_TOL) & np.isfinite(a) & np.isfinite(b)
    return np.where(ok, a, np.nan), np.where(ok, b, np.nan)


def integrate_pulse_grid(
    shape: str,
    model: str,
    omega0: np.ndarray,
    duration: np.ndarray,
    rate: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Integrate a batch of pulses sharing one shape and detuning model.

    ``omega0``, ``duration`` and ``rate`` (constant detuning or chirp rate,
    depending on ``model``) are flat arrays of equal length; sech pulses run
    over w = :data:`DEFAULT_WINDOW_HALF_WIDTH` widths on each side of their
    centre, at :data:`REL_TOL` and :data:`MAX_STEPS`.  Returns flat arrays
    (a, b) of Cayley-Klein parameters, NaN in both at every point that
    overflowed, ran out of steps or missed the unitarity bound, with no
    numpy warning on the way.  Zero-duration entries come back as the
    identity.  The detuning phase counts from t = 0, so the window sets
    only where integration stops.  A tanh chirp has H(-t) = H(t), so only
    [0, w*T] is integrated, and that half's (a_h, b_h) give the pulse as
    a = |a_h|^2 - |b_h|^2, b = 2 a_h b_h (see the module docstring); its
    steps are the half's and its unitarity defect the whole pulse's.  A
    rectangular chirp has no such symmetry and is refused.  Pulses with a
    constant detuning normally take their closed form (see
    :func:`constituent_grid`); they are integrated here only to check the
    integrator against that form, and that form against it.
    """
    if shape == "rectangular" and model == "tanh_chirp":
        raise ValueError("rectangular pulses take a constant detuning, not a chirp")
    omega0 = np.asarray(omega0, dtype=float)
    duration = np.asarray(duration, dtype=float)
    rate = np.asarray(rate, dtype=float)
    m = omega0.size

    if shape == "rectangular":
        t_start = np.zeros(m)
        t_end = duration.copy()
    else:
        t_end = DEFAULT_WINDOW_HALF_WIDTH * duration
        # the chirp's D(t) is even in t like the envelope, so only [0, t_end]
        t_start = -t_end if model == "constant" else np.zeros(m)
    # per-system constants, hoisted out of the right-hand side; width enters
    # only through t/width, and zero-duration rows stay inert
    safe_width = np.where(duration > 0, duration, 1.0)
    inv_width = 1.0 / safe_width
    # D(t) = rate * t, or rate * width * ln cosh(t/width) for the chirp
    per_system = (0.5 * omega0, inv_width,
                  rate if model == "constant" else rate * safe_width)

    def rhs(t, y, p):
        half_omega, inv_w, phase_rate = p
        if model == "constant":
            phase = phase_rate * t
        else:
            phase = phase_rate * _log_cosh(t * inv_w)
        if shape == "rectangular":
            envelope = half_omega
        else:
            envelope = half_omega / np.cosh(t * inv_w)
        # i dc/dt = H c with H = (1/2) Omega e^{-iD} |1><2| + h.c.
        half_coupling = envelope * np.exp(-1j * phase)
        out = np.empty_like(y)
        out[:, 0] = -1j * half_coupling * y[:, 1]
        out[:, 1] = -1j * np.conj(half_coupling) * y[:, 0]
        return out

    y0 = np.zeros((m, 2), dtype=np.complex128)
    y0[:, 0] = 1.0
    # a point that overflows or stalls comes back NaN, the one failure channel
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        result = integrator.solve_batch(rhs, t_start, t_end, y0, per_system,
                                        0.1 * REL_TOL, 0.001 * REL_TOL, MAX_STEPS)
        a = result.y[:, 0]
        b = -np.conj(result.y[:, 1])
        if model == "tanh_chirp":  # U = U(wT, 0) (sigma_x U(wT, 0) sigma_x)^T
            a, b = (np.abs(a) ** 2 - np.abs(b) ** 2).astype(complex), 2.0 * a * b
        defect = np.abs(np.abs(a) ** 2 + np.abs(b) ** 2 - 1.0)
        ok = result.success & (defect <= 10.0 * REL_TOL)
        return np.where(ok, a, np.nan), np.where(ok, b, np.nan)


@contextlib.contextmanager
def grid_reuse() -> Iterator[None]:
    """Scope inside which :func:`constituent_grid` integrates each grid once.

    A repeated call with the same shape, detuning model and the same bytes
    of ``omega0``, ``duration`` and ``rate`` returns the arrays of the first
    call, marked read-only: the bits that integrating again would give.
    Closed-form grids are recomputed: a scan block takes about 0.34 ms on the
    resonant Rabi form (13 x 601 points), 0.66 ms on the detuned one (27 x
    301) and 7.9 ms on the Rosen-Zener form (81 x 101), against 0.05 ms for
    an 8,192-point key (medians of 200, shared 2-CPU host, numpy 2.4.6).
    Everything kept is dropped when the scope ends; ``cpgates preset`` opens
    one per command, so the jobs of a preset that share a constituent grid
    integrate it once.
    """
    token = _reused_grids.set({})
    try:
        yield
    finally:
        _reused_grids.reset(token)


def constituent_grid(
    shape: str,
    model: str,
    omega0: np.ndarray,
    duration: np.ndarray,
    rate: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Propagators of pulses sharing one shape and detuning model.

    The one route choice.  The inputs broadcast together, as a scan block's
    row and column do, and (a, b) come in their broadcast shape.  Pulses
    with a constant detuning take a closed form, elementwise, so a quantity
    of one input is formed once along its axis: rectangular pulses the Rabi
    form of :func:`rect_propagator_grid`, sech pulses the Rosen-Zener form
    of :func:`_rosen_zener_grid`.  Tanh-chirped pulses are integrated by
    :func:`integrate_pulse_grid`, raveled, in one call on the grid given (a
    scan's block bounds it).  Every point has its own step control, so the
    bits of a point do not depend on the batch it is integrated in.

    ``rate`` is as for :func:`integrate_pulse_grid`.  A point whose
    integration missed its contract, or whose Rosen-Zener phase cannot be
    resolved to that contract, is NaN in both a and b, and numpy does not
    warn on the way.  Inside a :func:`grid_reuse` scope an integrated grid
    seen before is not integrated again.
    """
    if model == "constant":
        if shape == "rectangular":
            return rect_propagator_grid(omega0, duration, rate)
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            return _rosen_zener_grid(omega0, duration, rate)

    broadcast = np.broadcast_arrays(*(np.asarray(v, float) for v in (omega0, duration, rate)))
    flat = [v.ravel() for v in broadcast]
    reused = _reused_grids.get()
    if reused is not None:
        key = (shape, model, broadcast[0].shape, *(v.tobytes() for v in flat))
        if key in reused:
            return reused[key]

    a, b = (v.reshape(broadcast[0].shape) for v in integrate_pulse_grid(shape, model, *flat))
    if reused is not None:
        for arr in (a, b):
            arr.flags.writeable = False
        reused[key] = a, b
    return a, b


def constituent_propagator(spec: PulseSpec) -> Propagator:
    """Propagator of one constituent pulse: :func:`constituent_grid` at one point.

    The spec's floats go in as scalars, so pulses with a constant detuning
    take their closed form on floats, and tanh-chirped pulses integrate as a
    one-point grid, which comes back in 0-d arrays.

    Raises
    ------
    IntegrationError
        If the propagator is not finite: an integrated pulse overflowed or
        missed its accuracy contract, or the Rosen-Zener phase could not be
        resolved to that contract.  The Rabi form is finite for every valid
        spec.
    """
    a, b = constituent_grid(spec.shape, spec.model, spec.peak_rabi,
                            spec.duration, spec.rate)
    prop = Propagator(complex(a), complex(b))
    if not (cmath.isfinite(prop.a) and cmath.isfinite(prop.b)):
        raise IntegrationError(
            f"pulse propagator failed: {spec} overflowed or missed the "
            f"accuracy contract (rel_tol {REL_TOL:g})")
    return prop
