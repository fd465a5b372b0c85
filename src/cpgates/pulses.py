"""Single-pulse propagators for the supported physical pulse models.

All models are written in the interaction picture, where the Hamiltonian is
purely off-diagonal,

    H(t) = (1/2) * Omega(t) * exp(-i D(t)) |1><2| + h.c.,
    D(t) = integral of Delta(t') from the window start to t,

so every propagator has unit determinant and the field-phase map of
:func:`cpgates.su2.with_phase` is exact for all pulse models.  The detuning
phase D(t) restarts at each pulse's own window start; a composite sequence
therefore sees one fixed constituent propagator, phased pulse by pulse.

A pulse is named by the same strings everywhere: a shape ("rectangular" or
"sech") and a detuning model ("constant" or "tanh_chirp") with its rate.
:func:`constituent_grid` is the one entry point and the one route choice;
:func:`constituent_propagator` calls it at a single point.  Rectangular
pulses with a constant detuning, resonant or not, take the closed Rabi form
of :func:`rect_propagator_grid`, on scalars as on arrays; every other model
is integrated numerically by :func:`integrate_pulse_grid`, sech pulses over
the fixed window of :data:`DEFAULT_WINDOW_HALF_WIDTH` widths on each side.
Inside a :func:`grid_reuse` scope, which ``cpgates preset`` opens for one
command, an integrated grid whose inputs repeat exactly is integrated once
and handed out again; nothing is kept once the scope ends.

Integration runs at :data:`DEFAULT_CONFIG` and over that window, both read
at call time, on the grid as given (a scan's block of at most 8,192 points).
A failed grid point comes back as NaN, and a single pulse whose propagator
is not finite raises :class:`IntegrationError`.  A :class:`PulseSpec` whose
generalized Rabi frequency times its duration overflows is rejected as bad
input, so on a single pulse that error comes only from integration.  Only
:func:`integrate_pulse_grid`, the integrator's own entry point, takes a
window and an :class:`IntegratorConfig`.

Times are in arbitrary units; all physically meaningful inputs are the
dimensionless products (pulse area, Delta*T, Omega_0*T, B*T).
"""

from __future__ import annotations

import cmath
import contextlib
import contextvars
import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from . import integrator
from .su2 import Propagator

__all__ = [
    "PulseSpec",
    "IntegratorConfig",
    "IntegrationError",
    "DEFAULT_CONFIG",
    "resonant_rect_propagator",
    "rect_propagator_grid",
    "grid_reuse",
    "constituent_grid",
    "constituent_propagator",
    "transition_probability",
]

#: Truncation of the sech window, in units of the width parameter T.
#: The neglected tail changes the propagator by about 2*Omega0*T*exp(-w),
#: which stays below 1e-8 for Omega0*T <= 20 at w = 25.
DEFAULT_WINDOW_HALF_WIDTH = 25.0

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
        with T = duration (the width parameter, not the full length),
        integrated over [-w*T, +w*T] with w = DEFAULT_WINDOW_HALF_WIDTH.
    peak_rabi : float
        Peak Rabi frequency Omega_0 >= 0, rad/time.
    duration : float
        Pulse length (rectangular) or sech width parameter, >= 0.  A zero
        duration degenerates to the identity propagator, which parameter
        sweeps starting at zero duration rely on.
    model : {"constant", "tanh_chirp"}
        Detuning model: a constant detuning Delta = rate, or a detuning
        swept through resonance as Delta(t) = rate * tanh(t/T).
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
        if not all(math.isfinite(v) for v in (self.peak_rabi, self.duration, self.rate)):
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


@dataclass(frozen=True)
class IntegratorConfig:
    """Accuracy contract for pulse integration.

    ``rel_tol``/``abs_tol`` bound the delivered propagator: its unitarity
    defect must stay below 10 * rel_tol.  Because local step control does
    not cap the accumulated error, the stepper internally runs 10x tighter
    than the requested tolerances to meet that bound with margin.
    """

    rel_tol: float = 1e-10
    abs_tol: float = 1e-12
    max_steps: int = 100_000

    def __post_init__(self):
        if self.rel_tol <= 0 or self.abs_tol <= 0:
            raise ValueError("tolerances must be positive")
        if self.max_steps < 1:
            raise ValueError("max_steps must be at least 1")


DEFAULT_CONFIG = IntegratorConfig()


class IntegrationError(RuntimeError):
    """Raised when a pulse integration cannot meet its contract."""


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
    -i sin(A/2) with A = Omega*T.
    """
    omega0 = np.asarray(omega0, dtype=float)
    duration = np.asarray(duration, dtype=float)
    detuning = np.asarray(detuning, dtype=float)
    g = np.hypot(omega0, detuning)
    safe_g = np.where(g > 0, g, 1.0)  # g = 0 only for the identity pulse
    half = 0.5 * g * duration
    sin_half = np.sin(half)
    phase = np.exp(-0.5j * detuning * duration)
    a = phase * (np.cos(half) + 1j * (detuning / safe_g) * sin_half)
    b = -1j * phase * ((omega0 / safe_g) * sin_half)
    return a, b


def transition_probability(u: Propagator) -> float:
    """Population transferred by ``u`` starting from either bare state."""
    return float(abs(u.b) ** 2)


def _log_cosh(x: np.ndarray) -> np.ndarray:
    # overflow-safe ln cosh for large |x|
    ax = np.abs(x)
    return ax - math.log(2.0) + np.log1p(np.exp(-2.0 * ax))


def integrate_pulse_grid(
    shape: str,
    model: str,
    omega0: np.ndarray,
    duration: np.ndarray,
    rate: np.ndarray,
    window_half_width: float,
    config: IntegratorConfig,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Integrate a batch of pulses sharing one shape and detuning model.

    ``omega0``, ``duration`` and ``rate`` (constant detuning or chirp rate,
    depending on ``model``) are flat arrays of equal length; sech pulses run
    over ``window_half_width`` widths on each side of their centre.  Returns
    flat arrays (a, b) of Cayley-Klein parameters, a boolean success mask
    and the step attempts per pulse.  Zero-duration entries come back as the
    identity.  Rectangular pulses normally take their closed form (see
    :func:`constituent_grid`); they are integrated here only to check the
    integrator against that form.
    """
    omega0 = np.asarray(omega0, dtype=float)
    duration = np.asarray(duration, dtype=float)
    rate = np.asarray(rate, dtype=float)
    m = omega0.size

    if shape == "rectangular":
        t_start = np.zeros(m)
        t_end = duration.copy()
    else:
        t_start = -window_half_width * duration
        t_end = window_half_width * duration
    # per-system constants, hoisted out of the right-hand side; width enters
    # only through t/width, and zero-duration rows stay inert
    safe_width = np.where(duration > 0, duration, 1.0)
    inv_width = 1.0 / safe_width
    if model == "constant":
        # D(t) = rate * (t - t_start)
        per_system = (0.5 * omega0, inv_width, rate, t_start)
    else:
        # D(t) = rate * width * (ln cosh(t/width) - ln cosh(t_start/width))
        per_system = (0.5 * omega0, inv_width, rate * safe_width,
                      _log_cosh(t_start * inv_width))

    def rhs(t, y, idx):
        half_omega, inv_w, phase_rate, phase_offset = (p[idx] for p in per_system)
        if model == "constant":
            phase = phase_rate * (t - phase_offset)
        else:
            phase = phase_rate * (_log_cosh(t * inv_w) - phase_offset)
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
    result = integrator.solve_batch(
        rhs, t_start, t_end, y0,
        0.1 * config.rel_tol, 0.1 * config.abs_tol, config.max_steps,
    )
    a = result.y[:, 0]
    b = -np.conj(result.y[:, 1])
    defect = np.abs(np.abs(a) ** 2 + np.abs(b) ** 2 - 1.0)
    ok = result.success & (defect <= 10.0 * config.rel_tol)
    return a, b, ok, result.n_steps


@contextlib.contextmanager
def grid_reuse() -> Iterator[None]:
    """Scope inside which :func:`constituent_grid` integrates each grid once.

    A repeated call with the same shape, detuning model and the same bytes
    of ``omega0``, ``duration`` and ``rate`` returns the arrays of the first
    call, marked read-only: the bits that integrating again would give.
    Closed-form grids are recomputed, which costs about as much as a lookup.
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

    The one route choice.  Rectangular pulses with a constant detuning take
    the closed form of :func:`rect_propagator_grid`, elementwise and in the
    shape of the inputs, scalars included.  Every other model is integrated
    by :func:`integrate_pulse_grid` at :data:`DEFAULT_CONFIG` over the window
    of :data:`DEFAULT_WINDOW_HALF_WIDTH`, in one call on the grid given (a
    scan's block bounds it, for both routes); it returns flat arrays, one
    point for scalar inputs.  Every point has its own step control, so the
    bits of a point do not depend on the batch it is integrated in.

    Arguments are as for :func:`integrate_pulse_grid`, without the window
    and the config.  A point whose integration missed its contract is NaN in
    both a and b, and numpy does not warn on the way.  Inside a
    :func:`grid_reuse` scope an integrated grid seen before is not
    integrated again.
    """
    if shape == "rectangular" and model == "constant":
        return rect_propagator_grid(omega0, duration, rate)

    omega0, duration, rate = (np.atleast_1d(np.asarray(v, dtype=float))
                              for v in (omega0, duration, rate))
    reused = _reused_grids.get()
    if reused is not None:
        key = (shape, model, *(v.tobytes() for v in (omega0, duration, rate)))
        if key in reused:
            return reused[key]

    # a point that overflows or stalls comes back NaN, the one failure channel
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        a, b, ok, _ = integrate_pulse_grid(shape, model, omega0, duration, rate,
                                           DEFAULT_WINDOW_HALF_WIDTH, DEFAULT_CONFIG)
        a, b = np.where(ok, a, np.nan), np.where(ok, b, np.nan)
    if reused is not None:
        for arr in (a, b):
            arr.flags.writeable = False
        reused[key] = a, b
    return a, b


def constituent_propagator(spec: PulseSpec) -> Propagator:
    """Propagator of one constituent pulse: :func:`constituent_grid` at one point.

    The spec's floats go in as scalars, so rectangular pulses with a
    constant detuning take the closed form on floats, and every other model
    integrates as a one-point grid.

    Raises
    ------
    IntegrationError
        If the propagator is not finite: an integrated pulse overflowed or
        missed its accuracy contract.  The closed form is finite for every
        valid spec.
    """
    a, b = constituent_grid(spec.shape, spec.model, spec.peak_rabi,
                            spec.duration, spec.rate)
    prop = Propagator(a.item(), b.item())
    if not (cmath.isfinite(prop.a) and cmath.isfinite(prop.b)):
        raise IntegrationError(
            f"pulse integration failed: {spec} overflowed or missed the "
            f"accuracy contract (rel_tol {DEFAULT_CONFIG.rel_tol:g})")
    return prop
