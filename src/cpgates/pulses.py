"""Single-pulse propagators for the supported physical pulse models.

All models are written in the interaction picture, where the Hamiltonian is
purely off-diagonal,

    H(t) = (1/2) * Omega(t) * exp(-i D(t)) |1><2| + h.c.,
    D(t) = integral of Delta(t') from the window start to t,

so every propagator has unit determinant and the field-phase map of
:func:`cpgates.su2.with_phase` is exact for all pulse models.  The detuning
phase D(t) restarts at each pulse's own window start; a composite sequence
therefore sees one fixed constituent propagator, phased pulse by pulse.

One route choice serves single pulses (:func:`constituent_propagator`) and
grids of pulses (:func:`constituent_grid`) alike, on the model names of
:func:`detuning_fields`.  Rectangular pulses with a constant detuning,
resonant or not, have the closed Rabi form of :func:`rect_propagator_grid`,
for one pulse as for a grid; hyperbolic-secant pulses, with a constant or a
tanh-swept detuning, are integrated numerically by
:func:`integrate_pulse_grid`.  Inside a :func:`grid_reuse` scope, which
``cpgates preset`` opens for one command, an integrated grid whose inputs
repeat exactly is integrated once and handed out again; nothing is kept once
the scope ends.

Times are in arbitrary units; all physically meaningful inputs are the
dimensionless products (pulse area, Delta*T, Omega_0*T, B*T).
"""

from __future__ import annotations

import contextlib
import contextvars
import math
from dataclasses import dataclass, field
from typing import Iterator, Union

import numpy as np

from . import integrator
from .su2 import Propagator

__all__ = [
    "ConstantDetuning",
    "TanhChirp",
    "PulseSpec",
    "IntegratorConfig",
    "IntegrationError",
    "DEFAULT_CONFIG",
    "resonant_rect_propagator",
    "rect_propagator_grid",
    "detuning_fields",
    "integrate_pulse",
    "grid_reuse",
    "constituent_grid",
    "constituent_propagator",
    "transition_probability",
]

#: Default truncation of the sech window, in units of the width parameter T.
#: The neglected tail changes the propagator by about 2*Omega0*T*exp(-w),
#: which stays below 1e-8 for Omega0*T <= 20 at w = 25.
DEFAULT_WINDOW_HALF_WIDTH = 25.0

_CHUNK = 4096  # points per integration chunk; bounds the integrator's memory

# integrated grids of the open grid_reuse scope, by their exact inputs; None
# outside any scope, so nothing is kept between commands
_reused_grids: contextvars.ContextVar[dict | None] = contextvars.ContextVar(
    "cpgates_reused_grids", default=None)


@dataclass(frozen=True)
class ConstantDetuning:
    """Constant detuning Delta (rad/time) between field and transition."""

    detuning: float = 0.0


@dataclass(frozen=True)
class TanhChirp:
    """Detuning swept as Delta(t) = chirp_rate * tanh(t/T) through resonance."""

    chirp_rate: float


DetuningModel = Union[ConstantDetuning, TanhChirp]


@dataclass(frozen=True)
class PulseSpec:
    """One constituent pulse of a composite sequence.

    Parameters
    ----------
    shape : {"rectangular", "sech"}
        Envelope model.  Rectangular pulses run over [0, duration] at
        constant peak_rabi; sech pulses are Omega(t) = peak_rabi * sech(t/T)
        with T = duration (the width parameter, not the full length),
        integrated over [-w*T, +w*T] with w = window_half_width.
    peak_rabi : float
        Peak Rabi frequency Omega_0 >= 0, rad/time.
    duration : float
        Pulse length (rectangular) or sech width parameter, >= 0.  A zero
        duration degenerates to the identity propagator, which parameter
        sweeps starting at zero duration rely on.
    detuning_model : ConstantDetuning or TanhChirp
    window_half_width : float
        Sech truncation in units of T, >= 5.  Ignored for rectangular pulses.
    """

    shape: str
    peak_rabi: float
    duration: float
    detuning_model: DetuningModel = field(default_factory=ConstantDetuning)
    window_half_width: float = DEFAULT_WINDOW_HALF_WIDTH

    def __post_init__(self):
        if self.shape not in ("rectangular", "sech"):
            raise ValueError(f"unknown pulse shape {self.shape!r}")
        if not isinstance(self.detuning_model, (ConstantDetuning, TanhChirp)):
            raise ValueError(f"unknown detuning model {self.detuning_model!r}")
        values = (self.peak_rabi, self.duration, self.window_half_width,
                  detuning_fields(self.detuning_model)[1])
        if not all(math.isfinite(v) for v in values):
            raise ValueError("pulse parameters must be finite")
        if self.peak_rabi < 0:
            raise ValueError("peak_rabi must be nonnegative")
        if self.duration < 0:
            raise ValueError("duration must be nonnegative")
        if self.shape == "sech" and self.window_half_width < 5.0:
            raise ValueError("window_half_width must be at least 5")

    def area(self) -> float:
        """Pulse area: Omega0*duration (rectangular) or pi*Omega0*T (sech)."""
        if self.shape == "rectangular":
            return self.peak_rabi * self.duration
        return math.pi * self.peak_rabi * self.duration

    @classmethod
    def rectangular(cls, area: float, duration: float = 1.0,
                    detuning: float = 0.0) -> "PulseSpec":
        """Rectangular pulse of the given area with a constant detuning."""
        if duration <= 0:
            raise ValueError("duration must be positive to set an area")
        return cls("rectangular", area / duration, duration,
                   ConstantDetuning(detuning))

    @classmethod
    def sech(cls, peak_rabi: float, width: float = 1.0, detuning: float = 0.0,
             chirp_rate: float | None = None,
             window_half_width: float = DEFAULT_WINDOW_HALF_WIDTH) -> "PulseSpec":
        """Sech pulse; pass ``chirp_rate`` for the tanh-swept detuning model."""
        model: DetuningModel
        if chirp_rate is None:
            model = ConstantDetuning(detuning)
        else:
            if detuning:
                raise ValueError("give either a constant detuning or a chirp")
            model = TanhChirp(chirp_rate)
        return cls("sech", peak_rabi, width, model, window_half_width)


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

    def __init__(self, message: str, *, achieved_defect: float | None = None,
                 n_steps: int | None = None):
        super().__init__(message)
        self.achieved_defect = achieved_defect
        self.n_steps = n_steps


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
    return_steps: bool = False,
) -> tuple[np.ndarray, ...]:
    """Integrate a batch of pulses sharing one shape and detuning model.

    ``omega0``, ``duration`` and ``rate`` (constant detuning or chirp rate,
    depending on ``model``) are flat arrays of equal length.  Returns flat
    arrays (a, b) of Cayley-Klein parameters plus a boolean success mask,
    and with ``return_steps`` also the step attempts per pulse.
    Zero-duration entries come back as the identity.  Rectangular pulses
    normally take their closed form (see :func:`constituent_grid`); they are
    integrated here only to check the integrator against that form.
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
    if return_steps:
        return a, b, ok, result.n_steps
    return a, b, ok


def detuning_fields(model: DetuningModel) -> tuple[str, float]:
    """Grid name and rate of a detuning model: the detuning or the chirp rate."""
    if isinstance(model, ConstantDetuning):
        return "constant", model.detuning
    return "tanh_chirp", model.chirp_rate


def _closed_form(shape: str, model: str) -> bool:
    # the route choice, for single pulses and grids alike
    return shape == "rectangular" and model == "constant"


def integrate_pulse(spec: PulseSpec,
                    config: IntegratorConfig = DEFAULT_CONFIG) -> Propagator:
    """Numerically integrated propagator of one pulse, whatever its model.

    Raises
    ------
    IntegrationError
        If the step budget is exhausted or the result drifts off the unit
        sphere by more than 10 * rel_tol.
    """
    model, rate = detuning_fields(spec.detuning_model)
    a, b, ok, steps = integrate_pulse_grid(
        spec.shape,
        model,
        np.array([spec.peak_rabi]),
        np.array([spec.duration]),
        np.array([rate]),
        spec.window_half_width,
        config,
        return_steps=True,
    )
    prop = Propagator(complex(a[0]), complex(b[0]))
    if not ok[0]:
        raise IntegrationError(
            f"pulse integration failed (unitarity defect "
            f"{prop.unitarity_defect():.3e}, requested rel_tol {config.rel_tol:g})",
            achieved_defect=prop.unitarity_defect(),
            n_steps=int(steps[0]),
        )
    return prop


@contextlib.contextmanager
def grid_reuse() -> Iterator[None]:
    """Scope inside which :func:`constituent_grid` integrates each grid once.

    A repeated call with the same shape, detuning model, window,
    :class:`IntegratorConfig` and the same bytes of ``omega0``, ``duration``
    and ``rate`` returns the arrays of the first call, marked read-only:
    the bits that integrating again would give.  Closed-form grids are
    recomputed, which costs about as much as a lookup.  Everything kept is
    dropped when the scope ends; ``cpgates preset`` opens one per command,
    so the jobs of a preset that share a constituent grid integrate it once.
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
    window_half_width: float,
    config: IntegratorConfig,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Propagators of a batch of pulses sharing one shape and detuning model.

    Rectangular pulses with a constant detuning take the closed form of
    :func:`rect_propagator_grid` over the whole batch at once; every other
    model is integrated by :func:`integrate_pulse_grid` in fixed chunks of
    4,096 points, which bound the integrator's memory.  Every point has its
    own step control, so the bits of a point do not depend on the batch it
    is integrated in.

    Arguments are as for :func:`integrate_pulse_grid`; returns flat arrays
    (a, b, ok), where ``ok`` is False at points whose integration missed
    its contract.  Closed-form points are always ``ok``.  Inside a
    :func:`grid_reuse` scope an integrated grid seen before is not
    integrated again.
    """
    if _closed_form(shape, model):
        a, b = rect_propagator_grid(omega0, duration, rate)
        return a, b, np.ones(a.shape, dtype=bool)

    reused = _reused_grids.get()
    if reused is not None:
        key = (shape, model, window_half_width, config,
               *(np.asarray(v, float).tobytes() for v in (omega0, duration, rate)))
        if key in reused:
            return reused[key]

    m = omega0.size
    a = np.empty(m, dtype=np.complex128)
    b = np.empty(m, dtype=np.complex128)
    ok = np.empty(m, dtype=bool)

    for lo in range(0, m, _CHUNK):
        sel = slice(lo, lo + _CHUNK)
        a[sel], b[sel], ok[sel] = integrate_pulse_grid(
            shape, model, omega0[sel], duration[sel], rate[sel],
            window_half_width, config,
        )
    if reused is not None:
        for arr in (a, b, ok):
            arr.flags.writeable = False
        reused[key] = a, b, ok
    return a, b, ok


def constituent_propagator(spec: PulseSpec,
                           config: IntegratorConfig = DEFAULT_CONFIG) -> Propagator:
    """Propagator of one constituent pulse, by the route of :func:`constituent_grid`.

    Rectangular pulses with a constant detuning (resonant or not) use the
    closed form of :func:`rect_propagator_grid` on the spec's floats; sech
    and chirped sech/tanh pulses are integrated numerically.

    Raises
    ------
    IntegrationError
        If an integrated pulse misses its accuracy contract.
    """
    model, rate = detuning_fields(spec.detuning_model)
    if _closed_form(spec.shape, model):
        a, b = rect_propagator_grid(spec.peak_rabi, spec.duration, rate)
        return Propagator(complex(a), complex(b))
    return integrate_pulse(spec, config)
