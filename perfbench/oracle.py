"""Reference answers for the benchmark's output checks.

Nothing here imports cpgates.  The phase tables are transcribed from the
published composite sequences, the rectangular pulse uses the Rabi formula,
sech pulses are integrated with scipy's DOP853, and a gate is the plain
product of explicit 2x2 matrices.  A defect in the package's fold, pulse
routes, integrator or CSV writer therefore shows up as a mismatch here.
"""

from __future__ import annotations

import math

import numpy as np

PI = math.pi

# Published phase tables, in units of pi.
_DETUNING = {
    "n3": ((0.0, 1.0 / 3.0, 0.0), 1.0),
    "n5": ((0.0, 0.747, 0.424, 0.747, 0.0), 3.0 / 5.0),
    "n9": ((0.0, 1.308, 1.153, 1.251, 0.562, 1.251, 1.153, 1.308, 0.0), 4.0 / 9.0),
}
_UNIVERSAL = {
    "U3": (0.0, 1 / 2, 0.0),
    "U5a": (0.0, 5 / 6, 1 / 3, 5 / 6, 0.0),
    "U5b": (0.0, 11 / 6, 1 / 3, 11 / 6, 0.0),
    "U7a": (0.0, 11 / 12, 5 / 6, 17 / 12, 5 / 6, 11 / 12, 0.0),
    "U7b": (0.0, 23 / 12, 5 / 6, 5 / 12, 5 / 6, 23 / 12, 0.0),
    "U13a": (0.0, 3 / 8, 7 / 4, 11 / 24, 1 / 3, 37 / 24, 1 / 12,
             37 / 24, 1 / 3, 11 / 24, 7 / 4, 3 / 8, 0.0),
    "U13b": (0.0, 11 / 8, 7 / 4, 35 / 24, 1 / 3, 13 / 24, 1 / 12,
             13 / 24, 1 / 3, 35 / 24, 7 / 4, 11 / 8, 0.0),
}

#: Every shipped (family, variant), in the spelling the command line takes.
VARIANTS = (
    [("broadband", f"n{n}") for n in range(1, 26, 2)]
    + [("detuning", v) for v in _DETUNING]
    + [("universal", v) for v in _UNIVERSAL]
)

#: Allowed |infidelity - reference| per pulse of the gate.  An integrated
#: constituent is held to 1e-8 in (a, b), the bound the package's own scipy
#: cross-checks use; a closed-form constituent carries only rounding.
TOL_INTEGRATED = 1e-8
TOL_CLOSED = 1e-12
#: Slack for the 12 significant digits a CSV row carries.
TOL_PRINT = 1e-10


def cp_phases(family: str, variant: str) -> tuple[list[float], float]:
    """Field phases (radians) of one composite pulse and its nominal area."""
    if family == "broadband":
        n = int(variant[1:])
        return [k * (k - 1) * PI / n for k in range(1, n + 1)], PI
    if family == "detuning":
        table, area_pi = _DETUNING[variant]
        return [p * PI for p in table], area_pi * PI
    return [p * PI for p in _UNIVERSAL[variant]], PI


def gate_phases(family: str, variant: str, gate_phase: float) -> list[float]:
    """The 2n phases of the gate: the CP, then the CP shifted by pi + phi/2."""
    phases, _ = cp_phases(family, variant)
    return phases + [p + PI + 0.5 * gate_phase for p in phases]


def tolerance(n_pulses: int, integrated: bool) -> float:
    per_pulse = TOL_INTEGRATED if integrated else TOL_CLOSED
    return n_pulses * per_pulse + TOL_PRINT


def rect_pulse(omega, duration, detuning):
    """Cayley-Klein (a, b) of a rectangular pulse from the Rabi formula.

    With g = sqrt(omega^2 + detuning^2):
    a = e^{-i D T/2} (cos(gT/2) + i (D/g) sin(gT/2)),
    b = -i e^{-i D T/2} (omega/g) sin(gT/2).
    sin(gT/2)/g is written through numpy's sinc so that g = 0 needs no case.
    """
    omega, duration, detuning = np.broadcast_arrays(
        np.asarray(omega, float), np.asarray(duration, float),
        np.asarray(detuning, float))
    g = np.hypot(omega, detuning)
    half_sinc = 0.5 * duration * np.sinc(g * duration / (2.0 * PI))
    turn = np.exp(-0.5j * detuning * duration)
    a = turn * (np.cos(0.5 * g * duration) + 1j * detuning * half_sinc)
    b = -1j * turn * omega * half_sinc
    return a, b


def sech_pulse(peak_rabi: float, width: float, detuning: float = 0.0,
               chirp_rate: float | None = None, half_window: float = 25.0):
    """Cayley-Klein (a, b) of one sech pulse, integrated with scipy DOP853.

    Interaction picture: i dc/dt = H c with coupling (Omega/2) e^{-iD(t)},
    D the detuning integrated from the window start; a = c1, b = -conj(c2).
    """
    from scipy.integrate import solve_ivp

    t0, t1 = -half_window * width, half_window * width

    def log_cosh(x):
        ax = abs(x)
        return ax - math.log(2.0) + math.log1p(math.exp(-2.0 * ax))

    if chirp_rate is None:
        def phase(t):
            return detuning * (t - t0)
    else:
        def phase(t):
            return chirp_rate * width * (log_cosh(t / width) - log_cosh(t0 / width))

    def rhs(t, y):
        g = -0.5j * peak_rabi / math.cosh(t / width) * np.exp(-1j * phase(t))
        return [g * y[1], -np.conj(g) * y[0]]

    sol = solve_ivp(rhs, (t0, t1), [1.0 + 0j, 0j], method="DOP853",
                    rtol=1e-12, atol=1e-14, max_step=2.0 * width)
    c1, c2 = sol.y[:, -1]
    return complex(c1), complex(-np.conj(c2))


def gate_infidelity(a, b, phases, gate_phase: float) -> np.ndarray:
    """Frobenius distance of the phased matrix chain to diag(e^{i phi/2}, e^{-i phi/2}).

    ``a`` and ``b`` are arrays of one constituent pulse per point; the pulse
    with field phase p is [[a, b e^{ip}], [-conj(b) e^{-ip}, conj(a)]], and
    the first phase acts first.  The product is the general 2x2 matrix
    product, entry by entry over all points at once.
    """
    a = np.atleast_1d(np.asarray(a, dtype=complex))
    b = np.atleast_1d(np.asarray(b, dtype=complex))
    t00, t01 = np.ones_like(a), np.zeros_like(a)
    t10, t11 = np.zeros_like(a), np.ones_like(a)
    for p in phases:
        p00, p01 = a, b * np.exp(1j * p)
        p10, p11 = -np.conj(p01), np.conj(a)
        t00, t01, t10, t11 = (p00 * t00 + p01 * t10, p00 * t01 + p01 * t11,
                              p10 * t00 + p11 * t10, p10 * t01 + p11 * t11)
    target = np.exp(0.5j * gate_phase)
    return np.sqrt(np.abs(t00 - target) ** 2 + np.abs(t01) ** 2
                   + np.abs(t10) ** 2 + np.abs(t11 - np.conj(target)) ** 2)


def read_rows(path) -> np.ndarray:
    """Data rows of a scan CSV as a float array, one row per line."""
    return np.loadtxt(path, delimiter=",", comments="#", ndmin=2)


def count_bad(values, reference, tol) -> int:
    """Values that are non-finite or further than ``tol`` from the reference."""
    values = np.asarray(values, dtype=float)
    good = np.isfinite(values) & (np.abs(values - reference) <= tol)
    return int(values.size - np.count_nonzero(good))
