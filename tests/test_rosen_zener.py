"""The Rosen-Zener route: sech pulses with a constant detuning in closed form.

The closed form is held to the integrator at a tight tolerance, its Lanczos
log-gamma to ``scipy.special.loggamma``, and its values at extreme
arguments to the same formula on scipy's log-gamma: every finite value it
returns must be right, and where it cannot be, it returns NaN.
"""

import cmath
import math

import numpy as np
import pytest
from scipy.special import loggamma

from cpgates import pulses
from cpgates.pulses import (
    PulseSpec,
    constituent_grid,
    constituent_propagator,
    integrate_pulse_grid,
)


def test_matches_the_integrator(monkeypatch):
    rng = np.random.default_rng(1201)
    duration = rng.uniform(0.3, 3.0, 200)
    rabi_t = rng.uniform(0.1, 8.0, 200)
    delta_t = rng.uniform(-3.0, 3.0, 200)
    # the poles of Gamma(z - alpha) at Delta = 0, no field, no time, and
    # detunings far beyond any figure's
    special = np.array([
        # T, Omega0*T, Delta*T
        (1.0, 1.0, 0.0), (0.5, 3.0, 0.0), (2.0, 0.0, 1.3), (0.0, 0.0, 0.0),
        (1.0, 1.3, 500.0), (0.7, 2.2, -500.0),
    ])
    duration = np.concatenate([duration, special[:, 0]])
    rabi_t = np.concatenate([rabi_t, special[:, 1]])
    delta_t = np.concatenate([delta_t, special[:, 2]])
    safe = np.where(duration > 0, duration, 1.0)
    omega0, detuning = rabi_t / safe, delta_t / safe

    a, b = constituent_grid("sech", "constant", omega0, duration, detuning)
    # tightened after the closed form, whose NaN rule reads REL_TOL too: at
    # 1e-12 it would leave Delta*T = +-500 unresolved
    monkeypatch.setattr(pulses, "REL_TOL", 1e-12)
    ia, ib = integrate_pulse_grid("sech", "constant", omega0, duration, detuning)
    assert np.isfinite(ia).all() and np.isfinite(ib).all()
    assert np.abs(a - ia).max() < 1e-9
    assert np.abs(b - ib).max() < 1e-9
    assert a[200] == 0 and a[201] == 0  # exact zeros at the poles
    assert (b[200], b[201]) == (-1j, 1j)
    assert (a[202], b[202]) == (1.0, 0.0)  # Omega0 = 0
    assert (a[203], b[203]) == (1.0, 0.0)  # zero duration


def test_log_gamma_matches_scipy():
    rng = np.random.default_rng(1202)
    z = rng.uniform(-20.0, 20.0, 10_000) + 1j * rng.uniform(-300.0, 300.0, 10_000)
    # the real axis on both sides of the reflection, between the poles
    z[:40] = rng.uniform(-20.0, 20.0, 40) + 0.5
    got, want = pulses._log_gamma(z), loggamma(z)
    assert np.all(np.abs(got - want) <= 1e-13 * np.maximum(1.0, np.abs(want)))


@pytest.mark.filterwarnings("error")
def test_large_arguments_are_right_or_nan():
    # a naive sum of log gammas gives finite garbage here; the closed form
    # gives the value for these floats, or NaN where it cannot resolve it
    finite = 0
    for rabi_t in (1e6, 1e6 + 0.7, 1e30, 1e300):
        for delta_t in (0.0, 0.3, -0.3, 1e6, -1e6, 1e300, -1e300):
            a, b = (complex(v) for v in
                    constituent_grid("sech", "constant", rabi_t, 1.0, delta_t))
            if cmath.isnan(a):
                assert cmath.isnan(b)
                continue
            finite += 1
            alpha, delta = 0.5 * rabi_t, 0.5 * delta_t
            turns = math.pi * math.fmod(alpha, 2.0)
            sin, cos = math.sin(turns), math.cos(turns)
            sech = 1.0 / math.cosh(math.pi * delta) if abs(delta) < 200 else 0.0
            assert abs(abs(b) ** 2 - (sin * sech) ** 2) < 1e-15
            assert abs(abs(a) ** 2 + abs(b) ** 2 - 1.0) < 1e-12
            z = complex(0.5, delta)
            phase = 2.0 * (loggamma(z).imag - loggamma(z + alpha).imag)
            want = complex(cos, sin * math.tanh(math.pi * delta)) * complex(
                math.cos(phase), math.sin(phase))
            assert abs(a - want) < 1e-12
    assert finite == 12  # Delta*T in (0, +-0.3) at every area; NaN beyond


def test_scalar_and_grid_paths_agree():
    rng = np.random.default_rng(1203)
    omega = rng.uniform(0.0, 8.0, 200)
    delta = rng.uniform(-5.0, 5.0, 200)
    delta[:50] = 0.0
    a, b = constituent_grid("sech", "constant", omega, 1.0, delta)
    for i in range(200):
        got = constituent_propagator(PulseSpec.sech(omega[i], detuning=delta[i]))
        assert abs(got.a - a[i]) < 1e-15
        assert abs(got.b - b[i]) < 1e-15
    # a scalar detuning broadcasts against the array like any other input
    a0, b0 = constituent_grid("sech", "constant", omega[:50], 1.0, 0.0)
    assert np.array_equal(a0, a[:50]) and np.array_equal(b0, b[:50])


def test_closed_forms_do_not_read_the_window(monkeypatch):
    # the window is the integrator's truncation: it moves no bit of a closed
    # form, b's phase included, at any detuning
    rng = np.random.default_rng(1204)
    omega0 = rng.uniform(0.1, 8.0, 300)
    duration = rng.uniform(0.3, 3.0, 300)
    detuning = rng.choice([-1.0, 1.0], 300) * rng.uniform(0.05, 3.0, 300)
    grids = []
    for window in (25.0, 35.0):
        monkeypatch.setattr(pulses, "DEFAULT_WINDOW_HALF_WIDTH", window)
        grids.append([constituent_grid(shape, "constant", omega0, duration, detuning)
                      for shape in ("rectangular", "sech")])
    for (a0, b0), (a1, b1) in zip(*grids):
        assert np.isfinite(b0).all() and np.abs(b0).max() > 0.5
        assert a0.tobytes() == a1.tobytes() and b0.tobytes() == b1.tobytes()
