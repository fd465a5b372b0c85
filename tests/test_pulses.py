"""Pulse propagators against independent references.

The numerical integrator is validated three ways: the constant-generator
matrix exponential for rectangular detuned pulses, the Rosen-Zener and
Allen-Eberly closed forms for sech pulses, and scipy's own adaptive solver
on random pulse parameters.  The closed-form rectangular propagator is held
to the same matrix exponential.
"""

import math
import re

import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.linalg import expm

from cpgates import pulses
from cpgates.pulses import (
    IntegratorConfig,
    IntegrationError,
    PulseSpec,
    constituent_grid,
    constituent_propagator,
    grid_reuse,
    integrate_pulse_grid,
    rect_propagator_grid,
    resonant_rect_propagator,
    transition_probability,
)
from cpgates.sequences import broadband_phases, gate_propagator, make_phase_gate_sequence
from cpgates.su2 import Propagator, TargetGate, gate_infidelity, infidelity

PI = math.pi
TIGHT = IntegratorConfig(rel_tol=1e-11, abs_tol=1e-13)


def rect_oracle(area: float, delta_t: float):
    """Constant-generator reference: S(T) @ expm(-i H T) in one step.

    H T depends only on the products area = Omega*T and delta_t = Delta*T,
    so a zero duration (both products zero) gives the identity.
    """
    ht = 0.5 * np.array([[-delta_t, area], [area, delta_t]], dtype=complex)
    u = expm(-1j * ht)
    s = np.diag([np.exp(-0.5j * delta_t), np.exp(0.5j * delta_t)])
    return s @ u


def integrate_one(spec: PulseSpec, config: IntegratorConfig = IntegratorConfig()):
    """integrate_pulse_grid at the spec's one point; the contract must hold."""
    a, b, ok, _ = integrate_pulse_grid(
        spec.shape, spec.model, np.array([spec.peak_rabi]),
        np.array([spec.duration]), np.array([spec.rate]),
        pulses.DEFAULT_WINDOW_HALF_WIDTH, config)
    assert ok[0]
    return Propagator(complex(a[0]), complex(b[0]))


def scipy_reference(spec: PulseSpec):
    """Direct interaction-picture integration with scipy, as a cross-check."""
    if spec.shape == "rectangular":
        t0, t1 = 0.0, spec.duration
    else:
        t0 = -pulses.DEFAULT_WINDOW_HALF_WIDTH * spec.duration
        t1 = -t0
    width = spec.duration

    def envelope(t):
        if spec.shape == "rectangular":
            return spec.peak_rabi
        return spec.peak_rabi / np.cosh(t / width)

    def phase(t):
        if spec.model == "constant":
            return spec.rate * (t - t0)
        lc = lambda x: abs(x) - math.log(2.0) + math.log1p(math.exp(-2.0 * abs(x)))
        return spec.rate * width * (lc(t / width) - lc(t0 / width))

    def rhs(t, y):
        g = -0.5j * envelope(t) * np.exp(-1j * phase(t))
        return [g * y[1], -np.conj(g) * y[0]]

    sol = solve_ivp(rhs, (t0, t1), [1.0 + 0j, 0j], method="DOP853",
                    rtol=1e-12, atol=1e-14, max_step=2.0 * max(width, 1e-6))
    c1, c2 = sol.y[:, -1]
    return c1, -np.conj(c2)


@pytest.fixture
def integrations(monkeypatch):
    """The (shape, model) of every integrate_pulse_grid call the pulse layer makes."""
    calls = []
    original = pulses.integrate_pulse_grid

    def counted(*args, **kwargs):
        calls.append(args[:2])
        return original(*args, **kwargs)

    monkeypatch.setattr(pulses, "integrate_pulse_grid", counted)
    return calls


class TestResonantRect:
    def test_pi_pulse_inverts(self):
        u = resonant_rect_propagator(PI)
        assert abs(u.a) < 1e-15
        assert abs(u.b + 1j) < 1e-15

    def test_zero_area_is_identity(self):
        u = resonant_rect_propagator(0.0)
        assert u.a == 1.0 and u.b == 0.0

    def test_two_pi_returns_with_sign(self):
        u = resonant_rect_propagator(2.0 * PI)
        assert abs(u.a + 1.0) < 1e-15
        assert abs(u.b) < 1e-15

    def test_transfer_follows_sine_squared(self):
        areas = np.linspace(0.0, 4.0 * PI, 57)
        for area in areas:
            p = transition_probability(resonant_rect_propagator(area))
            assert abs(p - math.sin(area / 2.0) ** 2) < 1e-14

    def test_negative_area_rejected(self):
        with pytest.raises(ValueError):
            resonant_rect_propagator(-0.1)


class TestTransitionProbability:
    def test_full_transfer(self):
        assert transition_probability(resonant_rect_propagator(PI)) == pytest.approx(1.0)

    def test_no_transfer(self):
        assert transition_probability(resonant_rect_propagator(0.0)) == 0.0

    def test_half_transfer_at_half_pi(self):
        p = transition_probability(resonant_rect_propagator(PI / 2))
        assert p == pytest.approx(0.5, abs=1e-14)


class TestPulseSpecValidation:
    def test_unknown_shape(self):
        with pytest.raises(ValueError, match="shape"):
            PulseSpec("gauss", 1.0, 1.0)

    def test_negative_rabi(self):
        with pytest.raises(ValueError, match="peak_rabi"):
            PulseSpec("sech", -1.0, 1.0)

    def test_overflowing_rabi_product(self):
        # hypot(peak_rabi, rate) * duration bounds the closed Rabi form
        with pytest.raises(ValueError, match="overflows"):
            PulseSpec("rectangular", 1.6e308, 1.0, "constant", 1.7e308)
        with pytest.raises(ValueError, match="overflows"):
            PulseSpec("sech", 1e300, 1e10)
        PulseSpec("sech", 1e300, 1.0)  # finite: a closed form or NaN, never an overflow

    def test_non_finite(self):
        with pytest.raises(ValueError, match="finite"):
            PulseSpec("sech", float("nan"), 1.0)
        with pytest.raises(ValueError, match="finite"):
            PulseSpec("rectangular", 1.0, 1.0, "constant", float("inf"))

    def test_unknown_detuning_model(self):
        with pytest.raises(ValueError, match="detuning model"):
            PulseSpec("sech", 1.0, 1.0, "linear_chirp", 1.0)

    def test_factories_speak_the_grid_strings(self):
        assert PulseSpec.sech(1.5, detuning=0.5) == PulseSpec("sech", 1.5, 1.0,
                                                              "constant", 0.5)
        assert PulseSpec.sech(1.5, chirp_rate=2.0) == PulseSpec("sech", 1.5, 1.0,
                                                                "tanh_chirp", 2.0)
        assert PulseSpec.rectangular(3.0, 2.0, 0.7) == PulseSpec("rectangular", 1.5,
                                                                 2.0, "constant", 0.7)

    def test_rectangular_pulses_take_no_chirp(self):
        with pytest.raises(ValueError, match="rectangular pulses take a constant"):
            PulseSpec("rectangular", 1.0, 1.0, "tanh_chirp", 1.0)

    def test_sech_factory_rejects_double_detuning(self):
        with pytest.raises(ValueError, match="either"):
            PulseSpec.sech(1.0, detuning=0.5, chirp_rate=1.0)

    def test_area_definition(self):
        assert PulseSpec.rectangular(2.5, duration=2.0).area() == pytest.approx(2.5)
        assert PulseSpec.sech(1.5, width=2.0).area() == pytest.approx(3.0 * PI)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            IntegratorConfig(rel_tol=0.0)
        with pytest.raises(ValueError):
            IntegratorConfig(max_steps=0)


class TestIntegratedRectangular:
    def test_resonant_matches_closed_form(self):
        got = integrate_one(PulseSpec.rectangular(PI))
        want = resonant_rect_propagator(PI)
        assert abs(got.a - want.a) < 1e-9
        assert abs(got.b - want.b) < 1e-9

    @pytest.mark.parametrize(
        "area,delta_t",
        [(PI, 0.7), (0.4 * PI, -1.3), (2.3, 2.0), (3 * PI / 5, 0.2), (7.0, 9.5)],
    )
    def test_detuned_matches_matrix_exponential(self, area, delta_t):
        got = integrate_one(PulseSpec.rectangular(area, detuning=delta_t))
        want = rect_oracle(area, delta_t)
        assert abs(got.a - want[0, 0]) < 1e-9
        assert abs(got.b - want[0, 1]) < 1e-9

    def test_zero_duration_is_identity(self):
        got = integrate_one(PulseSpec("rectangular", 1.0, 0.0))
        assert got.a == 1.0 and got.b == 0.0


class TestIntegratedSech:
    def test_resonant_rosen_zener_amplitude(self):
        # on resonance a = cos(pi*Omega0*T/2)
        for rabi_t in (0.5, 1.0, 2.0, 3.3):
            got = integrate_one(PulseSpec.sech(rabi_t))
            assert abs(got.a - math.cos(PI * rabi_t / 2.0)) < 1e-8

    @pytest.mark.parametrize("rabi_t,delta_t", [(1.0, 0.5), (0.6, 1.5), (2.3, -0.8)])
    def test_detuned_rosen_zener_transfer(self, rabi_t, delta_t):
        got = integrate_one(PulseSpec.sech(rabi_t, detuning=delta_t))
        want = math.sin(PI * rabi_t / 2.0) ** 2 / math.cosh(PI * delta_t / 2.0) ** 2
        assert abs(transition_probability(got) - want) < 1e-8

    @pytest.mark.parametrize(
        "rabi_t,chirp_t",
        [(0.7, 1.0), (1.0, 1.0), (2.0, 1.0), (5.0, 1.0), (1.2, 2.5)],
    )
    def test_chirped_surviving_amplitude(self, rabi_t, chirp_t):
        # sech envelope with tanh-swept detuning has a closed-form |a|^2
        got = integrate_one(PulseSpec.sech(rabi_t, chirp_rate=chirp_t))
        root = np.sqrt(complex(rabi_t**2 - chirp_t**2))
        want = abs(np.cos(PI * root / 2.0)) ** 2 / math.cosh(PI * chirp_t / 2.0) ** 2
        assert abs(abs(got.a) ** 2 - want) < 1e-8

    def test_chirp_sign_symmetry(self):
        # symmetric envelope with antisymmetric detuning: |a| is even in the sweep
        for rabi_t in (0.8, 3.0, 11.0):
            up = integrate_one(PulseSpec.sech(rabi_t, chirp_rate=1.0), TIGHT)
            down = integrate_one(PulseSpec.sech(rabi_t, chirp_rate=-1.0), TIGHT)
            assert abs(abs(up.a) - abs(down.a)) < 1e-9

    def test_zero_rabi_is_identity(self):
        got = integrate_one(PulseSpec.sech(0.0, chirp_rate=1.0))
        assert got.a == 1.0 and got.b == 0.0

    def test_window_truncation_converged(self):
        # widening the window from 25 to 35 widths must not move |a| or |b|
        # above 1e-8; entry phases are referenced to the window start and
        # shift with it
        assert pulses.DEFAULT_WINDOW_HALF_WIDTH == 25.0
        for rabi_t, model, rate in ((1.0, "constant", 0.0), (5.0, "tanh_chirp", 1.0),
                                    (20.0, "tanh_chirp", 1.0)):
            (a0, b0, ok0, _), (a1, b1, ok1, _) = (
                integrate_pulse_grid("sech", model, np.array([rabi_t]), np.ones(1),
                                     np.array([rate]), window, TIGHT)
                for window in (25.0, 35.0))
            assert ok0.all() and ok1.all()
            assert abs(abs(a0[0]) - abs(a1[0])) < 1e-8
            assert abs(abs(b0[0]) - abs(b1[0])) < 1e-8


class TestIntegratorContract:
    def test_unitarity_within_ten_rel_tol(self):
        for spec in (
            PulseSpec.rectangular(2.0, detuning=5.0),
            PulseSpec.sech(12.0, chirp_rate=1.0),
            PulseSpec.sech(20.0, detuning=3.0),
        ):
            got = integrate_one(spec)
            assert got.unitarity_defect() < 10.0 * 1e-10

    def test_tightening_tolerance_barely_moves_entries(self):
        spec = PulseSpec.sech(2.0, chirp_rate=1.0)
        coarse = integrate_one(spec, IntegratorConfig(rel_tol=1e-8, abs_tol=1e-10))
        fine = integrate_one(spec, IntegratorConfig(rel_tol=1e-9, abs_tol=1e-11))
        assert abs(coarse.a - fine.a) < 10.0 * 1e-8
        assert abs(coarse.b - fine.b) < 10.0 * 1e-8

    def test_matches_scipy_on_random_pulses(self):
        rng = np.random.default_rng(42)
        for _ in range(12):
            kind = rng.integers(0, 3)
            if kind == 0:
                spec = PulseSpec.rectangular(rng.uniform(0.1, 7.0),
                                             detuning=rng.uniform(-5.0, 5.0))
            elif kind == 1:
                spec = PulseSpec.sech(rng.uniform(0.1, 4.0),
                                      detuning=rng.uniform(-2.0, 2.0))
            else:
                spec = PulseSpec.sech(rng.uniform(0.1, 4.0),
                                      chirp_rate=rng.uniform(-2.0, 2.0))
            got = integrate_one(spec, TIGHT)
            ref_a, ref_b = scipy_reference(spec)
            assert abs(got.a - ref_a) < 1e-8
            assert abs(got.b - ref_b) < 1e-8

    def test_step_budget_exhaustion_raises(self, monkeypatch):
        starved = IntegratorConfig(max_steps=5)
        _, _, ok, steps = integrate_pulse_grid(
            "sech", "tanh_chirp", np.array([8.0]), np.ones(1), np.ones(1),
            pulses.DEFAULT_WINDOW_HALF_WIDTH, starved)
        assert not ok[0] and steps[0] == 5
        monkeypatch.setattr(pulses, "DEFAULT_CONFIG", starved)
        with pytest.raises(IntegrationError) as err:
            constituent_propagator(PulseSpec.sech(8.0, chirp_rate=1.0))
        assert "rel_tol" in str(err.value)

    def test_batch_equals_single_evaluation(self):
        # chunk membership must not change any bits
        rabi = np.array([0.5, 1.5, 3.0, 7.5])
        a, b, ok, _ = integrate_pulse_grid(
            "sech", "tanh_chirp", rabi, np.ones(4), np.ones(4), 25.0,
            IntegratorConfig(),
        )
        assert ok.all()
        for i, r in enumerate(rabi):
            single = integrate_one(PulseSpec.sech(r, chirp_rate=1.0))
            assert single.a == a[i]
            assert single.b == b[i]


class TestClosedFormRectangular:
    def test_matches_matrix_exponential(self):
        rng = np.random.default_rng(11)
        omega = rng.uniform(0.0, 8.0, 300)
        delta = rng.uniform(-10.0, 10.0, 300)
        duration = rng.uniform(0.0, 2.0, 300)  # |Delta*T| up to 20
        omega[:20] = 0.0
        delta[20:40] = 0.0
        duration[40:60] = 0.0
        omega[60:70] = delta[60:70] = 0.0
        a, b = rect_propagator_grid(omega, duration, delta)
        for i in range(omega.size):
            want = rect_oracle(omega[i] * duration[i], delta[i] * duration[i])
            assert abs(a[i] - want[0, 0]) < 1e-12
            assert abs(b[i] - want[0, 1]) < 1e-12

    def test_resonant_is_bit_identical_to_cos_sin(self):
        rng = np.random.default_rng(12)
        omega = rng.uniform(0.0, 12.0, 1000)
        duration = rng.uniform(0.0, 2.0, 1000)
        a, b = rect_propagator_grid(omega, duration, np.zeros(1000))
        half = 0.5 * omega * duration
        assert a.tobytes() == (np.cos(half) + 0j).tobytes()
        assert b.tobytes() == (-1j * np.sin(half)).tobytes()

    def test_scalar_and_grid_paths_agree(self):
        rng = np.random.default_rng(13)
        omega = rng.uniform(0.0, 8.0, 200)
        delta = rng.uniform(-5.0, 5.0, 200)
        delta[:50] = 0.0
        a, b = constituent_grid("rectangular", "constant", omega,
                                np.ones(200), delta)
        for i in range(200):
            got = constituent_propagator(
                PulseSpec("rectangular", omega[i], 1.0, "constant", delta[i]))
            assert abs(got.a - a[i]) < 1e-15
            assert abs(got.b - b[i]) < 1e-15

    @staticmethod
    def _scalar_inputs():
        """Seeded (Omega, T, Delta) as floats, edges included."""
        rng = np.random.default_rng(14)
        omega = rng.uniform(0.0, 8.0, 300)
        duration = rng.uniform(0.0, 1.0, 300)
        delta = rng.uniform(-5.0, 5.0, 300)
        delta[:50] = 0.0
        omega[50:60] = delta[50:60] = 0.0
        duration[60:70] = 0.0
        points = list(zip(omega.tolist(), duration.tolist(), delta.tolist()))
        # the overflow edge: hypot(Omega, Delta) * T is the largest double
        top = np.finfo(float).max
        g = 5.0 * 2.0**1021  # hypot of (3, 4) * 2^1021, exact on every path
        edge = (3.0 * 2.0**1021, top / g, 4.0 * 2.0**1021)
        assert math.hypot(edge[0], edge[2]) * edge[1] == top
        with pytest.raises(ValueError, match="overflows"):
            PulseSpec("rectangular", edge[0], math.nextafter(edge[1], 2.0), "constant", edge[2])
        return points + [edge, (0.5 * top, 2.0, 0.0)]

    @pytest.mark.filterwarnings("error")
    def test_floats_take_the_scalar_path(self):
        points = self._scalar_inputs()
        omega, duration, delta = (np.array(v) for v in zip(*points))
        a, b = rect_propagator_grid(omega, duration, delta)
        for i, (om, t, de) in enumerate(points):
            got = rect_propagator_grid(om, t, de)
            assert [type(v) for v in got] == [complex, complex]
            assert abs(got[0] - a[i]) < 1e-15
            assert abs(got[1] - b[i]) < 1e-15
            u = constituent_propagator(PulseSpec("rectangular", om, t, "constant", de))
            assert (u.a, u.b) == got
        assert rect_propagator_grid(0.0, 1.0, 0.0) == (1.0, 0.0)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("omega, duration, delta", [
        (1e308, 10.0, 0.0),  # g*T overflows
        (1.0, math.inf, 0.0),  # so does an infinite duration
        (1.0, 1e308, 1e308),  # g*T and Delta*T overflow together
    ])
    def test_scalar_overflow_names_the_precondition(self, omega, duration, delta):
        with pytest.raises(ValueError, match=re.escape(
                "needs a finite hypot(omega0, detuning) * duration and "
                "detuning * duration")):
            rect_propagator_grid(omega, duration, delta)

    @pytest.mark.filterwarnings("error")
    def test_scalar_queries_return_python_numbers(self):
        specs = [PulseSpec.rectangular(1.3, detuning=0.4),  # floats: math/cmath
                 PulseSpec("rectangular", 2, 1, "constant", 1),  # ints: numpy, 0-d
                 PulseSpec.sech(0.7, detuning=0.3),  # Rosen-Zener, 0-d
                 PulseSpec.sech(1.7, chirp_rate=-0.4)]  # integrated, one point
        gate = make_phase_gate_sequence(broadband_phases(5), 0.4)
        for spec in specs:
            u = constituent_propagator(spec)
            assert type(u.a) is complex and type(u.b) is complex
            g = gate_propagator(gate, u)
            value = gate_infidelity(g.a, g.b, gate.gate_phase)
            assert type(value) is float
            assert value == infidelity(g, TargetGate(gate.gate_phase))
            grid = gate_infidelity(np.array([g.a]), np.array([g.b]), gate.gate_phase)
            assert math.isclose(value, grid[0], rel_tol=1e-15)


class TestConstituentDispatch:
    def test_resonant_rect_takes_closed_form(self):
        spec = PulseSpec.rectangular(1.3)
        got = constituent_propagator(spec)
        want = resonant_rect_propagator(1.3)
        assert got.a == want.a and got.b == want.b

    def test_detuned_rect_takes_closed_form(self):
        spec = PulseSpec.rectangular(1.3, detuning=0.9)
        got = constituent_propagator(spec)
        want = rect_oracle(1.3, 0.9)
        assert abs(got.a - want[0, 0]) < 1e-12
        assert abs(got.b - want[0, 1]) < 1e-12
        assert got.unitarity_defect() < 1e-12

    def test_chirped_sech_is_integrated(self, integrations):
        spec = PulseSpec.sech(1.0, chirp_rate=0.5)
        got = constituent_propagator(spec)
        assert integrations == [("sech", "tanh_chirp")]
        want = integrate_one(spec)
        assert (got.a, got.b) == (want.a, want.b)

    def test_constant_sech_takes_the_rosen_zener_form(self, integrations):
        got = constituent_propagator(PulseSpec.sech(1.0))
        assert integrations == []
        assert got.a == 0 and got.b == -1j  # Gamma(1/2 - 1/2) is a pole

    @pytest.mark.parametrize("spec", [PulseSpec.sech(1.7, chirp_rate=-0.4),
                                      PulseSpec.sech(2.5, chirp_rate=1.0)])
    def test_sech_is_a_one_point_grid(self, spec):
        got = constituent_propagator(spec)
        a, b = constituent_grid(spec.shape, spec.model, np.array([spec.peak_rabi]),
                                np.array([spec.duration]), np.array([spec.rate]))
        assert (got.a, got.b) == (a[0], b[0])
        want = integrate_one(spec)
        assert (got.a, got.b) == (want.a, want.b)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("max_steps, rabi_t", [(4, 1.0), (100_000, 1e300)])
    def test_failed_pulse_raises_quietly(self, monkeypatch, max_steps, rabi_t):
        # a spent step budget and an overflow fail through the same channel
        monkeypatch.setattr(pulses, "DEFAULT_CONFIG",
                            IntegratorConfig(max_steps=max_steps))
        with pytest.raises(IntegrationError, match="^pulse integration failed"):
            constituent_propagator(PulseSpec.sech(rabi_t, chirp_rate=1.0))


@pytest.mark.parametrize("model", ["constant", "tanh_chirp"])
def test_grid_matches_any_sub_batch(model, monkeypatch):
    # a 4,900-point integrated grid equals integrate_pulse_grid on any of its
    # sub-batches bit for bit: every point has its own step control, so the
    # batch around it does not matter.  constituent_grid integrates only the
    # chirp, so the constant model holds the integrator to it directly
    rng = np.random.default_rng(21)
    omega0 = rng.uniform(0.2, 4.0, 4900)
    duration = rng.uniform(0.5, 1.5, 4900)
    rate = rng.uniform(-2.0, 2.0, 4900)
    loose = IntegratorConfig(rel_tol=1e-6, abs_tol=1e-8)
    monkeypatch.setattr(pulses, "DEFAULT_CONFIG", loose)  # keeps the test fast
    if model == "constant":
        *whole, ok, _ = integrate_pulse_grid("sech", model, omega0, duration, rate,
                                             25.0, loose)
        assert ok.all()
    else:
        whole = constituent_grid("sech", model, omega0, duration, rate)
    for sel in (slice(3, 10), slice(4095, 4100), slice(17, 4900)):
        a, b, ok, _ = integrate_pulse_grid("sech", model, omega0[sel], duration[sel],
                                        rate[sel], 25.0, loose)
        assert ok.all()
        assert whole[0][sel].tobytes() == a.tobytes()
        assert whole[1][sel].tobytes() == b.tobytes()


def test_failed_grid_points_come_back_as_nan(monkeypatch):
    # the grid's only failure channel: NaN where the contract was missed
    monkeypatch.setattr(pulses, "DEFAULT_CONFIG", IntegratorConfig(max_steps=4))
    a, b = constituent_grid("sech", "tanh_chirp", np.array([0.0, 1.0]),
                            np.array([0.0, 1.0]), np.ones(2))
    assert (a[0], b[0]) == (1.0, 0.0)  # zero duration needs no step
    assert np.isnan(a[1]) and np.isnan(b[1])


class TestGridReuse:
    RABI = np.linspace(0.5, 4.0, 7)

    def grid(self, rate=1.0):
        return constituent_grid("sech", "tanh_chirp", self.RABI, np.ones(7),
                                np.full(7, rate))

    def test_repeat_returns_the_same_read_only_bits(self, integrations):
        alone = self.grid()
        with grid_reuse():
            first = self.grid()
            again = self.grid()
        assert len(integrations) == 2  # alone, then once inside the scope
        for got, ref, want in zip(again, first, alone):
            assert got is ref
            assert not got.flags.writeable
            assert np.array_equal(got, want)

    def test_changed_inputs_integrate_again(self, integrations):
        with grid_reuse():
            self.grid()
            self.grid(rate=np.nextafter(1.0, 2.0))
        assert len(integrations) == 2

    def test_closed_form_grids_are_not_kept(self, integrations):
        args = ("rectangular", "constant", np.full(3, PI), np.ones(3),
                np.linspace(-1.0, 1.0, 3))
        with grid_reuse():
            first = constituent_grid(*args)
            again = constituent_grid(*args)
            assert pulses._reused_grids.get() == {}
        assert first[0] is not again[0]
        assert integrations == []

    def test_nothing_outlives_the_scope(self, integrations):
        with grid_reuse():
            self.grid()
        assert pulses._reused_grids.get() is None
        self.grid()
        assert len(integrations) == 2
