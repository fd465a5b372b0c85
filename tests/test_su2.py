"""Cayley-Klein algebra: phase map, sequence product, infidelity."""

import cmath
import math

import numpy as np
import pytest

from cpgates.su2 import (
    Propagator,
    TargetGate,
    fold,
    infidelity,
    sequence_propagator,
    with_phase,
)

PI = math.pi
IDENTITY = Propagator(1.0 + 0.0j, 0.0 + 0.0j)


def random_propagator(rng) -> Propagator:
    theta = rng.uniform(0.0, PI)
    alpha, beta = rng.uniform(0.0, 2.0 * PI, size=2)
    return Propagator(
        math.cos(theta / 2.0) * cmath.exp(1j * alpha),
        math.sin(theta / 2.0) * cmath.exp(1j * beta),
    )


class TestWithPhase:
    def test_quarter_turn_on_inversion_pulse(self):
        out = with_phase(Propagator(0.0, -1j), PI / 2)
        assert out.a == 0.0
        assert abs(out.b - 1.0) < 1e-15

    def test_identity_unaffected(self):
        out = with_phase(IDENTITY, 1.234)
        assert out.a == 1.0 and out.b == 0.0

    def test_full_turn_is_noop(self):
        u = Propagator(math.cos(0.4), -1j * math.sin(0.4))
        out = with_phase(u, 2.0 * PI)
        assert abs(out.a - u.a) < 1e-15
        assert abs(out.b - u.b) < 1e-15

    def test_phase_additivity(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            u = random_propagator(rng)
            x, y = rng.uniform(-6.0, 6.0, size=2)
            u1 = with_phase(with_phase(u, x), y)
            u2 = with_phase(u, x + y)
            assert abs(u1.b - u2.b) < 2e-15
            assert u1.a == u2.a


class TestCompose:
    """Pulse pairs through the one sequence product; phase 0 acts first."""

    def test_two_pi_pulses_in_antiphase_cancel(self):
        u = Propagator(0.0, -1j)
        total = sequence_propagator([0.0, PI], u)
        assert abs(total.a - 1.0) < 1e-15
        assert abs(total.b) < 1e-15

    def test_pi_pulse_pair_makes_phase_gate(self):
        # two full-inversion pulses with relative phase pi + phi/2
        phi = PI / 2
        u = Propagator(0.0, -1j)
        total = sequence_propagator([0.0, PI + phi / 2.0], u)
        assert abs(total.a - cmath.exp(1j * PI / 4)) < 1e-15
        assert abs(total.b) < 1e-15

    def test_relative_phase_identity(self):
        # total propagator of a pulse pair with relative phase chi, entrywise
        rng = np.random.default_rng(13)
        for _ in range(2000):
            u = random_propagator(rng)
            chi = rng.uniform(0.0, 2.0 * PI)
            got = sequence_propagator([0.0, chi], u).matrix()
            a, b = u.a, u.b
            e = cmath.exp(1j * chi)
            want = np.array(
                [
                    [a * a - abs(b) ** 2 * e, a * b + np.conj(a) * b * e],
                    [
                        -np.conj(a) * np.conj(b) - a * np.conj(b) / e,
                        np.conj(a) ** 2 - abs(b) ** 2 / e,
                    ],
                ]
            )
            assert np.max(np.abs(got - want)) < 1e-13

    def test_unitarity_closure_over_long_products(self):
        # one million random compositions must stay on the unit sphere
        rng = np.random.default_rng(7)
        n = 1_000_000
        theta = rng.uniform(0.0, PI, n)
        alpha = rng.uniform(0.0, 2.0 * PI, n)
        beta = rng.uniform(0.0, 2.0 * PI, n)
        factors_a = (np.cos(theta / 2.0) * np.exp(1j * alpha)).tolist()
        factors_b = (np.sin(theta / 2.0) * np.exp(1j * beta)).tolist()
        acc_a, acc_b = 1.0 + 0.0j, 0.0j
        for a, b in zip(factors_a, factors_b):
            acc_a, acc_b = a * acc_a - b * acc_b.conjugate(), a * acc_b + b * acc_a.conjugate()
        assert abs(abs(acc_a) ** 2 + abs(acc_b) ** 2 - 1.0) < 1e-12


class TestSequencePropagator:
    def test_single_pulse_passthrough(self):
        u = Propagator(0.0, -1j)
        out = sequence_propagator([0.0], u)
        assert out.a == u.a and out.b == u.b

    def test_three_pulse_inversion_sequence(self):
        # phases (0, 2pi/3, 0) invert completely at unit per-pulse transfer
        u = Propagator(math.cos(PI / 2), -1j * math.sin(PI / 2))
        out = sequence_propagator([0.0, 2.0 * PI / 3.0, 0.0], u)
        assert abs(out.a) < 1e-12

    def test_matches_brute_force_chain(self):
        phases = [0.0, 2 * PI / 5, 6 * PI / 5, 2 * PI / 5, 0.0]
        area = PI * 1.1
        u = Propagator(math.cos(area / 2), -1j * math.sin(area / 2))
        out = sequence_propagator(phases, u)
        chain = np.eye(2, dtype=complex)
        for p in phases:
            chain = with_phase(u, p).matrix() @ chain
        assert np.max(np.abs(out.matrix() - chain)) < 1e-14

    def test_associativity_against_grouped_products(self):
        rng = np.random.default_rng(5)
        u = random_propagator(rng)
        phases = rng.uniform(0.0, 2.0 * PI, 8)
        out = sequence_propagator(phases, u).matrix()
        mats = [with_phase(u, p).matrix() for p in phases]
        left = (mats[7] @ mats[6]) @ (mats[5] @ mats[4])
        right = (mats[3] @ mats[2]) @ (mats[1] @ mats[0])
        assert np.max(np.abs(out - left @ right)) < 1e-12

    def test_empty_sequence_rejected(self):
        with pytest.raises(ValueError, match="at least one phase"):
            sequence_propagator([], IDENTITY)


def chain(phases, a, b):
    """(0, 0) and (0, 1) entries of the brute-force product of phased pulses."""
    total = np.eye(2, dtype=complex)
    for p in phases:
        total = with_phase(Propagator(a, b), p).matrix() @ total
    return total[0, 0], total[0, 1]


class TestFold:
    """fold is total and pure on every input a point query or a scan gives it."""

    PHASES = (0.3, 2.1, 5.9, 2.1, 0.3)

    def test_no_phases_give_the_identity(self):
        ones = np.full(3, 0.6 + 0.8j)
        for a, b in ((0.6 + 0.8j, 0.0j), (0.6, 0.8), (ones, ones)):
            for phases in ((), [], iter(()), np.array([])):
                ga, gb = fold(phases, a, b)
                assert ga == 1.0 and gb == 0.0

    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_real_arrays_give_complex_results(self, n):
        theta = np.linspace(0.1, 3.0, 7)
        a, b = np.cos(theta / 2), np.sin(theta / 2)
        ga, gb = fold(self.PHASES[:n], a, b)
        assert ga.dtype == gb.dtype == np.complex128
        for i in range(theta.size):
            want = chain(self.PHASES[:n], complex(a[i]), complex(b[i]))
            assert abs(ga[i] - want[0]) < 1e-14 and abs(gb[i] - want[1]) < 1e-14

    @pytest.mark.parametrize("n", [1, 2, 5])
    @pytest.mark.parametrize("dtype", [np.float64, np.complex128])
    def test_the_callers_arrays_are_not_written(self, n, dtype):
        rng = np.random.default_rng(3)
        a, b = (rng.uniform(-1.0, 1.0, (2, 9)) + 1j * rng.uniform(-1.0, 1.0, (2, 9))
                if dtype is np.complex128 else rng.uniform(-1.0, 1.0, (2, 9)))
        before = a.tobytes(), b.tobytes()
        fold(self.PHASES[:n], a, b)
        assert (a.tobytes(), b.tobytes()) == before

    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_python_floats_and_zero_d_arrays(self, n):
        u = Propagator(math.cos(0.7) * cmath.exp(0.2j), math.sin(0.7) * cmath.exp(-1.1j))
        want = chain(self.PHASES[:n], u.a, u.b)
        ga, gb = fold(self.PHASES[:n], math.cos(0.7), math.sin(0.7))
        assert isinstance(ga, complex) and isinstance(gb, complex)
        real = chain(self.PHASES[:n], math.cos(0.7), math.sin(0.7))
        assert abs(ga - real[0]) < 1e-14 and abs(gb - real[1]) < 1e-14
        a, b = np.array(u.a), np.array(u.b)
        ga, gb = fold(self.PHASES[:n], a, b)
        assert np.ndim(ga) == np.ndim(gb) == 0
        assert abs(ga - want[0]) < 1e-14 and abs(gb - want[1]) < 1e-14
        assert (a[()], b[()]) == (u.a, u.b)


class TestTargetGate:
    @pytest.mark.parametrize(
        "phase,a",
        [(0.0, 1.0 + 0j), (PI, 1j), (PI / 2, cmath.exp(1j * PI / 4))],
    )
    def test_diagonal_form(self, phase, a):
        # the ideal gate of TargetGate(phase) is diag(a, conj(a))
        assert infidelity(Propagator(a, 0j), TargetGate(phase)) < 1e-15


class TestInfidelity:
    def test_zero_on_target(self):
        target = TargetGate(0.7)
        ideal = Propagator(complex(math.cos(0.35), math.sin(0.35)), 0j)
        assert infidelity(ideal, target) == 0.0

    def test_opposite_diagonal_phases(self):
        # diag(-i, i) against diag(i, -i): each diagonal entry differs by 2
        actual = Propagator(-1j, 0.0)
        assert infidelity(actual, TargetGate(PI)) == pytest.approx(2.0 * math.sqrt(2.0), abs=1e-14)

    @pytest.mark.parametrize("phi", [0.3, PI / 2, PI, -1.1])
    def test_exact_pi_pulse_pair_construction(self, phi):
        u = Propagator(math.cos(PI / 2), -1j * math.sin(PI / 2))
        total = sequence_propagator([0.0, PI + phi / 2.0], u)
        assert infidelity(total, TargetGate(phi)) < 1e-12

    def test_bounded_between_zero_and_four(self):
        rng = np.random.default_rng(17)
        for _ in range(500):
            u = random_propagator(rng)
            value = infidelity(u, TargetGate(rng.uniform(-2 * PI, 2 * PI)))
            assert 0.0 <= value <= 4.0

    def test_plain_metric_maxes_out_on_global_sign(self):
        # a global minus sign is the one global phase expressible in
        # Cayley-Klein form; the plain metric maxes out on it
        target = TargetGate(PI / 3)
        flipped = Propagator(-cmath.exp(1j * PI / 6), 0j)
        assert infidelity(flipped, target) == pytest.approx(2 * math.sqrt(2), abs=1e-14)

    def test_plain_metric_counts_global_phase(self):
        # documented behavior: the plain Frobenius distance is not quotiented
        target = TargetGate(0.0)
        rotated = Propagator(cmath.exp(1j * 0.2), 0.0)
        assert infidelity(rotated, target) == pytest.approx(
            2.0 * abs(math.sin(0.1)) * math.sqrt(2.0), abs=1e-14
        )


def test_unitarity_defect_reports_drift():
    assert IDENTITY.unitarity_defect() == 0.0
    assert Propagator(1.0, 1e-7).unitarity_defect() == pytest.approx(1e-14, rel=1e-6)
