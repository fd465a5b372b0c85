"""Properties of the shared kernels and of scans, checked with hypothesis.

Examples are derandomized, so every run checks the same cases.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from cpgates.pulses import PulseSpec, constituent_propagator
from cpgates.scan import PARAMETERS, SweepAxis, scan_1d, scan_2d
from cpgates.sequences import (
    DETUNING_VARIANTS,
    MAX_BROADBAND_PULSES,
    UNIVERSAL_VARIANTS,
    broadband_phases,
    detuning_phases,
    gate_propagator,
    make_phase_gate_sequence,
    universal_phases,
)
from cpgates.su2 import (
    Propagator,
    TargetGate,
    fold,
    gate_infidelity,
    infidelity,
    phase_gate,
    sequence_propagator,
)

PI = math.pi
SHIPPED = ([broadband_phases(n) for n in (1, 3, 5, 7, 9)]
           + [detuning_phases(v) for v in DETUNING_VARIANTS]
           + [universal_phases(v) for v in UNIVERSAL_VARIANTS])

deterministic = settings(derandomize=True, database=None, deadline=None,
                         max_examples=40)
angle = st.floats(0.0, 2.0 * PI)
gate_phases = st.floats(-4.0 * PI, 4.0 * PI)
# (theta, alpha, beta) of a = cos(theta/2) e^{i alpha}, b = sin(theta/2) e^{i beta}
unit_pairs = st.lists(st.tuples(st.floats(0.0, PI), angle, angle),
                      min_size=1, max_size=8)


# ordered pairs of parameters a map may sweep together
MAP_AXES = [(p, q) for p in PARAMETERS for q in PARAMETERS
            if p != q and {p, q} != {"pulse_area_fraction", "peak_rabi_times_T"}]


def pairs(draw):
    theta, alpha, beta = np.array(draw).T
    return (np.cos(theta / 2) * np.exp(1j * alpha),
            np.sin(theta / 2) * np.exp(1j * beta))


@deterministic
@given(unit_pairs, angle)
def test_scalar_and_grid_kernels_agree_on_every_shipped_sequence(drawn, phase):
    a, b = pairs(drawn)
    for cp in SHIPPED:
        seq = make_phase_gate_sequence(cp, phase)
        grid = gate_infidelity(*fold(seq.phases, a, b), seq.gate_phase)
        for i in range(a.size):
            pulse = Propagator(complex(a[i]), complex(b[i]))
            scalar = infidelity(sequence_propagator(seq.phases, pulse),
                                TargetGate(seq.gate_phase))
            assert abs(scalar - grid[i]) <= 1e-14


def matrix_chain(phases, a, b):
    """Entries (0, 0) and (0, 1) of the 2x2 product of the phased pulses."""
    total = np.broadcast_to(np.eye(2, dtype=complex), a.shape + (2, 2))
    for p in phases:
        bp = b * np.exp(1j * p)
        pulse = np.array([[a, bp], [-bp.conj(), a.conj()]])
        total = np.moveaxis(pulse, (0, 1), (-2, -1)) @ total
    return total[..., 0, 0], total[..., 0, 1]


@deterministic
@given(unit_pairs, st.lists(angle, max_size=12), st.floats(0.1, 2.0 * PI - 0.1))
def test_fold_of_random_phases_matches_the_brute_force_chain(drawn, phases, last):
    # every shipped sequence ends on phase 0; here the last phase is not, so
    # the fold's closing turn by e^{-i phase_{n-1}} shows
    a, b = pairs(drawn)
    phases = [*phases, last]
    want = matrix_chain(phases, a, b)
    for got, ref in zip(fold(phases, a, b), want):
        assert np.all(np.abs(got - ref) <= 1e-14)
    for i in range(a.size):
        for got, ref in zip(fold(phases, complex(a[i]), complex(b[i])), want):
            assert abs(got - ref[i]) <= 1e-14


@deterministic
@given(unit_pairs, st.tuples(st.floats(0.5, 1.5), st.floats(0.5, 1.5)), gate_phases)
def test_gate_closure_matches_the_brute_force_chain(drawn, scales, phase):
    # unit pairs, and pairs scaled off unitarity: the closure is exact algebra
    unit_a, unit_b = pairs(drawn)
    for a, b in ((unit_a, unit_b), (unit_a * scales[0], unit_b * scales[1])):
        for cp in SHIPPED + [broadband_phases(25)]:
            want = matrix_chain(make_phase_gate_sequence(cp, phase).phases, a, b)
            tol = 1e-14 * np.maximum(1.0, np.abs(want[0]) + np.abs(want[1]))
            grid = phase_gate(*fold(cp.phases, a, b), phase)
            for got, ref in zip(grid, want):
                assert np.all(np.abs(got - ref) <= tol)
            for i in range(a.size):
                scalar = phase_gate(*fold(cp.phases, complex(a[i]), complex(b[i])), phase)
                for got, ref in zip(scalar, want):
                    assert abs(got - ref[i]) <= tol[i]


@deterministic
@given(unit_pairs, angle)
def test_gate_propagator_and_scan_kernel_agree_on_every_shipped_sequence(drawn, phase):
    a, b = pairs(drawn)
    for cp in SHIPPED:
        seq = make_phase_gate_sequence(cp, phase)
        gate = phase_gate(*fold(seq.source.phases, a, b), seq.gate_phase)
        grid = gate_infidelity(*gate, seq.gate_phase)
        for i in range(a.size):
            pulse = Propagator(complex(a[i]), complex(b[i]))
            scalar = infidelity(gate_propagator(seq, pulse), TargetGate(seq.gate_phase))
            assert abs(scalar - grid[i]) <= 1e-14


@deterministic
@given(unit_pairs, gate_phases)
def test_gate_error_depends_only_on_the_composite_pulses_a(drawn, phase):
    # for a unitary CP (A, B) the gate misses its target by
    # 2*sqrt(2)*|Im(A e^{-i*phase/4})|, so it inherits the order of |A|
    for cp in SHIPPED:
        big_a, big_b = matrix_chain(cp.phases, *pairs(drawn))
        error = gate_infidelity(*phase_gate(big_a, big_b, phase), phase)
        bound = 2.0 * math.sqrt(2.0) * np.abs(big_a)
        want = 2.0 * math.sqrt(2.0) * np.abs((big_a * np.exp(-0.25j * phase)).imag)
        assert np.all(np.abs(error - want) <= 1e-14)
        assert np.all(error <= bound + 1e-14)


@deterministic
@given(unit_pairs, gate_phases, angle)
def test_a_phase_every_pulse_shares_does_not_reach_the_gate(drawn, phase, theta):
    # on every shipped sequence: the gate is set by phase differences
    # between its pulses, so where a pulse's detuning phase starts counting,
    # which turns every constituent b by the same e^{i*theta}, cannot move
    # its infidelity
    a, b = pairs(drawn)
    broadband = [broadband_phases(n) for n in range(11, MAX_BROADBAND_PULSES + 1, 2)]
    for cp in SHIPPED + broadband:
        base, turned = (gate_infidelity(*phase_gate(*fold(cp.phases, a, bb), phase), phase)
                        for bb in (b, b * np.exp(1j * theta)))
        assert np.all(np.abs(base - turned) <= 1e-13)


@deterministic
@given(st.sampled_from(SHIPPED), angle, st.floats(0.05, 2.0),
       st.floats(-3.0, 3.0))
def test_scan_point_equals_point_query(cp, phase, area_fraction, detuning):
    seq = make_phase_gate_sequence(cp, phase)
    template = PulseSpec.rectangular(PI, detuning=detuning)
    axis = SweepAxis("pulse_area_fraction", area_fraction, area_fraction + 1.0, 2)
    scanned = scan_1d(axis, seq, template).values[0]
    pulse = constituent_propagator(
        PulseSpec.rectangular(area_fraction * PI, detuning=detuning))
    query = infidelity(gate_propagator(seq, pulse), TargetGate(seq.gate_phase))
    assert abs(scanned - query) <= 1e-14


@deterministic
@given(unit_pairs, st.lists(angle, min_size=1, max_size=50))
def test_fold_stays_unitary(drawn, phases):
    ga, gb = fold(phases, *pairs(drawn))
    assert np.max(np.abs(np.abs(ga) ** 2 + np.abs(gb) ** 2 - 1.0)) <= 1e-13


@deterministic
@given(st.sampled_from(SHIPPED), st.floats(-2.0 * PI, 2.0 * PI), unit_pairs)
def test_gate_phase_shifted_by_four_pi_is_the_same_gate(cp, phase, drawn):
    a, b = pairs(drawn)
    for i in range(a.size):
        pulse = Propagator(complex(a[i]), complex(b[i]))
        values = []
        for gate_phase in (phase, phase + 4.0 * PI):
            seq = make_phase_gate_sequence(cp, gate_phase)
            values.append(infidelity(gate_propagator(seq, pulse),
                                     TargetGate(gate_phase)))
        assert abs(values[0] - values[1]) <= 1e-12


def assert_transposed_axes_transpose_the_map(ax, ay, seq, template):
    xy = scan_2d(ax, ay, seq, template).values
    yx = scan_2d(ay, ax, seq, template).values
    assert np.array_equal(xy.T, yx)


@deterministic
@given(st.sampled_from(MAP_AXES), st.sampled_from(SHIPPED), angle,
       st.tuples(st.floats(0.1, 1.5), st.floats(0.1, 1.5)),
       st.tuples(st.integers(2, 7), st.integers(2, 7)))
def test_transposed_axes_transpose_a_rect_map(params, cp, phase, starts, samples):
    ax, ay = (SweepAxis(p, lo, lo + 1.0, n)
              for p, lo, n in zip(params, starts, samples))
    seq = make_phase_gate_sequence(cp, phase)
    template = PulseSpec.rectangular(cp.nominal_per_pulse_area)
    assert_transposed_axes_transpose_the_map(ax, ay, seq, template)


def test_transposed_axes_transpose_a_sech_map():
    ax = SweepAxis("peak_rabi_times_T", 0.5, 3.0, 6)
    ay = SweepAxis("detuning_times_T", -1.0, 1.0, 5)
    seq = make_phase_gate_sequence(broadband_phases(3), PI / 2)
    assert_transposed_axes_transpose_the_map(ax, ay, seq, PulseSpec.sech(1.0))
