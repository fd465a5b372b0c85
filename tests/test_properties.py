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
    sequence_propagator,
)

PI = math.pi
SHIPPED = ([broadband_phases(n) for n in (1, 3, 5, 7, 9)]
           + [detuning_phases(v) for v in DETUNING_VARIANTS]
           + [universal_phases(v) for v in UNIVERSAL_VARIANTS])

deterministic = settings(derandomize=True, database=None, deadline=None,
                         max_examples=40)
angle = st.floats(0.0, 2.0 * PI)
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
