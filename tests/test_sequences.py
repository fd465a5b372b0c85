"""Composite phase tables and the two-sequence gate construction."""

import math

import numpy as np
import pytest

from cpgates.pulses import resonant_rect_propagator, transition_probability
from cpgates.sequences import (
    DETUNING_VARIANTS,
    UNIVERSAL_VARIANTS,
    PhaseGateSequence,
    broadband_phases,
    composite_phases,
    detuning_phases,
    gate_propagator,
    make_phase_gate_sequence,
    sequence_table,
    universal_phases,
)
from cpgates.su2 import TargetGate, infidelity, with_phase

PI = math.pi


def pi_units(phases):
    return tuple(p / PI for p in phases)


def assert_phases(cp, expected_pi_units):
    assert np.allclose(pi_units(cp.phases), expected_pi_units, atol=1e-14)


class TestBroadband:
    def test_three_pulses(self):
        cp = broadband_phases(3)
        assert_phases(cp, (0, 2 / 3, 0))
        assert cp.nominal_per_pulse_area == PI

    def test_five_pulses(self):
        assert_phases(broadband_phases(5), (0, 2 / 5, 6 / 5, 2 / 5, 0))

    def test_seven_pulses(self):
        assert_phases(broadband_phases(7), (0, 2 / 7, 6 / 7, 12 / 7, 6 / 7, 2 / 7, 0))

    def test_nine_pulses(self):
        assert_phases(
            broadband_phases(9),
            (0, 2 / 9, 2 / 3, 4 / 3, 2 / 9, 4 / 3, 2 / 3, 2 / 9, 0),
        )

    def test_single_pulse_trivial(self):
        assert broadband_phases(1).phases == (0.0,)

    @pytest.mark.parametrize("bad", [0, -3, 2, 4, 10, 27])
    def test_rejects_even_nonpositive_or_oversized(self, bad):
        with pytest.raises(ValueError):
            broadband_phases(bad)

    def test_rejects_non_integer(self):
        with pytest.raises(ValueError):
            broadband_phases(3.0)


class TestDetuningCompensated:
    def test_tabulated_phases(self):
        assert_phases(detuning_phases("n3"), (0, 1 / 3, 0))
        assert_phases(detuning_phases("n5"), (0, 0.747, 0.424, 0.747, 0))
        assert_phases(
            detuning_phases("n9"),
            (0, 1.308, 1.153, 1.251, 0.562, 1.251, 1.153, 1.308, 0),
        )

    def test_nominal_areas(self):
        assert detuning_phases("n3").nominal_per_pulse_area == pytest.approx(PI)
        assert detuning_phases("n5").nominal_per_pulse_area == pytest.approx(3 * PI / 5)
        assert detuning_phases("n9").nominal_per_pulse_area == pytest.approx(4 * PI / 9)

    def test_unknown_variant(self):
        with pytest.raises(ValueError, match="n7"):
            detuning_phases("n7")

    def test_complete_inversion_at_nominal_point(self):
        # n3 phases are exact rationals; n5/n9 are published to 3 decimals
        tolerances = {"n3": 1e-8, "n5": 1e-4, "n9": 1e-4}
        for variant in DETUNING_VARIANTS:
            cp = detuning_phases(variant)
            pulse = resonant_rect_propagator(cp.nominal_per_pulse_area)
            total = gate_propagator_for_cp(cp, pulse)
            assert 1.0 - transition_probability(total) < tolerances[variant]


def gate_propagator_for_cp(cp, pulse):
    from cpgates.su2 import sequence_propagator

    return sequence_propagator(cp.phases, pulse)


class TestUniversal:
    def test_tabulated_phases(self):
        assert_phases(universal_phases("U3"), (0, 1 / 2, 0))
        assert_phases(universal_phases("U5a"), (0, 5 / 6, 1 / 3, 5 / 6, 0))
        assert_phases(universal_phases("U5b"), (0, 11 / 6, 1 / 3, 11 / 6, 0))
        assert_phases(
            universal_phases("U7a"),
            (0, 11 / 12, 5 / 6, 17 / 12, 5 / 6, 11 / 12, 0),
        )
        assert_phases(
            universal_phases("U7b"),
            (0, 23 / 12, 5 / 6, 5 / 12, 5 / 6, 23 / 12, 0),
        )
        assert_phases(
            universal_phases("U13a"),
            (0, 3 / 8, 42 / 24, 11 / 24, 8 / 24, 37 / 24, 2 / 24,
             37 / 24, 8 / 24, 11 / 24, 42 / 24, 3 / 8, 0),
        )
        assert_phases(
            universal_phases("U13b"),
            (0, 33 / 24, 42 / 24, 35 / 24, 8 / 24, 13 / 24, 2 / 24,
             13 / 24, 8 / 24, 35 / 24, 42 / 24, 33 / 24, 0),
        )

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="U9"):
            universal_phases("U9")


class TestFamilyProperties:
    def all_shipped(self):
        cps = [broadband_phases(n) for n in (1, 3, 5, 7, 9, 25)]
        cps += [detuning_phases(v) for v in DETUNING_VARIANTS]
        cps += [universal_phases(v) for v in UNIVERSAL_VARIANTS]
        return cps

    def test_palindromic_and_anchored_at_zero(self):
        for cp in self.all_shipped():
            assert cp.phases[0] == 0.0
            assert np.allclose(cp.phases, cp.phases[::-1], atol=1e-12)

    def test_odd_lengths(self):
        for cp in self.all_shipped():
            assert cp.n_pulses % 2 == 1

    def test_phases_reduced(self):
        for cp in self.all_shipped():
            assert all(0.0 <= p < 2.0 * PI for p in cp.phases)


class TestLookup:
    def test_aliases(self):
        assert composite_phases("bb", "n5").phases == broadband_phases(5).phases
        assert composite_phases("broadband", "5").phases == broadband_phases(5).phases
        assert composite_phases("detuning", "n3").variant == "n3"
        assert composite_phases("universal", "U5a").variant == "U5a"

    def test_unknown_family(self):
        with pytest.raises(ValueError, match="family"):
            composite_phases("narrowband", "n3")

    def test_bad_broadband_variant(self):
        with pytest.raises(ValueError, match="n3"):
            composite_phases("broadband", "abc")


class TestGateConstruction:
    def test_second_half_shift_broadband(self):
        phi = 0.62
        seq = make_phase_gate_sequence(broadband_phases(3), phi)
        want = (0, 2 * PI / 3, 0,
                PI + phi / 2, 5 * PI / 3 + phi / 2, PI + phi / 2)
        assert np.allclose(seq.phases, np.mod(want, 2 * PI), atol=1e-13)

    def test_second_half_shift_detuning(self):
        phi = PI / 4
        seq = make_phase_gate_sequence(detuning_phases("n3"), phi)
        want = (0, PI / 3, 0, PI + phi / 2, 4 * PI / 3 + phi / 2, PI + phi / 2)
        assert np.allclose(seq.phases, np.mod(want, 2 * PI), atol=1e-13)

    def test_ten_pulse_universal_sequences(self):
        phi = 0.37
        shift = PI + phi / 2
        for name, base in (("U5a", (0, 5 / 6, 1 / 3, 5 / 6, 0)),
                           ("U5b", (0, 11 / 6, 1 / 3, 11 / 6, 0))):
            seq = make_phase_gate_sequence(universal_phases(name), phi)
            want = [p * PI for p in base] + [p * PI + shift for p in base]
            assert np.allclose(seq.phases, np.mod(want, 2 * PI), atol=1e-13)

    def test_six_pulse_universal_example(self):
        seq = make_phase_gate_sequence(universal_phases("U3"), PI / 2)
        assert np.allclose(pi_units(seq.phases), (0, 0.5, 0, 1.25, 1.75, 1.25),
                           atol=1e-14)

    def test_source_retained(self):
        cp = broadband_phases(5)
        seq = make_phase_gate_sequence(cp, 0.1)
        assert seq.source is cp
        assert len(seq.phases) == 2 * cp.n_pulses

    def test_phases_derive_from_gate_phase_and_source(self):
        cp = universal_phases("U5a")
        seq = PhaseGateSequence(0.37, cp)
        assert seq == make_phase_gate_sequence(cp, 0.37)
        assert seq.phases[:5] == cp.phases
        with pytest.raises(ValueError, match="gate phase must be finite"):
            PhaseGateSequence(math.inf, cp)


class TestGatePropagator:
    @pytest.mark.parametrize("name,builder", [
        ("bb1", lambda: broadband_phases(1)),
        ("bb9", lambda: broadband_phases(9)),
        ("U5a", lambda: universal_phases("U5a")),
        ("det3", lambda: detuning_phases("n3")),
    ])
    def test_exact_gate_from_exact_inversion(self, name, builder):
        cp = builder()
        phi = PI / 2
        seq = make_phase_gate_sequence(cp, phi)
        pulse = resonant_rect_propagator(cp.nominal_per_pulse_area)
        total = gate_propagator(seq, pulse)
        assert infidelity(total, TargetGate(phi)) < 1e-12

    def test_matches_explicit_six_matrix_product(self):
        seq = make_phase_gate_sequence(broadband_phases(3), 0.9)
        pulse = resonant_rect_propagator(1.1 * PI)
        total = gate_propagator(seq, pulse)
        chain = np.eye(2, dtype=complex)
        for p in seq.phases:
            chain = with_phase(pulse, p).matrix() @ chain
        assert np.max(np.abs(total.matrix() - chain)) < 1e-13

    def test_gate_phase_periodicity_mod_four_pi(self):
        pulse = resonant_rect_propagator(0.93 * PI)
        for cp in (broadband_phases(3), universal_phases("U5a")):
            s1 = make_phase_gate_sequence(cp, 0.7)
            s2 = make_phase_gate_sequence(cp, 0.7 + 4.0 * PI)
            g1, g2 = gate_propagator(s1, pulse), gate_propagator(s2, pulse)
            assert abs(g1.a - g2.a) < 1e-12
            assert abs(g1.b - g2.b) < 1e-12


def test_sequence_table_audit_format():
    table = sequence_table()
    lines = table.splitlines()
    assert lines[0].split("\t") == ["name", "n", "phases/pi", "area/pi"]
    assert any(line.startswith("broadband:n9") for line in lines)
    assert any(line.startswith("detuning_compensated:n5") for line in lines)
    assert any(line.startswith("universal:U13b") for line in lines)
    # 12-significant-digit rendering of 2/3
    bb3 = next(line for line in lines if line.startswith("broadband:n3"))
    assert "0.666666666667" in bb3
    # detuning n5 nominal area 3/5
    det5 = next(line for line in lines if line.startswith("detuning_compensated:n5"))
    assert det5.rstrip().endswith("0.6")
