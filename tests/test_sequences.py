"""Composite phase tables and the two-sequence gate construction."""

import inspect
import math
import re

import numpy as np
import pytest

from cpgates import sequences
from cpgates.pulses import (
    PulseSpec,
    constituent_grid,
    resonant_rect_propagator,
    transition_probability,
)
from cpgates.scan import SweepAxis, scan_1d, scan_2d
from cpgates.sequences import (
    DETUNING_VARIANTS,
    MAX_BROADBAND_PULSES,
    UNIVERSAL_VARIANTS,
    PhaseGateSequence,
    broadband_phases,
    composite_phases,
    detuning_phases,
    gate_propagator,
    make_phase_gate_sequence,
    sequence_infidelity,
    sequence_table,
    universal_phases,
)
from cpgates.su2 import TargetGate, fold, gate_infidelity, infidelity, phase_gate, with_phase
from test_properties import matrix_chain

PI = math.pi
LONG_PI = np.longdouble("3.14159265358979323846264338327950288")


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

    @pytest.mark.parametrize("variant", ["abc", "nn3", "n+3", "n 3", "n1_3", " n3", "n3 ",
                                         "n-3", "m3", "n", "", "n\u0663", "n3.0"])
    def test_bad_broadband_variant(self, variant):
        # int() would take a sign, blanks, underscores and other scripts' digits
        with pytest.raises(ValueError, match=rf"look like 'n3', got {re.escape(repr(variant))}$"):
            composite_phases("broadband", variant)

    @pytest.mark.parametrize("variant, n", [("n3", 3), ("N3", 3), ("5", 5), ("n025", 25)])
    def test_broadband_variant_spellings(self, variant, n):
        assert composite_phases("broadband", variant) is broadband_phases(n)


def _every_shipped_table():
    """Every shipped table, asked for by position and by keyword."""
    tables = ([broadband_phases(n) for n in range(1, 26, 2)]
              + [detuning_phases(v) for v in DETUNING_VARIANTS]
              + [universal_phases(v) for v in UNIVERSAL_VARIANTS])
    by_keyword = ([broadband_phases(n=n) for n in range(1, 26, 2)]
                  + [detuning_phases(variant=v) for v in DETUNING_VARIANTS]
                  + [universal_phases(name=v) for v in UNIVERSAL_VARIANTS])
    assert all(a is b for a, b in zip(tables, by_keyword))
    return tables


class TestTableCache:
    def test_a_repeated_call_returns_the_same_table(self):
        first, again = _every_shipped_table(), _every_shipped_table()
        assert all(a is b for a, b in zip(first, again))
        assert composite_phases("bb", "n5") is broadband_phases(5)
        assert composite_phases("detuning", "N3") is detuning_phases("n3")

    @pytest.mark.parametrize("table_of, bad", [
        (broadband_phases, 5.0), (broadband_phases, 1.0), (broadband_phases, True),
        (broadband_phases, False), (broadband_phases, np.int64(5)),
        (broadband_phases, "5"), (broadband_phases, None), (broadband_phases, 4),
        (broadband_phases, 0), (broadband_phases, -3), (broadband_phases, 27),
        (detuning_phases, "n7"), (detuning_phases, "N5"), (detuning_phases, 5),
        (universal_phases, "U9"), (universal_phases, "u5a"), (universal_phases, None),
    ])
    def test_invalid_arguments_still_raise_once_tables_exist(self, table_of, bad):
        _every_shipped_table()
        with pytest.raises(ValueError):
            table_of(bad)
        (keyword,) = inspect.signature(table_of).parameters
        with pytest.raises(ValueError):
            table_of(**{keyword: bad})

    def test_unhashable_variants_still_raise(self):
        _every_shipped_table()
        with pytest.raises(TypeError):
            detuning_phases(["n5"])

    def test_a_shared_table_stays_frozen(self):
        cp = broadband_phases(5)
        assert type(cp.phases) is tuple
        with pytest.raises(AttributeError):
            cp.phases = (0.0,)
        assert broadband_phases(5).phases == cp.phases and cp.variant == "n5"


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


def rect_pulses(area, detuning=0.0):
    """(a, b) of rectangular pulses of unit duration, as a scan block builds them."""
    area = np.asarray(area, dtype=float)
    return constituent_grid("rectangular", "constant", area, np.ones_like(area),
                            np.full_like(area, detuning))


class TestSequenceInfidelity:
    """The one route choice: the closed form on a real a, else the fold."""

    @pytest.mark.parametrize("phase_pi", [0.25, 0.5, 1.37, 3.9, 0.5 + 4.0])
    def test_closed_form_matches_the_brute_force_chain(self, monkeypatch, phase_pi):
        def refuse(*args):
            raise AssertionError("a real a of a broadband sequence was folded")

        monkeypatch.setattr(sequences, "fold", refuse)
        rng = np.random.default_rng(27)
        for n in range(1, MAX_BROADBAND_PULSES + 1, 2):
            seq = make_phase_gate_sequence(broadband_phases(n), phase_pi * PI)
            a, b = rect_pulses(rng.uniform(0.0, 2.0 * PI, 40))
            got = sequence_infidelity(seq, a, b)
            # the 2n-pulse chain and the Frobenius distance of all four
            # entries, in extended precision where numpy has it, with the
            # phases k(k-1)pi/n and their copy's shift taken from the formula.
            # The package's phases are doubles: a chain over them, in any
            # precision, lies up to 2.8e-14 from the exact gate at n = 25
            cp = [k * (k - 1) * LONG_PI / n for k in range(1, n + 1)]
            phase = np.longdouble(seq.gate_phase)
            phases = cp + [p + LONG_PI + phase / 2 for p in cp]
            ga, gb = matrix_chain(phases, a.astype(np.clongdouble), b.astype(np.clongdouble))
            t = np.exp(np.clongdouble(0.5j) * phase)
            chain = np.sqrt(2 * np.abs(ga - t) ** 2 + 2 * np.abs(gb) ** 2)
            assert np.max(np.abs(got - chain)) <= 1e-14, n

    @pytest.mark.parametrize("n", [1, 3, 5, 9, 25])
    def test_closed_form_is_exact_where_the_fold_is_noise(self, n):
        # near area fraction 1 +- eps, F / |eps|**n -> 2 sqrt(2) |sin(phase/4)|
        # (pi/2)**n, relatively within n (pi eps/2)**2/6 and the rounding of
        # the area; the fold's values there are noise of about 1e-16
        phase = 0.37 * PI
        limit = 2.0 * math.sqrt(2.0) * abs(math.sin(phase / 4.0)) * (PI / 2.0) ** n
        seq = make_phase_gate_sequence(broadband_phases(n), phase)
        for eps in (1e-3, 1e-5, 1e-7):
            axis = SweepAxis("pulse_area_fraction", 1.0 - eps, 1.0 + eps, 2)
            values = scan_1d(axis, seq, PulseSpec.rectangular(PI)).values
            for x, value in zip(axis.grid(), values):
                ratio = value / abs(x - 1.0) ** n / limit
                assert abs(ratio - 1.0) <= n * ((PI * eps / 2.0) ** 2 / 6.0 + 1e-15 / eps), (eps, x)

    def test_other_points_take_the_fold_bit_for_bit(self):
        rng = np.random.default_rng(28)
        area = rng.uniform(0.0, 2.0 * PI, 5000)
        cases = [
            # a detuned rect pulse: a complex everywhere
            (make_phase_gate_sequence(broadband_phases(5), 0.3 * PI), rect_pulses(area, 0.4)),
            # a real a, but a universal sequence
            (make_phase_gate_sequence(universal_phases("U5a"), 0.3 * PI), rect_pulses(area)),
            (make_phase_gate_sequence(detuning_phases("n5"), 0.3 * PI), rect_pulses(area)),
        ]
        for seq, (a, b) in cases:
            assert a.imag.all() or seq.source.family != "broadband"
            folded = gate_infidelity(*phase_gate(*fold(seq.source.phases, a, b), seq.gate_phase),
                                     seq.gate_phase)
            assert sequence_infidelity(seq, a, b).tobytes() == folded.tobytes()

    def test_each_point_of_a_block_takes_its_own_route(self):
        # one block of a broadband map holds detuning 0, where a is real,
        # and detuned points: each gets the bits of a block of its own kind
        seq = make_phase_gate_sequence(broadband_phases(9), 0.5 * PI)
        template = PulseSpec.rectangular(PI)
        durations = SweepAxis("duration_fraction", 0.5, 1.5, 300)
        detunings = SweepAxis("detuning_times_T", 0.0, 1.0, 11)
        mixed = scan_2d(durations, detunings, seq, template)
        for column, detuning in enumerate(detunings.grid()):
            alone = scan_1d(durations, seq, PulseSpec.rectangular(PI, detuning=detuning))
            assert mixed.values[:, column].tobytes() == alone.values.tobytes(), detuning

    def test_a_point_query_takes_the_route(self):
        seq = make_phase_gate_sequence(broadband_phases(5), 0.5 * PI)
        a, b = rect_pulses([0.9 * PI])
        scalar = sequence_infidelity(seq, complex(a[0]), complex(b[0]))
        assert type(scalar) is float
        assert scalar == 2.0 * math.sqrt(2.0) * math.sin(PI / 8.0) * abs(a[0].real) ** 5
        detuned = make_phase_gate_sequence(universal_phases("U5a"), 0.5 * PI)
        pulse = resonant_rect_propagator(0.9 * PI)
        assert sequence_infidelity(detuned, pulse.a, pulse.b) == infidelity(
            gate_propagator(detuned, pulse), TargetGate(detuned.gate_phase))


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
