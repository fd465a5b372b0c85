"""Sweep engine: grids, determinism, fits, bandwidths, CSV contract."""

import io
import itertools
import math
import re
import tempfile
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from cpgates import pulses, scan
from cpgates.presets import preset_jobs
from cpgates.pulses import PulseSpec
from cpgates.scan import (
    ScanError,
    ScanResult,
    SweepAxis,
    error_order,
    high_fidelity_bandwidth,
    read_scan_csv,
    save_scan_csv,
    scan_1d,
    scan_2d,
    write_scan_csv,
)
from cpgates.sequences import (
    broadband_phases,
    detuning_phases,
    make_phase_gate_sequence,
    universal_phases,
)

PI = math.pi
# inner axes of a long map: one with a sign in some of its coordinates, and
# one without
SIGNED = ("detuning_times_T", -1.0, 1.0)
POSITIVE = ("duration_fraction", 0.6, 1.4)


def bb_gate(n, phi=PI / 2):
    return make_phase_gate_sequence(broadband_phases(n), phi)


class TestSweepAxis:
    def test_linear_grid_endpoints(self):
        g = SweepAxis("pulse_area_fraction", 0.5, 1.5, 11).grid()
        assert g[0] == 0.5 and g[-1] == 1.5 and g.size == 11

    def test_log_grid(self):
        g = SweepAxis("pulse_area_fraction", 1e-3, 1e-1, 3, "log").grid()
        assert np.allclose(g, [1e-3, 1e-2, 1e-1])

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(parameter="nope", start=0, stop=1, samples=5),
            dict(parameter="detuning_times_T", start=1, stop=0, samples=5),
            dict(parameter="detuning_times_T", start=0, stop=1, samples=1),
            dict(parameter="detuning_times_T", start=0, stop=1, samples=5, spacing="weird"),
            dict(parameter="detuning_times_T", start=0, stop=1, samples=5, spacing="log"),
            dict(parameter="detuning_times_T", start=0, stop=1, samples=20_000_001),
            dict(parameter="pulse_area_fraction", start=0, stop=math.inf, samples=5),
            dict(parameter="pulse_area_fraction", start=-math.inf, stop=1, samples=5),
            dict(parameter="pulse_area_fraction", start=math.nan, stop=1, samples=5),
            dict(parameter="pulse_area_fraction", start=0.5, stop=1.5, samples=2.5),
            dict(parameter="pulse_area_fraction", start=0.5, stop=1.5, samples=3.0),
            dict(parameter="pulse_area_fraction", start=0.5, stop=1.5, samples="3"),
            dict(parameter="pulse_area_fraction", start=0.5, stop=1.5, samples=True),
        ],
    )
    def test_rejects_bad_axes(self, kwargs):
        with pytest.raises(ValueError):
            SweepAxis(**kwargs)


class TestScan1D:
    def test_minimum_sits_exactly_on_nominal_area(self):
        axis = SweepAxis("pulse_area_fraction", 0.5, 1.5, 101)
        res = scan_1d(axis, bb_gate(1), PulseSpec.rectangular(PI))
        assert res.values.min() < 1e-12
        assert axis.grid()[np.argmin(res.values)] == pytest.approx(1.0, abs=1e-12)

    def test_wider_low_error_region_for_longer_sequences(self):
        axis = SweepAxis("pulse_area_fraction", 0.5, 1.5, 501)
        t = PulseSpec.rectangular(PI)
        bw3 = high_fidelity_bandwidth(scan_1d(axis, bb_gate(3), t), 1e-4)
        bw9 = high_fidelity_bandwidth(scan_1d(axis, bb_gate(9), t), 1e-4)
        assert bw9 > bw3 > 0

    @pytest.mark.parametrize("phi", [PI / 2, PI / 4])
    def test_bandwidth_nondecreasing_in_sequence_length(self, phi):
        axis = SweepAxis("pulse_area_fraction", 0.5, 1.5, 501)
        t = PulseSpec.rectangular(PI)
        widths = [
            high_fidelity_bandwidth(scan_1d(axis, bb_gate(n, phi), t), 1e-4)
            for n in (1, 3, 5, 9)
        ]
        assert all(w1 <= w2 for w1, w2 in zip(widths, widths[1:]))

    def test_detuning_curve_symmetric_at_zero_gate_phase(self):
        # the Frobenius metric is even in the detuning only for gate phase 0
        axis = SweepAxis("detuning_times_T", -2.0, 2.0, 41)
        seq = make_phase_gate_sequence(detuning_phases("n3"), 0.0)
        res = scan_1d(axis, seq, PulseSpec.rectangular(PI))
        assert np.max(np.abs(res.values - res.values[::-1])) < 1e-10

    def test_detuning_axis_needs_constant_model(self):
        axis = SweepAxis("detuning_times_T", -1.0, 1.0, 5)
        with pytest.raises(ValueError, match="constant-detuning"):
            scan_1d(axis, bb_gate(1), PulseSpec.sech(1.0, chirp_rate=1.0))

    def test_zero_duration_template_rejected(self):
        axis = SweepAxis("pulse_area_fraction", 0.5, 1.5, 5)
        with pytest.raises(ValueError, match="duration"):
            scan_1d(axis, bb_gate(1), PulseSpec("rectangular", PI, 0.0))

    def test_metadata_carries_provenance(self):
        axis = SweepAxis("pulse_area_fraction", 0.9, 1.1, 5)
        res = scan_1d(axis, bb_gate(3), PulseSpec.rectangular(PI))
        md = res.metadata
        assert md["family"] == "broadband"
        assert md["variant"] == "n3"
        assert md["gate_phase_pi"] == pytest.approx(0.5)
        assert md["pulse_shape"] == "rectangular"
        assert md["detuning_model"] == "constant"
        assert "rel_tol" not in md  # tolerances belong to the pulse layer

    def test_deterministic_repeat(self):
        axis = SweepAxis("detuning_times_T", -1.0, 1.0, 31)
        seq = make_phase_gate_sequence(detuning_phases("n3"), PI / 4)
        t = PulseSpec.rectangular(PI)
        r1 = scan_1d(axis, seq, t)
        r2 = scan_1d(axis, seq, t)
        assert np.array_equal(r1.values, r2.values)

    def test_integration_failure_carries_coordinates(self, monkeypatch):
        # four steps cannot cross a sech window, so every point fails
        monkeypatch.setattr(pulses, "MAX_STEPS", 4)
        axis = SweepAxis("peak_rabi_times_T", 0.5, 8.0, 7)
        t = PulseSpec.sech(1.0, chirp_rate=1.0)
        with pytest.raises(ScanError) as err:
            scan_1d(axis, bb_gate(3), t)
        assert np.array_equal(err.value.coordinates, axis.grid()[:, None])
        message = str(err.value)
        assert message.startswith("7 grid point(s) failed")
        assert "(0.5,), (1.75,), (3.0,), (4.25,), (5.5,)" in message
        assert "6.75" not in message  # the message shows the first five

    def test_every_failing_map_point_comes_back(self, monkeypatch):
        # 2 x 6 failing points of a chirped sech map, listed row-major as (x, y)
        monkeypatch.setattr(pulses, "MAX_STEPS", 4)
        ax = SweepAxis("duration_fraction", 0.5, 1.5, 2)
        ay = SweepAxis("peak_rabi_times_T", 0.5, 3.0, 6)
        with pytest.raises(ScanError) as err:
            scan_2d(ax, ay, bb_gate(1), PulseSpec.sech(1.0, chirp_rate=1.0))
        coords = err.value.coordinates
        assert coords.shape == (12, 2)
        xs, ys = np.meshgrid(ax.grid(), ay.grid(), indexing="ij")
        assert np.array_equal(coords, np.stack([xs.ravel(), ys.ravel()], axis=1))
        assert str(err.value).startswith("12 grid point(s) failed")

    def test_non_finite_infidelity_is_a_scan_error(self):
        # finite axis bounds whose Rabi frequency overflows to inf
        axis = SweepAxis("pulse_area_fraction", 0.0, 1e308, 5)
        with pytest.raises(ScanError) as err:
            scan_1d(axis, bb_gate(3), PulseSpec.rectangular(PI))
        assert np.array_equal(err.value.coordinates, [[7.5e307], [1e308]])
        assert str(err.value).startswith("2 grid point(s) failed")
        assert "(7.5e+307,), (1e+308,)" in str(err.value)

    def test_failing_points_across_blocks_come_back_row_major(self):
        # 5,000 x 5 points over four blocks: Omega0 = area*pi/T0 overflows
        # for the two largest areas, so every row holds two failing points
        ax = SweepAxis("duration_fraction", 0.5, 1.5, 5000)
        ay = SweepAxis("pulse_area_fraction", 0.0, 1e308, 5)
        with pytest.raises(ScanError) as err:
            scan_2d(ax, ay, bb_gate(3), PulseSpec.rectangular(PI))
        xs, ys = np.meshgrid(ax.grid(), ay.grid(), indexing="ij")
        bad = ys > np.finfo(float).max / PI
        assert np.unique(np.flatnonzero(bad) // scan._BLOCK).size == 4
        assert np.array_equal(err.value.coordinates,
                              np.stack([xs[bad], ys[bad]], axis=1))
        assert str(err.value).startswith("10000 grid point(s) failed")
        assert "(0.5, 7.5e+307), (0.5, 1e+308), (0.5002000400080016, 7.5e+307)" \
            in str(err.value)

    @pytest.mark.parametrize("axes, template, match", [
        ((("detuning_times_T", -1.0, 1.0, 5),), PulseSpec.sech(1.0, chirp_rate=1.0),
         "constant-detuning"),
        ((("duration_fraction", 0.5, 1.5, 5),), PulseSpec("rectangular", PI, 0.0),
         "positive duration"),
        ((("detuning_times_T", -1.0, 1.0, 5),) * 2, PulseSpec.rectangular(PI),
         "distinct"),
        ((("pulse_area_fraction", 0.5, 1.5, 5), ("peak_rabi_times_T", 0.5, 1.5, 5)),
         PulseSpec.rectangular(PI), "peak Rabi"),
        # a negative area, Rabi frequency or duration is no pulse; a point
        # query rejects it too
        ((("pulse_area_fraction", -1.0, 1.0, 5),), PulseSpec.rectangular(PI),
         "below 0"),
        ((("peak_rabi_times_T", -1.0, 1.0, 5),), PulseSpec.sech(1.0, chirp_rate=1.0),
         "below 0"),
        ((("detuning_times_T", -1.0, 1.0, 5), ("duration_fraction", -1.0, 1.0, 5)),
         PulseSpec.rectangular(PI), "below 0"),
    ])
    def test_bad_axes_fail_before_any_pulse(self, monkeypatch, axes, template, match):
        def no_pulses(*args):
            raise AssertionError("a pulse was computed")
        monkeypatch.setattr(scan, "constituent_grid", no_pulses)
        axes = [SweepAxis(*ax) for ax in axes]
        with pytest.raises(ValueError, match=match):
            (scan_1d if len(axes) == 1 else scan_2d)(*axes, bb_gate(1), template)


class TestScan2D:
    def test_exact_point_on_grid(self):
        ax = SweepAxis("duration_fraction", 0.0, 2.0, 5)
        ay = SweepAxis("detuning_times_T", -2.0, 2.0, 5)
        seq = make_phase_gate_sequence(broadband_phases(1), PI / 4)
        res = scan_2d(ax, ay, seq, PulseSpec.rectangular(PI))
        # duration fraction 1 at zero detuning is the ideal gate
        assert res.values[2, 2] < 1e-12
        assert res.values.shape == (5, 5)

    def test_transposing_axes_transposes_values(self):
        ax = SweepAxis("duration_fraction", 0.1, 2.0, 7)
        ay = SweepAxis("detuning_times_T", -1.5, 1.5, 9)
        seq = make_phase_gate_sequence(universal_phases("U3"), PI / 4)
        t = PulseSpec.rectangular(PI)
        r = scan_2d(ax, ay, seq, t)
        rt = scan_2d(ay, ax, seq, t)
        assert np.array_equal(r.values, rt.values.T)

    def test_universal_pair_beats_single_pair(self):
        ax = SweepAxis("duration_fraction", 0.0, 2.0, 41)
        ay = SweepAxis("detuning_times_T", -2.0, 2.0, 41)
        t = PulseSpec.rectangular(PI)
        single = scan_2d(ax, ay, make_phase_gate_sequence(broadband_phases(1), PI / 4), t)
        u5a = scan_2d(ax, ay, make_phase_gate_sequence(universal_phases("U5a"), PI / 4), t)
        assert (u5a.values < 0.01).mean() > (single.values < 0.01).mean()

    def test_rejects_duplicate_parameters(self):
        ax = SweepAxis("detuning_times_T", -1.0, 1.0, 5)
        with pytest.raises(ValueError, match="distinct"):
            scan_2d(ax, ax, bb_gate(1), PulseSpec.rectangular(PI))

    def test_rejects_too_many_points(self):
        # each axis is within its own cap, their product is not
        ax = SweepAxis("duration_fraction", 0.5, 1.5, 4000)
        ay = SweepAxis("detuning_times_T", -1.0, 1.0, 4000)
        with pytest.raises(ValueError, match="at most 10000000 points"):
            scan_2d(ax, ay, bb_gate(1), PulseSpec.rectangular(PI))

    def test_rejects_two_rabi_controls(self):
        ax = SweepAxis("pulse_area_fraction", 0.5, 1.5, 5)
        ay = SweepAxis("peak_rabi_times_T", 0.5, 1.5, 5)
        with pytest.raises(ValueError, match="peak Rabi"):
            scan_2d(ax, ay, bb_gate(1), PulseSpec.rectangular(PI))


class TestBlockKernel:
    """A scan folds its grid in blocks of scan._BLOCK points."""

    def test_block_stays_below_numpys_temporary_threshold(self):
        # numpy reuses the temporaries of arrays of 256 KiB and more, 16,384
        # complex points, and that takes other loops, which may round the
        # last bit differently; below it every block takes the same loops
        assert scan._BLOCK < 16384

    def test_point_bits_do_not_depend_on_the_scan_size(self):
        # 20,000 points: past numpy's threshold and across three blocks.
        # linspace hits its endpoints exactly, so rows 0 and -1 of the large
        # map and the two rows of the small one share their coordinates
        ay = SweepAxis("duration_fraction", 0.6, 1.4, 100)
        seq, template = bb_gate(25), PulseSpec.rectangular(PI)
        large = scan_2d(SweepAxis("pulse_area_fraction", 0.5, 1.5, 200), ay,
                        seq, template)
        small = scan_2d(SweepAxis("pulse_area_fraction", 0.5, 1.5, 2), ay,
                        seq, template)
        assert np.array_equal(large.values[[0, -1]], small.values)
        # a detuned rect pulse has a and b fully complex, as in fig4's U5a map
        seq = make_phase_gate_sequence(universal_phases("U5a"), PI / 4)
        ay = SweepAxis("detuning_times_T", -2.0, 2.0, 100)
        large = scan_2d(SweepAxis("duration_fraction", 0.5, 1.5, 200), ay,
                        seq, template)
        small = scan_2d(SweepAxis("duration_fraction", 0.5, 1.5, 2), ay,
                        seq, template)
        assert np.array_equal(large.values[[0, -1]], small.values)
        # a curve whose two points on each side of a block edge are the
        # endpoints of a two-point curve, where they sit in its first block
        axis = SweepAxis("detuning_times_T", -2.0, 2.0, 20_000)
        large = scan_1d(axis, seq, template)
        x = axis.grid()
        for edge in (scan._BLOCK, 2 * scan._BLOCK):
            small = scan_1d(SweepAxis("detuning_times_T", x[edge - 1], x[edge], 2),
                            seq, template)
            assert np.array_equal(large.values[edge - 1:edge + 1], small.values)

    def test_memory_is_bounded_by_the_block(self):
        ax = SweepAxis("pulse_area_fraction", 0.5, 1.5, 400)
        ay = SweepAxis("duration_fraction", 0.6, 1.4, 400)
        tracemalloc.start()
        try:
            res = scan_2d(ax, ay, bb_gate(25), PulseSpec.rectangular(PI))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # bound: 4x the values.  Beside the values a scan holds its axis
        # grids and one block, whose parameters and infidelity are a fixed
        # amount: 2.24x measured in closed form, 2.44x when this resonant
        # map was folded.  Full-grid parameter arrays measured
        # 7.2x, and a fold over the whole grid at once 21.0x.
        assert peak < 4 * res.values.nbytes


class TestErrorOrder:
    def test_single_pulse_area_slope_is_linear(self):
        slope = error_order(broadband_phases(1), "area")
        assert slope == pytest.approx(1.0, abs=0.1)

    def test_three_pulse_amplitude_suppression(self):
        # surviving amplitude scales as eps^3, so |a|^2 scales as eps^6
        slope = error_order(broadband_phases(3), "area")
        assert 2.0 * slope == pytest.approx(6.0, abs=0.3)

    def test_gate_inherits_constituent_order(self):
        slope = error_order(bb_gate(3), "area")
        assert slope >= 3.0 - 0.3

    def test_detuning_direction(self):
        slope = error_order(make_phase_gate_sequence(detuning_phases("n3"), 0.0),
                            "detuning")
        assert slope > 1.5

    def test_random_direction_requires_seed(self):
        with pytest.raises(ValueError, match="seed"):
            error_order(bb_gate(3), "random_direction")

    def test_unknown_perturbation(self):
        with pytest.raises(ValueError, match="perturbation"):
            error_order(bb_gate(3), "phase_noise")

    def test_noise_floor_error(self):
        # far below the floor every sample is numerical noise
        with pytest.raises(ValueError, match="eps range"):
            error_order(broadband_phases(9), "area", eps_range=(1e-8, 1e-7))

    def test_seeded_direction_reproducible(self):
        s1 = error_order(bb_gate(3), "random_direction", seed=5)
        s2 = error_order(bb_gate(3), "random_direction", seed=5)
        assert s1 == s2

    def test_three_pulse_universal_gate_responds_first_order(self):
        # a three-pulse sequence has one free phase, one short of what
        # cancelling both first-order coefficients (delta a, conj(delta a))
        # takes, so its gate error is genuinely first order; the five-pulse
        # universal set reaches third order
        seq3 = make_phase_gate_sequence(universal_phases("U3"), PI / 2)
        seq5 = make_phase_gate_sequence(universal_phases("U5a"), PI / 2)
        assert error_order(seq3, "random_direction", seed=1) == pytest.approx(1.0, abs=0.15)
        assert error_order(seq5, "random_direction", seed=1) == pytest.approx(3.0, abs=0.3)

    def test_gate_slope_never_below_constituent_slope(self):
        # robustness order transfers from the inversion sequence to the gate
        cases = [
            (detuning_phases("n3"), "detuning", None),
            (detuning_phases("n5"), "detuning", None),
            (universal_phases("U5a"), "random_direction", 3),
        ]
        for cp, pert, seed in cases:
            seq = make_phase_gate_sequence(cp, PI / 2)
            cp_slope = error_order(cp, pert, seed=seed)
            gate_slope = error_order(seq, pert, seed=seed)
            assert gate_slope >= cp_slope - 0.2


class TestBandwidth:
    def _result(self, values, start=0.0, stop=1.0):
        values = np.asarray(values, dtype=float)
        axis = SweepAxis("pulse_area_fraction", start, stop, values.size)
        return ScanResult(axes=(axis,), values=values)

    def test_no_sample_below_threshold(self):
        assert high_fidelity_bandwidth(self._result([1, 1, 1, 1, 1]), 0.5) == 0.0

    def test_single_point_counts_one_grid_spacing(self):
        res = self._result([1, 1, 0, 1, 1])
        assert high_fidelity_bandwidth(res, 0.5) == pytest.approx(0.25)

    def test_longest_run_wins(self):
        res = self._result([0, 1, 0, 0, 0, 1, 0, 0, 1])
        # runs of cell-width sums: 1, 3, 2 cells at spacing 1/8
        assert high_fidelity_bandwidth(res, 0.5) == pytest.approx(3.0 / 8.0)

    def test_rejects_2d(self):
        ax = SweepAxis("duration_fraction", 0.0, 1.0, 2)
        ay = SweepAxis("detuning_times_T", 0.0, 1.0, 2)
        res = ScanResult(axes=(ax, ay), values=np.zeros((2, 2)))
        with pytest.raises(ValueError, match="1D"):
            high_fidelity_bandwidth(res, 0.5)

    def test_cell_widths_are_the_grid_gradient_bit_for_bit(self, monkeypatch):
        # the half-distances the widths were once computed as, against
        # np.gradient's, through the bandwidth of every run of seeded values
        def cell_widths(x):
            w = np.empty_like(x)
            w[1:-1] = 0.5 * (x[2:] - x[:-2])
            w[0], w[-1] = x[1] - x[0], x[-1] - x[-2]
            return w

        rng, grid_of = np.random.default_rng(23), SweepAxis.grid
        for n in [2, 3, 12_345, *rng.integers(2, 12_346, 147).tolist()]:
            start = rng.uniform(1e-3, 2.0)
            stop = start * rng.uniform(1.001, 1e3)
            for spacing in ("linear", "log", "random"):
                axis = SweepAxis("pulse_area_fraction", start, stop, n,
                                 "linear" if spacing == "random" else spacing)
                grid = (np.sort(rng.uniform(start, stop, n)) if spacing == "random"
                        else grid_of(axis))
                monkeypatch.setattr(SweepAxis, "grid", lambda self: grid)
                values = np.cos(np.linspace(0.0, rng.uniform(1.0, 40.0), n))  # a few runs
                widths = cell_widths(grid)
                assert np.gradient(grid).tobytes() == widths.tobytes(), (n, spacing)
                below = np.flatnonzero(values < 0.5)
                runs = np.split(below, np.nonzero(np.diff(below) > 1)[0] + 1)
                want = max((float(widths[run].sum()) for run in runs if run.size), default=0.0)
                got = high_fidelity_bandwidth(ScanResult(axes=(axis,), values=values), 0.5)
                assert got == want, (n, spacing)


class TestCsvContract:
    def _scan(self):
        axis = SweepAxis("pulse_area_fraction", 0.8, 1.2, 9)
        return scan_1d(axis, bb_gate(3), PulseSpec.rectangular(PI))

    def test_header_and_row_format(self):
        buf = io.StringIO()
        write_scan_csv(self._scan(), buf, extra_header={"command": "unit-test"})
        lines = buf.getvalue().splitlines()
        assert lines[0] == "# cpgates-scan"
        assert "# command: unit-test" in lines
        assert "# family: broadband" in lines
        assert ("# axis0: parameter=pulse_area_fraction spacing=linear "
                "start=0.8 stop=1.2 samples=9") in lines
        assert "# columns: pulse_area_fraction,infidelity" in lines
        data = [ln for ln in lines if not ln.startswith("#")]
        assert len(data) == 9
        row = re.compile(r"^-?\d\.\d{11}e[+-]\d{2},-?\d\.\d{11}e[+-]\d{2}$")
        assert all(row.match(ln) for ln in data)

    def test_round_trip(self, tmp_path):
        res = self._scan()
        path = tmp_path / "scan.csv"
        save_scan_csv(res, path)
        back = read_scan_csv(path)
        assert back.axes == res.axes
        # rows carry 12 significant digits, and read back as float() reads them
        rows = [ln for ln in path.read_text().splitlines() if not ln.startswith("#")]
        want = np.array([float(ln.split(",")[-1]) for ln in rows])
        assert back.values.tobytes() == want.tobytes()
        np.testing.assert_allclose(back.values, res.values, rtol=1e-11, atol=0)
        assert back.metadata["family"] == "broadband"

    def test_rewrite_gives_the_same_bytes(self, tmp_path):
        # 16 significant digits in a bound: .12g would rebuild another grid
        ax = SweepAxis("pulse_area_fraction", 0.1234567890123456, 1.3, 7)
        ay = SweepAxis("detuning_times_T", -0.7, 0.45, 4)
        res = scan_2d(ax, ay, bb_gate(3), PulseSpec.rectangular(PI))
        first = tmp_path / "first.csv"
        save_scan_csv(res, first, extra_header={"command": "unit-test"})
        back = read_scan_csv(first)
        assert back.axes == res.axes
        assert back.axes[0].start == 0.1234567890123456
        assert "columns" not in back.metadata
        assert back.metadata["gate_phase_pi"] == "0.5"  # values come back as strings
        second = tmp_path / "second.csv"
        save_scan_csv(back, second)
        assert second.read_bytes() == first.read_bytes()

    def test_two_axis_rows(self, tmp_path):
        ax = SweepAxis("duration_fraction", 0.5, 1.5, 3)
        ay = SweepAxis("detuning_times_T", -1.0, 1.0, 4)
        res = scan_2d(ax, ay, bb_gate(1), PulseSpec.rectangular(PI))
        path = tmp_path / "map.csv"
        save_scan_csv(res, path)
        back = read_scan_csv(path)
        assert back.values.shape == (3, 4)
        np.testing.assert_allclose(back.values, res.values, rtol=1e-11, atol=1e-27)
        rows = [ln for ln in path.read_text().splitlines() if not ln.startswith("#")]
        assert len(rows) == 12
        assert all(len(ln.split(",")) == 3 for ln in rows)

    def _map_file(self, tmp_path):
        ax = SweepAxis("duration_fraction", 0.5, 1.5, 5)
        ay = SweepAxis("detuning_times_T", -1.0, 1.0, 4)
        path = tmp_path / "map.csv"
        save_scan_csv(scan_2d(ax, ay, bb_gate(3), PulseSpec.rectangular(PI)), path)
        lines = path.read_text().splitlines(keepends=True)
        header = [ln for ln in lines if ln.startswith("#")]
        return path, header, [ln for ln in lines if not ln.startswith("#")]

    def test_short_file_names_both_row_counts(self, tmp_path):
        path, header, rows = self._map_file(tmp_path)
        path.write_text("".join(header + rows[:-3]))
        with pytest.raises(ValueError, match="20 data rows of 3 fields, found 17 rows"):
            read_scan_csv(path)

    @pytest.mark.filterwarnings("error")
    def test_header_only_file_finds_no_rows(self, tmp_path):
        path, header, _ = self._map_file(tmp_path)
        path.write_text("".join(header))
        with pytest.raises(ValueError, match="20 data rows of 3 fields, found 0 rows$"):
            read_scan_csv(path)
        path.write_text("".join(header) + "\n\n")  # blank lines are no rows either
        with pytest.raises(ValueError, match="found 0 rows$"):
            read_scan_csv(path)

    @pytest.mark.parametrize("change, message", [
        # a repeated parameter
        (lambda text: text.replace("=detuning_times_T", "=duration_fraction"),
         "scan axes must address distinct parameters"),
        # a third axis over the file's 3-field rows
        (lambda text: re.sub(r"# axis1: .*\n", lambda m: m[0] + m[0].replace(
            "axis1", "axis2").replace("detuning_times_T", "peak_rabi_times_T"), text),
         "a scan has one or two axes, not 3"),
        # 10**14 points, which numpy was once asked to allocate
        (lambda text: re.sub(r"samples=\d+", "samples=10000000", text),
         "a scan holds at most 10000000 points, this one 100000000000000"),
    ], ids=["repeated", "three-axes", "too-many-points"])
    def test_axes_of_no_scan_name_the_file(self, tmp_path, change, message):
        path, header, rows = self._map_file(tmp_path)
        path.write_text(change("".join(header)) + "".join(rows))
        with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: {message}$"):
            read_scan_csv(path)

    @pytest.mark.parametrize("key", ["parameter", "spacing", "start", "stop", "samples"])
    def test_an_axis_line_without_a_key_names_it(self, tmp_path, key):
        path, header, rows = self._map_file(tmp_path)
        header = [re.sub(rf" {key}=\S+", "", ln) if ln.startswith("# axis1:") else ln
                  for ln in header]
        path.write_text("".join(header + rows))
        with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: an axis line "
                                             rf"lacks {key}=$"):
            read_scan_csv(path)

    @pytest.mark.parametrize("old, new", [
        (" spacing=linear", " spacing"),  # an item without '='
        (" start=-1", " start=x"),
        (" samples=4", " samples=1"),
        (" stop=1", " stop=-2"),  # below the start
        (" samples=4", " samples=2.5"),
    ], ids=["no-equals", "start-x", "samples-1", "stop-below-start", "samples-2.5"])
    def test_a_malformed_axis_line_names_the_file_and_line(self, tmp_path, old, new):
        path, header, rows = self._map_file(tmp_path)
        number = next(i for i, ln in enumerate(header, 1) if ln.startswith("# axis1:"))
        assert old in header[number - 1]
        header[number - 1] = header[number - 1].replace(old, new)
        path.write_text("".join(header + rows))
        with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}, line {number}: "
                                             rf"bad axis line '# axis1: .*{re.escape(new)}"):
            read_scan_csv(path)

    def test_rows_out_of_place_name_the_first(self, tmp_path):
        path, header, rows = self._map_file(tmp_path)
        rows[5], rows[7] = rows[7], rows[5]  # same x, other detunings
        path.write_text("".join(header + rows))
        with pytest.raises(ValueError, match=r"data row 6 holds coordinates "
                                             r"\(0\.75, 1\.0\), where the axes "
                                             r"put \(0\.75, -0\.333333333333\)"):
            read_scan_csv(path)
        rows[5], rows[7] = rows[7], rows[5]
        rows[3], rows[4] = rows[4], rows[3]  # the last of one x, the first of the next
        path.write_text("".join(header + rows))
        with pytest.raises(ValueError, match="data row 4 holds"):
            read_scan_csv(path)

    def _long_file(self, tmp_path, samples=9000, inner=SIGNED):
        # 3 x samples rows: over 8,192 lines, so the reader takes several blocks
        ax = SweepAxis("pulse_area_fraction", 0.5, 1.5, 3)
        ay = SweepAxis(inner[0], inner[1], inner[2], samples)
        path = tmp_path / "long.csv"
        save_scan_csv(scan_2d(ax, ay, bb_gate(1), PulseSpec.rectangular(PI)), path)
        lines = path.read_text().splitlines(keepends=True)
        header = [ln for ln in lines if ln.startswith("#")]
        return path, header, [ln for ln in lines if not ln.startswith("#")]

    @pytest.mark.filterwarnings("error")
    def test_blocks_read_what_one_parse_reads(self, tmp_path):
        path, header, rows = self._long_file(tmp_path)
        whole = np.loadtxt(path, delimiter=",", comments="#", ndmin=2)[:, -1]
        assert read_scan_csv(path).values.tobytes() == whole.tobytes()
        # blank and comment lines, also where a block of 8,192 lines ends
        for at in (26_000, 8192, 8191, 100):
            rows.insert(at, "\n# a note\n" if at % 2 else "# a note\n\n")
        path.write_text("".join(header + rows + ["# the end\n", "\n"]))
        assert read_scan_csv(path).values.tobytes() == whole.tobytes()

    @pytest.mark.filterwarnings("error")
    def test_whole_blocks_end_the_file_without_warnings(self, tmp_path):
        path, header, rows = self._long_file(tmp_path, samples=8192)
        path.write_text("".join(header + rows + ["# a note after the last block\n"]))
        assert read_scan_csv(path).values.shape == (3, 8192)
        path.write_text("".join(header + rows[:16384]))
        with pytest.raises(ValueError, match="24576 data rows of 3 fields, found 16384 rows"):
            read_scan_csv(path)

    def test_errors_in_later_blocks_name_the_whole_file(self, tmp_path):
        path, header, rows = self._long_file(tmp_path)
        # a CRLF line end in the first block sends every block to
        # numpy.loadtxt, 8,192 lines at a time from the first row
        rows[0] = rows[0].replace("\n", "\r\n")
        rows[19_999], rows[20_000] = rows[20_000], rows[19_999]  # third block
        path.write_text("".join(header + rows))
        with pytest.raises(ValueError, match=r"data row 20000 holds coordinates \(1\.5, "):
            read_scan_csv(path)
        rows[19_999], rows[20_000] = rows[20_000], rows[19_999]
        path.write_text("".join(header + rows + rows[-2:]))
        with pytest.raises(ValueError, match="27000 data rows of 3 fields, found 27002 rows of 3$"):
            read_scan_csv(path)
        cut = [ln.rsplit(",", 1)[0] + "\n" for ln in rows[16_384:]]
        path.write_text("".join(header + rows[:16_384] + cut))
        with pytest.raises(ValueError, match="found 27000 rows of 2$"):
            read_scan_csv(path)

    @pytest.mark.parametrize("inner", [SIGNED, POSITIVE])
    def test_numpy_errors_name_the_file_row(self, tmp_path, inner):
        path, header, rows = self._long_file(tmp_path, inner=inner)
        cut = rows[20_000].rsplit(",", 1)[0]  # data row 20,001, in the third block
        # the last three have the width of a canonical line
        for bad, message in ((cut + "\n", "from 3 to 2 at row 20001;"),
                             (cut + ",x\n", "'x' to float64 at row 20000, column 3"),
                             (cut + ",1.00000000000e+0x\n", "'1.00000000000e\\+0x' to float64 "
                                                          "at row 20000, column 3"),
                             (cut + ",1.00000000000e,05\n", "from 3 to 4 at row 20001;"),
                             (cut + ";1.00000000000e-05\n", "from 3 to 2 at row 20001;")):
            path.write_text("".join(header + rows[:20_000] + [bad] + rows[20_001:]))
            with pytest.raises(ValueError, match=message) as whole:
                np.loadtxt(path, delimiter=",", comments="#", ndmin=2)
            with pytest.raises(ValueError) as blocks:
                read_scan_csv(path)
            assert str(blocks.value) == str(whole.value)

    def test_canonical_files_never_reach_loadtxt(self, tmp_path, monkeypatch):
        rng = np.random.default_rng(16)
        # every two-digit exponent, and zeros, in a map of positive axes
        values = 10.0 ** rng.uniform(-99.0, 99.99, (25, 8000))
        values.flat[rng.choice(values.size, 100, replace=False)] = 0.0
        # and a row from 1e-40 to 1e-34, below the range parsed exactly, which
        # numpy's cast reads
        values = np.vstack([values, 10.0 ** rng.uniform(-40.0, -34.0, (1, 8000))])
        names = ("pulse_area_fraction", "duration_fraction")
        axes = (SweepAxis(names[0], 0.5, 1.5, 26), SweepAxis(names[1], 0.6, 1.4, 8000))
        save_scan_csv(ScanResult(axes=axes, values=values), tmp_path / "random.csv")
        self._long_file(tmp_path, inner=POSITIVE)
        save_scan_csv(scan_1d(SweepAxis("pulse_area_fraction", 0.0, 2.0, 20_000), bb_gate(5),
                              PulseSpec.rectangular(PI)), tmp_path / "curve.csv")
        # coordinates at a rounding tie, which take Python's own format
        tie = tuple(SweepAxis(name, 1.000000000005, 2.0, 3) for name in names)
        save_scan_csv(ScanResult(axes=tie, values=values[:3, :3]), tmp_path / "tie.csv")
        paths = [tmp_path / name for name in ("random.csv", "long.csv", "curve.csv", "tie.csv")]
        whole = [np.loadtxt(path, delimiter=",", comments="#", ndmin=2)[:, -1] for path in paths]

        def refuse(*args, **kwargs):
            raise AssertionError("a canonical block went to numpy.loadtxt")

        monkeypatch.setattr(np, "loadtxt", refuse)
        for path, want in zip(paths, whole):
            assert read_scan_csv(path).values.tobytes() == want.tobytes(), path.name

    @staticmethod
    def _signed_layout(case):
        if case in ("fig3", "fig4"):  # a preset's axes
            axes = preset_jobs(case)[0].axes
        else:
            axes = {
                "signed-outer": (SweepAxis("detuning_times_T", -2.0, 2.0, 41),
                                 SweepAxis(*POSITIVE, 300)),
                # coordinates from 1e-120, with three exponent digits below 1e-99
                "three-exponent-digits": (
                    SweepAxis("pulse_area_fraction", 1e-120, 1e-80, 30, "log"),
                    SweepAxis("duration_fraction", 1e-120, 1.0, 300, "log")),
                "curve-across-zero": (SweepAxis(*SIGNED, 20_001),),
                # rows of 9,000 points, each over two blocks
                "signed-rows-across-blocks": (SweepAxis("pulse_area_fraction", 0.5, 1.5, 3),
                                              SweepAxis(*SIGNED, 9000)),
            }[case]
        rng = np.random.default_rng(24)
        values = 10.0 ** rng.uniform(-99.0, 99.99, tuple(ax.samples for ax in axes))
        return ScanResult(axes=axes, values=values)

    @pytest.mark.parametrize("case, rectangles", [
        pytest.param(case, n, id=case) for case, n in (
            ("signed-outer", 2), ("three-exponent-digits", 4), ("curve-across-zero", 2),
            ("signed-rows-across-blocks", 2), ("fig3", 2), ("fig4", 2))])
    def test_signed_layouts_read_as_bytes(self, tmp_path, monkeypatch, case, rectangles):
        result = self._signed_layout(case)
        # the most rectangles in a block: a run of lines of each length
        assert max(len(rects) for *_, rects in scan._blocks(result.axes)) == rectangles
        path = tmp_path / "signed.csv"
        save_scan_csv(result, path)
        assert path.read_bytes().split(b"infidelity\n", 1)[1] == reference_rows(result).encode()
        whole = np.loadtxt(path, delimiter=",", comments="#", ndmin=2)[:, -1]

        def refuse(*args, **kwargs):
            raise AssertionError("a block of a signed layout went to numpy.loadtxt")

        monkeypatch.setattr(np, "loadtxt", refuse)
        assert read_scan_csv(path).values.ravel().tobytes() == whole.tobytes()

    @pytest.mark.parametrize("byte", [".", "/"])  # one and two above "-"
    def test_a_flipped_sign_leaves_the_byte_path(self, tmp_path, monkeypatch, byte):
        path = tmp_path / "signed.csv"
        save_scan_csv(self._signed_layout("signed-outer"), path)
        lines = path.read_text().splitlines(keepends=True)
        at = next(i for i, ln in enumerate(lines) if not ln.startswith("#")) + 100
        assert lines[at].startswith("-")  # x, negative, in the first block
        lines[at] = byte + lines[at][1:]
        path.write_text("".join(lines))
        with pytest.raises(ValueError) as whole:
            np.loadtxt(path, delimiter=",", comments="#", ndmin=2)
        loadtxt, calls = np.loadtxt, []
        monkeypatch.setattr(np, "loadtxt", lambda *a, **k: calls.append(1) or loadtxt(*a, **k))
        with pytest.raises(ValueError) as got:
            read_scan_csv(path)
        assert str(got.value) == str(whole.value) and calls

    def test_value_digits_read_as_numpys_cast(self, tmp_path, monkeypatch):
        rng = np.random.default_rng(22)
        # fields M * 10**(e - 11): every two-digit exponent, those of the
        # double-double (-99..-12 and 34..99) and Clinger's, and zero
        exponents = np.arange(-99, 100)
        e = rng.choice(exponents, 1_000_000)
        mantissa = rng.integers(10**11, 10**12, e.size)
        for i, k in enumerate(exponents):
            e[3 * i:3 * i + 3] = k
            mantissa[3 * i:3 * i + 2] = 10**11, 10**12 - 1  # 1.00000000000, 9.99999999999
        e[-1] = mantissa[-1] = 0
        # M * 10**23 lies on a rounding tie where M is a power of two, as
        # 5**23 takes 54 bits: numpy's cast reads these
        e[-4:-1], mantissa[-4:-1] = 34, [2**37, 2**38, 2**39]
        # fields whose value lies past the neighbour of their quotient rounded
        # twice, as an earlier parse took it, found by exact arithmetic, and
        # the 12-digit fields nearest a power of two
        past = fields_past_the_neighbour(np.random.default_rng(23), 40_000)
        assert len(past) == 390
        nearest = fields_nearest_powers_of_two()
        assert len(nearest) == 1752 and min(gaps for gaps, _, _ in nearest) > 67
        constructed = past + [(m, k) for _, m, k in nearest if m >= 10**11]
        mantissa[-4 - len(constructed):-4], e[-4 - len(constructed):-4] = zip(*constructed)
        fields = np.zeros((e.size, 17), np.uint8)
        fields[:, [1, 13]] = ord("."), ord("e")
        fields[:, 14] = np.where(e < 0, ord("-"), ord("+"))
        fields[:, 15], fields[:, 16] = np.abs(e) // 10 + ord("0"), np.abs(e) % 10 + ord("0")
        for column in (12, 11, 10, 9, 8, 7, 6, 5, 4, 3, 2, 0):
            mantissa, fields[:, column] = np.divmod(mantissa, 10)
            fields[:, column] += ord("0")
        assert fields[-1].tobytes() == b"0.00000000000e+00"
        want = fields.view("S17")[:, 0].astype(float)  # numpy's cast
        axes = (SweepAxis("pulse_area_fraction", 0.5, 1.5, 125),
                SweepAxis("duration_fraction", 0.6, 1.4, 8000))
        path = tmp_path / "fields.csv"
        save_scan_csv(ScanResult(axes=axes, values=want.reshape(125, 8000)), path)
        rows = path.read_bytes().split(b"infidelity\n", 1)[1]
        assert (np.frombuffer(rows, np.uint8).reshape(-1, 54)[:, 36:53] == fields).all()

        def refuse(*args, **kwargs):
            raise AssertionError("a canonical block went to numpy.loadtxt")

        monkeypatch.setattr(np, "loadtxt", refuse)
        assert read_scan_csv(path).values.ravel().tobytes() == want.tobytes()

    @pytest.mark.filterwarnings("error")
    def test_an_odd_block_reads_what_one_parse_reads(self, tmp_path):
        path, header, rows = self._long_file(tmp_path, inner=POSITIVE)
        # in the second block: a value in another spelling, a CRLF line end
        # and a comment line
        rows[10_000] = rows[10_000].rsplit(",", 1)[0] + ",1.5e-3\n"
        rows[10_001] = rows[10_001].replace("\n", "\r\n")
        rows.insert(10_002, "# a note\n")
        path.write_bytes("".join(header + rows).encode())
        whole = np.loadtxt(path, delimiter=",", comments="#", ndmin=2)[:, -1]
        back = read_scan_csv(path).values
        assert back.tobytes() == whole.tobytes()
        assert back.flat[10_000] == 1.5e-3

    def test_a_changed_coordinate_digit_names_its_row(self, tmp_path):
        path, header, rows = self._long_file(tmp_path, inner=POSITIVE)
        line = rows[4_999]  # "x,y,F": the first decimal of y sits at 20
        rows[4_999] = line[:20] + str((int(line[20]) + 1) % 10) + line[21:]
        path.write_text("".join(header + rows))
        with pytest.raises(ValueError, match=r"data row 5000 holds coordinates \(0\.5, .*\), "
                                             r"where the axes put \(0\.5, "):
            read_scan_csv(path)

    @pytest.mark.parametrize("column, byte", [
        (20, "4"),  # a coordinate digit
        (17, ";"),  # a separator
        (40, ":"),  # a value digit, one above "9"
        (40, "/"),  # and one below "0"
        (50, ","),  # the exponent sign, between "+" and "-"
        (53, "\r"),  # the line end
    ], ids=["coordinate", "separator", "digit-above", "digit-below", "exponent-sign", "cr"])
    def test_a_flipped_byte_leaves_the_byte_path(self, tmp_path, monkeypatch, column, byte):
        path, header, rows = self._long_file(tmp_path, inner=POSITIVE)
        line = rows[10_000]  # in the second block: x,y,F with F at 36-52
        assert line[column] != byte and re.fullmatch(r"(\d\.\d{11}e[+-]\d\d,){2}"
                                                      r"\d\.\d{11}e-\d\d\n", line)
        rows[10_000] = line[:column] + byte + line[column + 1:]
        path.write_bytes("".join(header + rows).encode())
        try:
            whole, message = np.loadtxt(path, delimiter=",", comments="#", ndmin=2), None
        except ValueError as err:
            whole, message = None, str(err)
        loadtxt, calls = np.loadtxt, []
        monkeypatch.setattr(np, "loadtxt", lambda *a, **k: calls.append(1) or loadtxt(*a, **k))
        if column == 20:
            with pytest.raises(ValueError, match=r"data row 10001 holds coordinates"):
                read_scan_csv(path)
        elif message is not None:
            with pytest.raises(ValueError) as got:
                read_scan_csv(path)
            assert str(got.value) == message
        else:
            assert read_scan_csv(path).values.tobytes() == whole[:, -1].tobytes()
        assert calls

    @staticmethod
    def _long_lines_result(shape):
        # values below 1e-99, with three exponent digits, in four of the six
        # blocks of a 3 x 9,000 map: at a block's first and last line, two
        # and three in a row, a subnormal, the smallest normal, zeros, and
        # the file's last line; a curve's blocks get the same indices
        rng = np.random.default_rng(27)
        values = 10.0 ** rng.uniform(-99.0, 0.0, shape)
        flat = values.reshape(-1)
        for at, value in {0: 1e-100, 1: 3.5e-150, 8191: 2.2250738585072014e-308,
                          8192: 9.99999999999e-100, 9500: 5e-324, 9501: 1e-300, 9502: 0.0,
                          9503: 4.2e-250, 20_000: 0.0, 26_999: 1.5e-200}.items():
            flat[at] = value
        names = ("pulse_area_fraction", "duration_fraction")
        axes = tuple(SweepAxis(name, 0.5, 1.5, n) for name, n in zip(names[-len(shape):], shape))
        return ScanResult(axes=axes, values=values)

    @pytest.mark.parametrize("shape", [(3, 9000), (27_000,)], ids=["map", "curve"])
    def test_three_exponent_digits_read_as_bytes(self, tmp_path, monkeypatch, shape):
        result = self._long_lines_result(shape)
        path = tmp_path / "tiny.csv"
        save_scan_csv(result, path)
        assert path.read_bytes().split(b"infidelity\n", 1)[1] == reference_rows(result).encode()
        whole = np.loadtxt(path, delimiter=",", comments="#", ndmin=2)[:, -1]

        def refuse(*args, **kwargs):
            raise AssertionError("a block with three exponent digits went to numpy.loadtxt")

        monkeypatch.setattr(np, "loadtxt", refuse)
        back = read_scan_csv(path).values.ravel()
        assert back.tobytes() == whole.tobytes()
        assert back[9500] == 5e-324 and back[20_000] == 0.0

    def test_more_long_lines_than_a_block_shifts_read_numpys_bits(self, tmp_path):
        result = self._long_lines_result((3, 9000))
        result.values[1, 100:100 + scan._SLACK + 1] = 1e-150  # in the third block
        path = tmp_path / "tiny.csv"
        save_scan_csv(result, path)
        whole = np.loadtxt(path, delimiter=",", comments="#", ndmin=2)[:, -1]
        assert read_scan_csv(path).values.ravel().tobytes() == whole.tobytes()

    @pytest.mark.parametrize("column, byte", [(-4, ":"), (-3, "/"), (-2, "\r"), (-5, ",")],
                             ids=["hundreds", "tens", "cr", "exponent-sign"])
    def test_a_flipped_byte_in_a_long_line_reads_what_numpy_reads(self, tmp_path, column, byte):
        path = tmp_path / "tiny.csv"
        save_scan_csv(self._long_lines_result((3, 9000)), path)
        lines = path.read_bytes().decode().splitlines(keepends=True)
        at = next(i for i, ln in enumerate(lines) if not ln.startswith("#")) + 9503
        assert lines[at].endswith("4.20000000000e-250\n")
        lines[at] = lines[at][:column] + byte + lines[at][column + 1:]
        path.write_bytes("".join(lines).encode())
        try:
            whole, message = np.loadtxt(path, delimiter=",", comments="#", ndmin=2), None
        except ValueError as err:
            whole, message = None, str(err)
        if message is None:
            assert read_scan_csv(path).values.tobytes() == whole[:, -1].tobytes()
        else:
            with pytest.raises(ValueError) as got:
                read_scan_csv(path)
            assert str(got.value) == message

    @pytest.mark.parametrize("inner", [SIGNED, POSITIVE])
    def test_crlf_and_cr_line_ends_read_the_same_bits(self, tmp_path, inner):
        path, header, rows = self._long_file(tmp_path, inner=inner)
        want = read_scan_csv(path).values
        for end in ("\r\n", "\r"):
            path.write_bytes("".join(header + rows).replace("\n", end).encode())
            assert read_scan_csv(path).values.tobytes() == want.tobytes(), repr(end)

    def test_read_memory_is_bounded_by_the_block(self, tmp_path):
        rect = PulseSpec.rectangular(PI)
        # bounds, in multiples of the values.  Beside the values a read holds
        # one block of at most 8,192 lines as bytes, its template and its
        # checks: 1.89x measured on the map (1.91x when a block's mantissas
        # were summed in int64, 1.44x when numpy parsed every block; parsing
        # the whole file at once measured 4.1x).  A long curve also holds its
        # axis grid: 2.76x measured on the positive curve and 2.77x on the
        # signed one, read as bytes too (2.86x when the reader held the
        # previous block's coordinate codes while it spelled the next, 4.69x
        # when it kept every coordinate's 17-byte text, 3.66x when numpy
        # parsed the signed curve and its whole axis was read back)
        cases = [
            (scan_2d(SweepAxis("pulse_area_fraction", 0.5, 1.5, 400),
                     SweepAxis(*POSITIVE, 400), bb_gate(25), rect), 2),
            (scan_1d(SweepAxis(*POSITIVE, 200_000), bb_gate(1), rect), 3),
            (scan_1d(SweepAxis(*SIGNED, 200_000), bb_gate(1), rect), 3),
        ]
        path = tmp_path / "scan.csv"
        for result, bound in cases:
            save_scan_csv(result, path)
            tracemalloc.start()
            try:
                back = read_scan_csv(path)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < bound * back.values.nbytes, (back.values.shape, peak)

    def test_write_is_reproducible(self):
        b1, b2 = io.StringIO(), io.StringIO()
        write_scan_csv(self._scan(), b1)
        write_scan_csv(self._scan(), b2)
        assert b1.getvalue() == b2.getvalue()


def reference_rows(result):
    """Data rows from the per-point loop the block writer replaced."""
    out = io.StringIO()
    grids = [ax.grid() for ax in result.axes]
    if len(grids) == 1:
        for x, v in zip(grids[0], result.values):
            out.write(f"{x:.11e},{v:.11e}\n")
    else:
        for i, x in enumerate(grids[0]):
            row = result.values[i]
            for y, v in zip(grids[1], row):
                out.write(f"{x:.11e},{y:.11e},{v:.11e}\n")
    return out.getvalue()


def first_mismatch(result):
    """(index, written, reference) of the first row that differs, else None."""
    buf = io.StringIO()
    write_scan_csv(result, buf)
    written = [ln for ln in buf.getvalue().splitlines() if not ln.startswith("#")]
    pairs = itertools.zip_longest(written, reference_rows(result).splitlines())
    return next(((i, *pair) for i, pair in enumerate(pairs) if pair[0] != pair[1]), None)


def fields_past_the_neighbour(rng, n):
    """(M, e) of the fields M * 10**(e - 11), among n random ones rounded
    twice, whose value lies past the neighbour of q = M / 1e22 / 10**(-11 - e)
    on its side: q is more than one gap from the value."""
    found = []
    for m, k in zip(rng.integers(10**11, 10**12, n).tolist(), rng.integers(-33, -11, n).tolist()):
        q = m / 1e22 / float(10 ** (-11 - k))
        exact = Fraction(m, 10 ** (11 - k))
        near = math.nextafter(q, math.inf if exact > q else 0.0)
        if (exact > near) if near > q else (exact < near):
            found.append((m, k))
    return found


def fields_nearest_powers_of_two():
    """(distance in gaps above 2**p, M, e) of the fields M * 10**(e - 11),
    0 < M < 10**12, nearest 2**p for every e rounded twice and every p."""
    nearest = []
    for k in range(-33, -11):
        scale = 10 ** (11 - k)
        for p in range(-200, 0):
            two = Fraction(2) ** p
            if not 1 <= two * scale < 10**12:
                continue
            for m in (math.floor(two * scale), math.ceil(two * scale)):
                if m < 10**12:
                    nearest.append((float(abs(Fraction(m, scale) - two) / two * 2**52), m, k))
    return nearest


EDGE_VALUES = [0.0, -0.0, 5e-324, 1e-300, 1e300]
BLOCK = scan._BLOCK


@st.composite
def hand_built_axis(draw, parameter):
    spacing = draw(st.sampled_from(["linear", "log"]))
    bounds = (st.floats(-1e300, 1e300) if spacing == "linear"
              else st.floats(5e-324, 1e300))
    start, stop = sorted(draw(st.lists(bounds, min_size=2, max_size=2, unique=True)))
    return SweepAxis(parameter, start, stop, draw(st.integers(2, 30)), spacing)


@st.composite
def hand_built_result(draw):
    names = ["pulse_area_fraction", "detuning_times_T"][:draw(st.integers(1, 2))]
    axes = tuple(draw(hand_built_axis(name)) for name in names)
    element = st.one_of(st.sampled_from(EDGE_VALUES), st.floats(width=64))
    values = draw(arrays(np.float64, tuple(ax.samples for ax in axes), elements=element))
    return ScanResult(axes=axes, values=values)


class TestBlockWriter:
    @settings(derandomize=True, database=None, deadline=None, max_examples=60)
    @given(hand_built_result())
    def test_rows_match_the_per_point_loop(self, result):
        assert first_mismatch(result) is None

    @settings(derandomize=True, database=None, deadline=None, max_examples=60)
    @given(hand_built_result())
    def test_save_and_read_give_the_bytes_and_bits_of_one_parse(self, result):
        text = io.StringIO()
        write_scan_csv(result, text)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "scan.csv"
            save_scan_csv(result, path)
            assert path.read_bytes() == text.getvalue().encode()
            whole = np.loadtxt(path, delimiter=",", comments="#", ndmin=2)[:, -1]
            assert read_scan_csv(path).values.ravel().tobytes() == whole.tobytes()

    @pytest.mark.parametrize("shape", [(BLOCK - 1,), (BLOCK,), (BLOCK + 1,),
                                       (2, BLOCK - 1), (2, BLOCK), (3, BLOCK + 1),
                                       (2, 2 * BLOCK + 1), (BLOCK - 1, 2),
                                       (BLOCK, 2), (BLOCK + 1, 2)])
    @pytest.mark.parametrize("spacing", ["linear", "log"])
    def test_rows_match_around_the_block_size(self, shape, spacing):
        rng = np.random.default_rng(sum(shape))
        values = rng.choice([-1.0, 1.0], shape) * 10.0 ** rng.uniform(-300, 300, shape)
        values.flat[rng.choice(values.size, len(EDGE_VALUES), replace=False)] = EDGE_VALUES
        names = ["pulse_area_fraction", "detuning_times_T"]
        axes = tuple(SweepAxis(name, 1e-3, 2.0, n, spacing) for name, n in zip(names, shape))
        result = ScanResult(axes=axes, values=values)
        assert first_mismatch(result) is None

    @staticmethod
    def _template_case(case):
        rng = np.random.default_rng(23)
        names = ("pulse_area_fraction", "duration_fraction")
        shape = (3, 9000) if case == "map" else (20_000,)
        values = 10.0 ** rng.uniform(-99.0, 99.99, shape)
        taken = 6 if case == "map" else 3  # blocks of the template, of 6 or 3
        if case == "edges":  # 1e-100 and below keep their block on the template
            values[[0, 1, 9000, 9001, 9002, 19_000]] = 0.0, 1e-99, 9.99999999999e-100, 1e-100, 0.0, 1e-99
        elif case == "ties":  # rounding ties, which take Python's format
            values[::7] = [float(f"{d}5e{k - 12}") for d, k in zip(
                rng.integers(10**11, 10**12, values[::7].size).tolist(),
                rng.integers(-99, 100, values[::7].size).tolist())]
        elif case in ("nan", "negative"):
            values[[100, 17_000]] = (np.nan, np.inf) if case == "nan" else (-1e-5, -0.0)
            taken = 1
        axes = tuple(SweepAxis(name, 0.5, 1.5, n) for name, n in zip(names, shape))
        return ScanResult(axes=axes, values=values), taken

    @pytest.mark.parametrize("case", ["curve", "map", "edges", "ties", "nan", "negative"])
    def test_the_template_writes_the_padded_bytes(self, monkeypatch, case):
        # the path every block is forced onto below, which writes a block
        # with a value off the template, is Python's "%.11e" of each point;
        # it replaced the NUL-padded writer the test is named after
        result, taken = self._template_case(case)
        spell, spelled = scan._format_e11, []

        def spy(values, text=None):
            out = spell(values, text)
            if text is not None:
                spelled.append(out is not None)
            return out

        monkeypatch.setattr(scan, "_format_e11", spy)
        written = b"".join(bytes(chunk) for chunk in scan._csv_bytes(result, None))
        assert sum(spelled) == taken
        monkeypatch.setattr(scan, "_format_e11",
                            lambda values, text=None: None if text is not None else spell(values))
        assert b"".join(bytes(chunk) for chunk in scan._csv_bytes(result, None)) == written
        assert written.split(b"infidelity\n", 1)[1] == reference_rows(result).encode()

    @pytest.mark.parametrize("value", [1e-120, -0.5])
    def test_a_value_off_the_layout_writes_pythons_text(self, tmp_path, monkeypatch, value):
        # a signed outer axis; a result's axes address distinct parameters.
        # A sign takes its block off the layout, to the per-point text and
        # numpy.loadtxt; a third exponent digit is spliced into the template
        # and read as bytes
        axes = (SweepAxis("duration_fraction", -1.0, 1.0, 3), SweepAxis(*SIGNED, 9000))
        values = 10.0 ** np.random.default_rng(25).uniform(-99.0, 99.99, (3, 9000))
        values[1, 100] = value  # in the third of six blocks
        result = ScanResult(axes=axes, values=values)
        spell, spelled = scan._format_e11, []

        def spy(values, text=None):
            out = spell(values, text)
            if text is not None:
                spelled.append(out is not None)
            return out

        monkeypatch.setattr(scan, "_format_e11", spy)
        path = tmp_path / "off.csv"
        save_scan_csv(result, path)
        off = value < 0
        assert spelled == [True, True, not off, True, True, True]
        assert path.read_bytes().split(b"infidelity\n", 1)[1] == reference_rows(result).encode()
        whole = np.loadtxt(path, delimiter=",", comments="#", ndmin=2)[:, -1]
        loadtxt, calls = np.loadtxt, []
        monkeypatch.setattr(np, "loadtxt", lambda *a, **k: calls.append(1) or loadtxt(*a, **k))
        assert read_scan_csv(path).values.ravel().tobytes() == whole.tobytes()
        assert bool(calls) == off

    def test_memory_stays_far_below_the_bytes_written(self):
        class Discard:
            written = 0

            def write(self, text):
                self.written += len(text)

        n = 200_000
        result = ScanResult(axes=(SweepAxis("detuning_times_T", -3.0, 3.0, n),),
                            values=np.linspace(0.0, 1.0, n))
        sink = Discard()
        tracemalloc.start()
        try:
            write_scan_csv(result, sink)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # bound: half the bytes written.  The axis grid the writer builds
        # takes 8 of the 36.5 bytes per line and one block of text about as
        # much again; a writer that joined every row would hold them all.
        assert sink.written > 7_000_000
        assert peak < sink.written / 2


class TestFormatter:
    """scan._format_e11 against Python's %.11e, where rounding is hardest."""

    def test_matches_python_on_the_guard_band_and_edges(self):
        rng = np.random.default_rng(13)
        # d.ddddddddddd5e+-k: halfway between two 12-digit mantissas
        ties = np.array([float(f"{d}5e{k - 12}") for d, k in
                         zip(rng.integers(10**11, 10**12, 100_000).tolist(),
                             rng.integers(-99, 100, 100_000).tolist())])
        carries = np.array([float(f"9.999999999995e{k}") for k in range(-99, 100)])
        near = np.concatenate([ties, -ties, carries])
        edges = [1e-99, 9.999999999995e-100, 1e-100, 9.99999999999996e99, 1e100,
                 0.0, -0.0, 5e-324, -5e-324, math.inf, -math.inf, math.nan]
        values = np.concatenate([
            near, np.nextafter(near, math.inf), np.nextafter(near, -math.inf),
            # every exponent, subnormals, infinities and NaNs
            rng.integers(0, 2**64, 300_000, dtype=np.uint64).view(np.float64),
            rng.choice([-1.0, 1.0], 100_000) * 10.0 ** rng.uniform(-101, 101, 100_000),
            edges,
        ])
        assert values.size >= 1_000_000
        for lo in range(0, values.size, BLOCK):
            block = values[lo:lo + BLOCK]
            codes = scan._format_e11(block)
            written = [t.replace(b"\0", b"") for t in codes.view("S19")[:, 0].tolist()]
            assert written == [b"%.11e" % v for v in block.tolist()]
            # an unsigned text's first digit at column 1, Python's texts too
            unsigned = codes[codes[:, 0] != ord("-")]
            assert (unsigned[:, 0] == 0).all() and (unsigned[:, 1] != 0).all()


def test_scan_result_shape_validation():
    axis = SweepAxis("pulse_area_fraction", 0.0, 1.0, 4)
    with pytest.raises(ValueError, match="shape"):
        ScanResult(axes=(axis,), values=np.zeros(5))


@pytest.mark.parametrize("names, samples, message", [
    (("duration_fraction", "detuning_times_T", "pulse_area_fraction"), (2, 3, 4),
     "one or two axes, not 3"),  # once written as 8 rows of 3 fields
    ((), (), "one or two axes, not 0"),
    (("duration_fraction", "duration_fraction"), (2, 3), "distinct parameters"),
    (("duration_fraction", "detuning_times_T"), (3163, 3163),
     "at most 10000000 points, this one 10004569"),
], ids=["three-axes", "no-axis", "repeated", "too-many-points"])
def test_scan_result_takes_only_the_axes_of_a_scan(names, samples, message):
    axes = tuple(SweepAxis(name, 0.5, 1.5, n) for name, n in zip(names, samples))
    with pytest.raises(ValueError, match=message):
        ScanResult(axes=axes, values=np.broadcast_to(0.0, samples))


def test_grid_infidelity_matches_literal_definition():
    # a scan's values must equal the Frobenius sum over all four entries of
    # the 2x2 matrices, built here from the grid's own constituent pulses
    rng = np.random.default_rng(8)
    seq = bb_gate(5, 0.71)
    axis = SweepAxis("pulse_area_fraction", 0.3, 1.7, 50)
    detuning = rng.uniform(-2.0, 2.0)
    res = scan_1d(axis, seq, PulseSpec.rectangular(PI, detuning=detuning))
    target = np.diag([np.exp(0.5j * seq.gate_phase), np.exp(-0.5j * seq.gate_phase)])
    for fraction, value in zip(axis.grid(), res.values):
        area, delta = fraction * PI, detuning
        g = math.hypot(area, delta)
        h = 0.5 * np.array([[-delta, area], [area, delta]], dtype=complex)
        # expm(-i h) of the traceless h, then back to the interaction picture
        u = math.cos(g / 2) * np.eye(2) - 2j * math.sin(g / 2) / g * h
        pulse = np.diag([np.exp(-0.5j * delta), np.exp(0.5j * delta)]) @ u
        gate = np.eye(2, dtype=complex)
        for phase in seq.phases:
            shift = np.diag([np.exp(0.5j * phase), np.exp(-0.5j * phase)])
            gate = shift @ pulse @ shift.conj() @ gate
        literal = math.sqrt(sum(abs(d) ** 2 for d in (gate - target).ravel()))
        assert value == pytest.approx(literal, abs=1e-13)
