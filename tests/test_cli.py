"""Command-line behavior: outputs, exit codes, reproducibility."""

import io
import math
import shlex

import numpy as np
import pytest
from scipy.special import loggamma

from cpgates import pulses
from cpgates.cli import main
from cpgates.presets import preset_jobs
from cpgates.pulses import PulseSpec, constituent_propagator
from cpgates.sequences import (
    broadband_phases,
    detuning_phases,
    gate_propagator,
    make_phase_gate_sequence,
)
from cpgates.scan import scan_1d, write_scan_csv
from cpgates.su2 import Propagator, TargetGate, infidelity

PI = math.pi


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def data_rows(text: str) -> list[str]:
    return [ln for ln in text.splitlines() if not ln.startswith("#")]


def strip_volatile(text: str) -> str:
    return "\n".join(
        ln for ln in text.splitlines() if not ln.startswith("# created:")
    )


class TestSequenceCommand:
    def test_universal_u3_at_half_pi(self, capsys):
        code, out, _ = run(capsys, "sequence", "--family", "universal",
                           "--variant", "U3", "--phase-pi", "0.5")
        assert code == 0
        assert out.splitlines()[0] == "0, 0.5, 0, 1.25, 1.75, 1.25"
        assert "area/pi: 1" in out.splitlines()[1]

    def test_broadband_n3_at_zero_phase(self, capsys):
        code, out, _ = run(capsys, "sequence", "--family", "broadband",
                           "--variant", "n3", "--phase-pi", "0")
        assert code == 0
        assert out.splitlines()[0] == (
            "0, 0.666666666667, 0, 1, 1.66666666667, 1"
        )

    def test_even_broadband_rejected(self, capsys):
        code, _, err = run(capsys, "sequence", "--family", "broadband",
                           "--variant", "n4", "--phase-pi", "0")
        assert code == 2
        assert "odd" in err

    def test_non_finite_gate_phase_rejected(self, capsys):
        code, out, err = run(capsys, "sequence", "--family", "broadband",
                             "--variant", "n3", "--phase-pi", "nan")
        assert code == 2
        assert out == ""
        assert "gate phase must be finite" in err

    def test_unknown_family_rejected(self, capsys):
        code, _, err = run(capsys, "sequence", "--family", "passband",
                           "--variant", "n3", "--phase-pi", "0")
        assert code == 2
        assert "family" in err

    def test_list_table(self, capsys):
        code, out, _ = run(capsys, "sequence", "--list")
        assert code == 0
        assert "universal:U13a" in out


class TestFidelityCommand:
    def test_exact_point_prints_zeroish(self, capsys):
        code, out, _ = run(capsys, "fidelity", "--family", "broadband",
                           "--variant", "n3", "--phase-pi", "0.5")
        assert code == 0
        assert float(out.strip()) < 1e-12

    def test_detuning_n3_nominal(self, capsys):
        code, out, _ = run(capsys, "fidelity", "--family", "detuning",
                           "--variant", "n3", "--phase-pi", "0.25")
        assert code == 0
        assert float(out.strip()) < 1e-8

    def test_matches_direct_api_value(self, capsys):
        code, out, _ = run(capsys, "fidelity", "--family", "broadband",
                           "--variant", "n3", "--phase-pi", "0.5",
                           "--area-pi", "1.2")
        assert code == 0
        seq = make_phase_gate_sequence(broadband_phases(3), PI / 2)
        pulse = constituent_propagator(PulseSpec.rectangular(1.2 * PI))
        want = infidelity(gate_propagator(seq, pulse), TargetGate(PI / 2))
        assert float(out.strip()) == pytest.approx(want, rel=1e-11)

    @pytest.mark.filterwarnings("error")
    def test_numerical_failure_exit_code(self, capsys):
        # 1e30 stalls the step size at once; 1e300 overflows the integrator
        for rabi_t in ("1e30", "1e300"):
            code, _, err = run(capsys, "fidelity", "--family", "broadband",
                               "--variant", "n3", "--phase-pi", "0.5",
                               "--pulse", "sech", "--rabi-t", rabi_t,
                               "--chirp-t", "1")
            assert code == 3
            assert err.startswith("numerical failure: pulse propagator failed")
            assert err.count("\n") == 1

    @pytest.mark.filterwarnings("error")
    def test_large_sech_pulses_are_right_or_fail(self, capsys):
        # Omega0*T = 1e300 is an even number of half turns, so b = 0 and a is
        # the Rosen-Zener phase, here on scipy's log-gamma; Delta*T = 1e300
        # is past what the closed form resolves
        argv = ("fidelity", "--family", "detuning", "--variant", "n5",
                "--phase-pi", "0.5", "--pulse", "sech", "--rabi-t", "1e300")
        code, out, _ = run(capsys, *argv, "--detuning-t", "0.3")
        assert code == 0
        z = complex(0.5, 0.15)
        phase = 2.0 * (loggamma(z).imag - loggamma(z + 5e299).imag)
        pulse = Propagator(complex(math.cos(phase), math.sin(phase)), 0j)
        seq = make_phase_gate_sequence(detuning_phases("n5"), PI / 2)
        want = infidelity(gate_propagator(seq, pulse), TargetGate(PI / 2))
        assert float(out.strip()) == pytest.approx(want, rel=1e-11)

        code, out, err = run(capsys, *argv, "--detuning-t", "1e300")
        assert code == 3
        assert out == ""
        assert err.startswith("numerical failure: pulse propagator failed")

    @pytest.mark.filterwarnings("error")
    def test_overflowing_rect_pulse_is_bad_input(self, capsys):
        # no integration runs: the closed Rabi form would overflow
        code, out, err = run(capsys, "fidelity", "--family", "broadband",
                             "--variant", "n3", "--phase-pi", "0.5",
                             "--area-pi", "5e307", "--detuning-t", "1.7e308")
        assert code == 2
        assert out == ""
        assert err.startswith("error: pulse too strong")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("phase_pi", ["nan", "inf"])
    def test_non_finite_gate_phase_rejected(self, capsys, phase_pi):
        code, out, err = run(capsys, "fidelity", "--family", "broadband",
                             "--variant", "n3", "--phase-pi", phase_pi)
        assert code == 2
        assert out == ""
        assert "gate phase must be finite" in err

    @pytest.mark.parametrize("flags, message", [
        (("--rabi-t", "5"), "--rabi-t applies to sech pulses only"),
        (("--pulse", "sech", "--rabi-t", "1.2", "--area-pi", "0.9"),
         "either --rabi-t or --area-pi"),
        (("--pulse", "sech", "--chirp-t", "1", "--detuning-t", "0.3"),
         "either a constant detuning or a chirp"),
    ])
    def test_ignored_pulse_flags_rejected(self, capsys, flags, message):
        code, out, err = run(capsys, "fidelity", "--family", "broadband",
                             "--variant", "n3", "--phase-pi", "0.5", *flags)
        assert code == 2
        assert out == ""
        assert message in err

    def test_chirp_on_rect_rejected(self, capsys):
        code, _, err = run(capsys, "fidelity", "--family", "broadband",
                           "--variant", "n3", "--phase-pi", "0.5",
                           "--chirp-t", "1.0")
        assert code == 2
        assert "sech" in err


class TestScanCommand:
    BASE = ("scan", "--family", "broadband", "--variant", "n3",
            "--phase-pi", "0.5", "--axis", "pulse_area_fraction",
            "--range", "0.8:1.2", "--samples", "21", "--out", "scan.csv")

    def test_writes_csv_and_summary(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code, out, _ = run(capsys, *self.BASE)
        assert code == 0
        assert "min infidelity:" in out
        assert "bandwidth below 0.0001:" in out
        text = (tmp_path / "scan.csv").read_text()
        assert text.startswith("# cpgates-scan\n")
        assert "# created:" in text
        # arguments that need no quoting are written as they were given
        assert f"# command: {' '.join(self.BASE)}\n" in text
        rows = [ln for ln in text.splitlines() if not ln.startswith("#")]
        assert len(rows) == 21

    def test_command_header_splits_back_into_the_argv(self, capsys, tmp_path,
                                                      monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "my dir").mkdir()
        argv = [*self.BASE[:-1], "my dir/bb3's map.csv"]
        assert run(capsys, *argv)[0] == 0
        text = (tmp_path / "my dir" / "bb3's map.csv").read_text()
        line = next(ln for ln in text.splitlines() if ln.startswith("# command: "))
        assert shlex.split(line.removeprefix("# command: ")) == argv

    def test_byte_identical_reruns(self, capsys, tmp_path, monkeypatch):
        for sub in ("a", "b"):
            (tmp_path / sub).mkdir()
            monkeypatch.chdir(tmp_path / sub)
            run(capsys, *self.BASE)
        first = strip_volatile((tmp_path / "a" / "scan.csv").read_text())
        second = strip_volatile((tmp_path / "b" / "scan.csv").read_text())
        assert first == second

    def test_two_axes_map(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code, out, _ = run(
            capsys, "scan", "--family", "universal", "--variant", "U3",
            "--phase-pi", "0.25",
            "--axis", "duration_fraction", "--range", "0.2:1.8", "--samples", "11",
            "--axis", "detuning_times_T", "--range=-1:1", "--samples", "9",
            "--out", "map.csv",
        )
        assert code == 0
        assert "grid fraction below" in out
        rows = [ln for ln in (tmp_path / "map.csv").read_text().splitlines()
                if not ln.startswith("#")]
        assert len(rows) == 99

    def test_mismatched_axis_flags(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code, _, err = run(capsys, "scan", "--family", "broadband",
                           "--variant", "n3", "--phase-pi", "0.5",
                           "--axis", "pulse_area_fraction",
                           "--out", "x.csv")
        assert code == 2
        assert "together" in err

    def test_non_finite_range_rejected(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code, _, err = run(capsys, *self.BASE[:9], "--range", "0:inf",
                           *self.BASE[11:])
        assert code == 2
        assert "finite" in err
        assert not (tmp_path / "scan.csv").exists()

    @pytest.mark.parametrize("axis",
                             ["pulse_area_fraction", "peak_rabi_times_T", "duration_fraction"])
    def test_negative_pulse_axis_rejected(self, capsys, tmp_path, monkeypatch, axis):
        monkeypatch.chdir(tmp_path)
        code, _, err = run(capsys, *self.BASE[:8], axis, "--range=-1:1",
                           *self.BASE[11:])
        assert code == 2
        assert "below 0" in err
        assert not (tmp_path / "scan.csv").exists()

    @pytest.mark.filterwarnings("error")
    def test_non_finite_infidelity_exit_code(self, capsys, tmp_path, monkeypatch):
        # overflowing axis values fail the scan without numpy warnings
        monkeypatch.chdir(tmp_path)
        code, _, err = run(capsys, *self.BASE[:9], "--range", "0:1e308",
                           *self.BASE[11:])
        assert code == 3
        assert err.startswith("numerical failure: ")
        assert err.count("\n") == 1
        assert not (tmp_path / "scan.csv").exists()

    @pytest.mark.filterwarnings("error")
    def test_sech_overflow_fails_without_warnings(self, capsys, tmp_path,
                                                  monkeypatch):
        # the integrated route (chirped areas up to 1e308) and the Rosen-Zener
        # form (detunings up to 1e308) fail the scan as quietly as the Rabi form
        monkeypatch.chdir(tmp_path)
        for axis, pulse in (("pulse_area_fraction", ("--chirp-t", "1")),
                            ("detuning_times_T", ())):
            code, _, err = run(capsys, *self.BASE[:7], "--axis", axis,
                               "--range", "0:1e308", *self.BASE[11:],
                               "--pulse", "sech", *pulse)
            assert code == 3
            assert err.startswith("numerical failure: ")
            assert err.count("\n") == 1

    def test_non_finite_gate_phase_rejected(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code, _, err = run(capsys, *self.BASE[:6], "nan", *self.BASE[7:])
        assert code == 2
        assert "gate phase must be finite" in err
        assert not (tmp_path / "scan.csv").exists()

    @pytest.mark.parametrize("flag", ["--rel-tol", "--abs-tol", "--max-steps"])
    def test_tolerance_flags_are_unknown(self, capsys, flag):
        with pytest.raises(SystemExit) as exc:
            main([*self.BASE, flag, "1e-8"])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_unwritable_output_path(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code, _, err = run(capsys, *self.BASE[:-1], "no_such_dir/scan.csv")
        assert code == 1
        assert "i/o failure" in err


class TestPresetCommand:
    def test_list_presets(self, capsys):
        code, out, _ = run(capsys, "preset", "--list-presets")
        assert code == 0
        for name in ("fig1", "fig2", "fig3", "fig4"):
            assert name in out

    def test_missing_name(self, capsys):
        code, _, err = run(capsys, "preset")
        assert code == 2
        assert "preset" in err

    def test_fig1_writes_eight_curves(self, capsys, tmp_path):
        code, out, _ = run(capsys, "preset", "fig1", "--out-dir", str(tmp_path),
                           "--samples-scale", "0.05")
        assert code == 0
        files = sorted(p.name for p in tmp_path.glob("*.csv"))
        assert len(files) == 8
        assert "fig1_n1_phase0.5pi.csv" in files
        assert "fig1_n9_phase0.25pi.csv" in files

    def test_fig2_runs_small(self, capsys, tmp_path):
        code, _, _ = run(capsys, "preset", "fig2", "--out-dir", str(tmp_path),
                         "--samples-scale", "0.01")
        assert code == 0
        assert len(list(tmp_path.glob("fig2_*.csv"))) == 6

    def test_fig3_runs_small(self, capsys, tmp_path):
        code, _, _ = run(capsys, "preset", "fig3", "--out-dir", str(tmp_path),
                         "--samples-scale", "0.01")
        assert code == 0
        assert len(list(tmp_path.glob("fig3_*.csv"))) == 6

    @pytest.mark.parametrize("name, grids", [("fig2", 1), ("fig3", 0)])
    def test_shared_grids_integrate_once_per_command(self, capsys, tmp_path,
                                                     monkeypatch, name, grids):
        calls = []
        original = pulses.integrate_pulse_grid

        def counted(*args, **kwargs):
            calls.append(args[:2])
            return original(*args, **kwargs)

        monkeypatch.setattr(pulses, "integrate_pulse_grid", counted)
        argv = ("preset", name, "--samples-scale", "0.05", "--out-dir")
        code, _, _ = run(capsys, *argv, str(tmp_path / "a"))
        assert code == 0
        assert len(calls) == grids

        # each job run alone gives the same data rows
        for job in preset_jobs(name, samples_scale=0.05):
            alone = io.StringIO()
            write_scan_csv(scan_1d(job.axes[0], job.seq, job.template), alone)
            written = (tmp_path / "a" / job.filename).read_text()
            assert data_rows(written) == data_rows(alone.getvalue())

        # nothing is kept from one command to the next
        calls.clear()
        code, _, _ = run(capsys, *argv, str(tmp_path / "b"))
        assert code == 0
        assert len(calls) == grids

    def test_fig4_runs_small(self, capsys, tmp_path):
        code, _, _ = run(capsys, "preset", "fig4", "--out-dir", str(tmp_path),
                         "--samples-scale", "0.05")
        assert code == 0
        files = sorted(p.name for p in tmp_path.glob("fig4_*.csv"))
        assert files == ["fig4_U5a_phase0.25pi.csv", "fig4_n1_phase0.25pi.csv"]

    def test_too_many_map_points_rejected(self, capsys, tmp_path):
        # 12,040 x 12,040 samples per fig4 map, over the 10M-point cap
        code, _, err = run(capsys, "preset", "fig4", "--out-dir", str(tmp_path),
                           "--samples-scale", "40")
        assert code == 2
        assert "at most 10000000 points" in err
        assert list(tmp_path.glob("*.csv")) == []

    @pytest.mark.parametrize("scale", ["inf", "nan", "1e306"])
    def test_non_finite_sample_count_rejected(self, capsys, tmp_path, scale):
        out_dir = tmp_path / "out"
        code, _, err = run(capsys, "preset", "fig1", "--out-dir", str(out_dir),
                           "--samples-scale", scale)
        assert code == 2
        assert "samples scale must be positive and give a finite sample count" in err
        assert not out_dir.exists()

    def test_unknown_preset(self, capsys, tmp_path):
        code, _, err = run(capsys, "preset", "fig9", "--out-dir", str(tmp_path))
        assert code == 2
        assert "fig9" in err


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
