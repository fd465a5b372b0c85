"""Mutants that the tests must kill, kept so that every change re-checks them.

Each entry of ``MUTANTS`` replaces one text in one file of ``src/cpgates``
and names the test node ids that must catch it.  The script copies ``src``
into a temporary directory and runs pytest from the repository root with
the copy first on ``PYTHONPATH``: first every named test on the unmutated
copy, where each must pass, then each mutant alone, where each of its named
tests must fail.  A parametrized test named without its parameters stands
for all of its cases.  An entry's old text must occur exactly once in its
file.

Run it from anywhere, with the test dependencies installed:

    python tests/mutants.py

It prints one line per mutant and exits 1 if a mutant survives, a named
test fails on the unmutated copy or an entry does not apply.  pytest does
not collect this file, since its name does not start with ``test_``.  A
change that removes a fault on purpose adds the fault here with the tests
that catch it.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    file: str  # under src/cpgates
    old: str
    new: str
    tests: tuple[str, ...]


MUTANTS = (
    Mutant("the window's phase e^{-i Delta T w} back on the Rosen-Zener b",
           "pulses.py",
           "    b = -1j * s * sech\n",
           "    b = -1j * s * sech * np.exp(-1j * DEFAULT_WINDOW_HALF_WIDTH * delta_t)\n",
           ("tests/test_rosen_zener.py::test_closed_forms_do_not_read_the_window",
            "tests/test_rosen_zener.py::test_matches_the_integrator")),
    Mutant("the chirp's detuning phase counted from the window start -wT",
           "pulses.py",
           "phase = phase_rate * _log_cosh(t * inv_w)\n",
           "phase = phase_rate * (_log_cosh(t * inv_w) - _log_cosh(DEFAULT_WINDOW_HALF_WIDTH))\n",
           ("tests/test_pulses.py::TestIntegratedSech::test_chirp_matches_demkov_kunike",
            "tests/test_pulses.py::TestIntegratedSech::test_window_truncation_converged",
            "tests/test_pulses.py::TestIntegratorContract::test_matches_scipy_on_random_pulses")),
    Mutant("the integrator's step budget fixed, ignoring MAX_STEPS",
           "pulses.py",
           "0.1 * REL_TOL, 0.001 * REL_TOL, MAX_STEPS)",
           "0.1 * REL_TOL, 0.001 * REL_TOL, 100_000)",
           ("tests/test_pulses.py::TestIntegratorContract::test_step_budget_exhaustion_raises",
            "tests/test_pulses.py::test_failed_grid_points_come_back_as_nan",
            "tests/test_scan.py::TestScan1D::test_integration_failure_carries_coordinates")),
    Mutant("a failed integrated point returned unmasked",
           "pulses.py",
           "ok = result.success & (defect <= 10.0 * REL_TOL)",
           "ok = True",
           ("tests/test_pulses.py::TestIntegratorContract::test_step_budget_exhaustion_raises",
            "tests/test_pulses.py::test_failed_grid_points_come_back_as_nan",
            "tests/test_pulses.py::TestConstituentDispatch::test_failed_pulse_raises_quietly[4-1.0]",
            "tests/test_scan.py::TestScan1D::test_every_failing_map_point_comes_back")),
    Mutant("the mirrored chirp composed as b = 2 a_h conj(b_h)",
           "pulses.py",
           "2.0 * a * b\n",
           "2.0 * a * np.conj(b)\n",
           ("tests/test_pulses.py::TestIntegratedSech::test_chirp_matches_demkov_kunike",
            "tests/test_pulses.py::TestIntegratorContract::test_matches_scipy_on_random_pulses")),
    Mutant("_format_e11's slow rows written from column 0",
           "scan.py",
           '(b"% .11e" % x).replace(b" ", b"\\0")',
           'b"%.11e" % x',
           ("tests/test_scan.py::TestFormatter::test_matches_python_on_the_guard_band_and_edges",
            "tests/test_scan.py::TestCsvContract::test_canonical_files_never_reach_loadtxt")),
    Mutant("a malformed axis line's error without the file",
           "scan.py",
           'raise ValueError(f"{path}, line {number}: bad axis line "',
           'raise ValueError(f"line {number}: bad axis line "',
           ("tests/test_scan.py::TestCsvContract::test_a_malformed_axis_line_names_the_file_and_line",)),
    Mutant("_format_e11's guard band around rounding ties removed",
           "scan.py",
           "(np.abs(scaled - np.floor(scaled) - 0.5) < 1e-3)",
           "(np.abs(scaled - np.floor(scaled) - 0.5) < 0.0)",
           ("tests/test_scan.py::TestFormatter::test_matches_python_on_the_guard_band_and_edges",)),
    Mutant("the Rosen-Zener phase's resolution bound removed",
           "pulses.py",
           "ok = (unresolved <= REL_TOL) & np.isfinite(a)",
           "ok = np.isfinite(a)",
           ("tests/test_rosen_zener.py::test_large_arguments_are_right_or_nan",
            "tests/test_cli.py::TestFidelityCommand::test_large_sech_pulses_are_right_or_fail")),
    Mutant("sin and cos swapped in the scalar Rabi form",
           "pulses.py",
           "sin=math.sin, cos=math.cos",
           "sin=math.cos, cos=math.sin",
           ("tests/test_pulses.py::TestResonantRect::test_pi_pulse_inverts",
            "tests/test_pulses.py::TestClosedFormRectangular::test_scalar_and_grid_paths_agree")),
    Mutant("the low part of the parse's double-double power of ten dropped",
           "scan.py",
           "r = _product_error(m, hi) + m * _LO[e[at] + 99]",
           "r = _product_error(m, hi)",
           ("tests/test_scan.py::TestCsvContract::test_value_digits_read_as_numpys_cast",)),
    Mutant("Clinger's range widened to |j| = 23, where 10**23 is not a double",
           "scan.py",
           "_CLINGER = 22  #",
           "_CLINGER = 23  #",
           ("tests/test_scan.py::TestCsvContract::test_value_digits_read_as_numpys_cast",)),
    Mutant("the block's row offset dropped from numpy's message",
           "scan.py",
           'lambda m: f"at row {int(m[1]) + found}"',
           'lambda m: f"at row {int(m[1])}"',
           ("tests/test_scan.py::TestCsvContract::test_numpy_errors_name_the_file_row",)),
    Mutant("the reader's range compare against the template removed",
           "scan.py",
           "if not (np.subtract(got[at], want[at], out=got[at]) <= span).all():",
           "if np.subtract(got[at], want[at], out=got[at]) is None:",
           ("tests/test_scan.py::TestCsvContract::test_a_changed_coordinate_digit_names_its_row",
            "tests/test_scan.py::TestCsvContract::test_a_flipped_byte_leaves_the_byte_path[separator]",
            "tests/test_scan.py::TestCsvContract::test_a_flipped_byte_leaves_the_byte_path[digit-above]",
            "tests/test_scan.py::TestCsvContract::test_numpy_errors_name_the_file_row[inner1]")),
    Mutant("the reader's exponent-sign comma exclusion dropped",
           "scan.py",
           "if (got[..., -4] == 1).any():",
           "if False:",
           ("tests/test_scan.py::TestCsvContract::test_a_flipped_byte_leaves_the_byte_path[exponent-sign]",
            "tests/test_scan.py::TestCsvContract::test_numpy_errors_name_the_file_row[inner1]")),
    Mutant("the byte path switched off",
           "scan.py",
           "whole, long = fh.readinto(block) == block.size, ()",
           "whole, long = False, ()",
           ("tests/test_scan.py::TestCsvContract::test_canonical_files_never_reach_loadtxt",
            "tests/test_scan.py::TestCsvContract::test_value_digits_read_as_numpys_cast")),
    Mutant("a value copied one byte off into the writer's template",
           "scan.py",
           "_rectangle(lines, rect)[..., _VALUE] = digits[rect[0], rect[1]]",
           "_rectangle(lines, rect)[..., -_CANONICAL - 2:-2] = digits[rect[0], rect[1]]",
           ("tests/test_scan.py::TestBlockWriter::test_the_template_writes_the_padded_bytes[curve]",)),
    Mutant("a run boundary one column off: a sign byte in the unsigned run",
           "scan.py",
           "edges = [0, *(np.flatnonzero(kinds[1:] != kinds[:-1]) + 1).tolist(), len(kinds)]",
           "edges = [0, *np.flatnonzero(kinds[1:] != kinds[:-1]).tolist(), len(kinds)]",
           ("tests/test_scan.py::TestCsvContract::test_signed_layouts_read_as_bytes[curve-across-zero]",
            "tests/test_scan.py::TestCsvContract::test_signed_layouts_read_as_bytes[signed-outer]")),
    Mutant("the last rectangle's values not copied from the scratch",
           "scan.py",
           "        for rect in rects:\n            _rectangle(lines, rect)[..., _VALUE]",
           "        for rect in rects[:-1]:\n            _rectangle(lines, rect)[..., _VALUE]",
           ("tests/test_scan.py::TestCsvContract::test_signed_layouts_read_as_bytes[fig4]",
            "tests/test_scan.py::TestCsvContract::test_signed_layouts_read_as_bytes[three-exponent-digits]")),
    Mutant("the reader's span admitting the first byte of a line, a signed coordinate's sign",
           "scan.py",
           "        span[_VALUE] = _SPAN\n",
           "        span[_VALUE] = _SPAN\n        span[0] = 2\n",
           ("tests/test_scan.py::TestCsvContract::test_a_flipped_sign_leaves_the_byte_path",)),
    Mutant("the writer's canonical test ignoring a sign",
           "scan.py",
           "elif np.signbit(v).any() or not",
           "elif not",
           ("tests/test_scan.py::TestBlockWriter::test_the_template_writes_the_padded_bytes[negative]",)),
    Mutant("the parse's exact product error dropped",
           "scan.py",
           "r = _product_error(m, hi) + m * _LO[e[at] + 99]",
           "r = m * _LO[e[at] + 99]",
           ("tests/test_scan.py::TestCsvContract::test_value_digits_read_as_numpys_cast",)),
    Mutant("t conjugated in phase_gate",
           "su2.py",
           "    t = complex(math.cos(gate_phase / 2.0), math.sin(gate_phase / 2.0))",
           "    t = complex(math.cos(gate_phase / 2.0), -math.sin(gate_phase / 2.0))",
           ("tests/test_properties.py::test_gate_closure_matches_the_brute_force_chain",
            "tests/test_sequences.py::TestGatePropagator::test_matches_explicit_six_matrix_product")),
    Mutant("the fold's turn between pulses by the opposite phase step",
           "su2.py",
           "d *= cmath.exp(1j * (phase - last))",
           "d *= cmath.exp(-1j * (phase - last))",
           ("tests/test_properties.py::test_gate_closure_matches_the_brute_force_chain",
            "tests/test_acceptance.py::test_criterion_9_sequence_product_oracle")),
    Mutant("the fold's closing turn by e^{-i phase_{n-1}} dropped",
           "su2.py",
           "return ga, (d * cmath.exp(-1j * last)).conjugate()",
           "return ga, d.conjugate()",
           ("tests/test_acceptance.py::test_criterion_9_sequence_product_oracle",
            "tests/test_su2.py::TestCompose::test_relative_phase_identity",
            "tests/test_su2.py::TestFold::test_python_floats_and_zero_d_arrays",
            "tests/test_properties.py::test_fold_of_random_phases_matches_the_brute_force_chain")),
    Mutant("the fold's conj(a) taken as a",
           "su2.py",
           "ca, cb = a.conjugate(), b.conjugate()",
           "ca, cb = a, b.conjugate()",
           ("tests/test_properties.py::test_gate_closure_matches_the_brute_force_chain",
            "tests/test_properties.py::test_fold_stays_unitary")),
    Mutant("the closed form's sin(phase/4) written as sin(phase/2)",
           "sequences.py",
           "abs(math.sin(phase / 4.0))",
           "abs(math.sin(phase / 2.0))",
           ("tests/test_sequences.py::TestSequenceInfidelity::test_closed_form_matches_the_brute_force_chain",
            "tests/test_sequences.py::TestSequenceInfidelity::test_closed_form_is_exact_where_the_fold_is_noise",
            "tests/test_acceptance.py::test_criterion_5_widths_match_the_closed_form")),
    Mutant("the closed form taken for a complex a",
           "sequences.py",
           'real = cp.family == "broadband" and a.imag == 0',
           'real = cp.family == "broadband"',
           ("tests/test_sequences.py::TestSequenceInfidelity::test_other_points_take_the_fold_bit_for_bit",
            "tests/test_scan.py::test_grid_infidelity_matches_literal_definition")),
    Mutant("the reader ignoring an exponent's hundreds digit",
           "scan.py",
           'rows[long[0]] = long[1].view(f"S{_CANONICAL + 1}")[:, 0]',
           "pass",
           ("tests/test_scan.py::TestCsvContract::test_three_exponent_digits_read_as_bytes",)),
)


def outcomes(src: Path, ids: list[str]) -> dict[str, str]:
    """PASSED, FAILED or ERROR for every test case of ``ids``, run against ``src``."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=os.pathsep.join(filter(None, (str(src), os.environ.get("PYTHONPATH")))))
    where = subprocess.run([sys.executable, "-c", "import cpgates; print(cpgates.__file__)"],
                           cwd=ROOT, env=env, capture_output=True, text=True, check=True)
    if not Path(where.stdout.strip()).is_relative_to(src):
        sys.exit(f"cpgates imports from {where.stdout.strip()}, not from the copy")
    run = subprocess.run([sys.executable, "-m", "pytest", "-q", "-rA", "-p", "no:cacheprovider",
                          *ids], cwd=ROOT, env=env, capture_output=True, text=True)
    found = {}
    for line in run.stdout.splitlines():
        word, _, rest = line.partition(" ")
        if word in ("PASSED", "FAILED", "ERROR"):
            found[rest.split(" - ", 1)[0]] = word
    return found


def cases(found: dict[str, str], test: str) -> list[str]:
    """The outcomes of ``test``, or of each of its cases if it is parametrized."""
    return [word for case, word in found.items() if case == test or case.startswith(test + "[")]


def main() -> int:
    failures = 0
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        for m in MUTANTS:
            if (src / "cpgates" / m.file).read_text().count(m.old) != 1:
                print(f"does not apply: {m.name}: the old text is not in {m.file} exactly once")
                failures += 1
        if failures:
            return 1
        named = list(dict.fromkeys(t for m in MUTANTS for t in m.tests))
        found = outcomes(src, named)
        for test in named:
            if set(cases(found, test)) != {"PASSED"}:
                print(f"unmutated: {test} does not pass")
                failures += 1
        if failures:
            return 1
        for m in MUTANTS:
            path = src / "cpgates" / m.file
            original = path.read_text()
            path.write_text(original.replace(m.old, m.new))
            try:
                found = outcomes(src, list(m.tests))
            finally:
                path.write_text(original)
            alive = [t for t in m.tests if not cases(found, t) or "PASSED" in cases(found, t)]
            if alive:
                print(f"SURVIVED: {m.name}: {', '.join(alive)} did not fail")
                failures += 1
            else:
                print(f"killed: {m.name} ({len(m.tests)} of {len(m.tests)} tests fail)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
