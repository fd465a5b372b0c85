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
           "phase = phase_rate * (_log_cosh(t * inv_w) - _log_cosh(window_half_width))\n",
           ("tests/test_pulses.py::TestIntegratedSech::test_chirp_matches_demkov_kunike",
            "tests/test_pulses.py::TestIntegratedSech::test_window_truncation_converged",
            "tests/test_pulses.py::TestIntegratorContract::test_matches_scipy_on_random_pulses")),
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
           "ok = (unresolved <= DEFAULT_CONFIG.rel_tol) & np.isfinite(a)",
           "ok = np.isfinite(a)",
           ("tests/test_rosen_zener.py::test_large_arguments_are_right_or_nan",
            "tests/test_cli.py::TestFidelityCommand::test_large_sech_pulses_are_right_or_fail")),
    Mutant("sin and cos swapped in the scalar Rabi form",
           "pulses.py",
           "sin=math.sin, cos=math.cos",
           "sin=math.cos, cos=math.sin",
           ("tests/test_pulses.py::TestResonantRect::test_pi_pulse_inverts",
            "tests/test_pulses.py::TestClosedFormRectangular::test_scalar_and_grid_paths_agree")),
    Mutant("the value parse's one-ulp correction dropped",
           "scan.py",
           "values[at] = np.where(past > 0.5, near, q)",
           "values[at] = q",
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
           "if not ((piece <= span).all() and (piece[:, field][:, 14] != 1).all()):",
           "if not (piece[:, field][:, 14] != 1).all():",
           ("tests/test_scan.py::TestCsvContract::test_a_changed_coordinate_digit_names_its_row",
            "tests/test_scan.py::TestCsvContract::test_a_flipped_byte_leaves_the_byte_path[separator]",
            "tests/test_scan.py::TestCsvContract::test_a_flipped_byte_leaves_the_byte_path[digit-above]",
            "tests/test_scan.py::TestCsvContract::test_numpy_errors_name_the_file_row[inner1]")),
    Mutant("the reader's exponent-sign comma exclusion dropped",
           "scan.py",
           " and (piece[:, field][:, 14] != 1).all()):",
           "):",
           ("tests/test_scan.py::TestCsvContract::test_a_flipped_byte_leaves_the_byte_path[exponent-sign]",
            "tests/test_scan.py::TestCsvContract::test_numpy_errors_name_the_file_row[inner1]")),
    Mutant("the byte path switched off",
           "scan.py",
           "if fh.readinto(block) != block.size or not _canonical_rows(block, template, rows):",
           "if True:",
           ("tests/test_scan.py::TestCsvContract::test_canonical_files_never_reach_loadtxt",
            "tests/test_scan.py::TestCsvContract::test_value_digits_read_as_numpys_cast")),
    Mutant("a value spelled one byte off in the writer's template",
           "scan.py",
           "_format_e11(block, lines[:, -_CANONICAL - 1:-1])",
           "_format_e11(block, lines[:, -_CANONICAL:])",
           ("tests/test_scan.py::TestBlockWriter::test_the_template_writes_the_padded_bytes[curve]",)),
    Mutant("the writer's canonical test ignoring a sign",
           "scan.py",
           "elif np.signbit(v).any() or (",
           "elif (",
           ("tests/test_scan.py::TestBlockWriter::test_the_template_writes_the_padded_bytes[negative]",)),
    Mutant("a field past the candidate's neighbour read as the candidate",
           "scan.py",
           "values[at] = np.where(past > 0.5, near, q)",
           "values[at] = np.where((past > 0.5) & (past < 1), near, q)",
           ("tests/test_scan.py::TestCsvContract::test_value_digits_read_as_numpys_cast",)),
    Mutant("t conjugated in phase_gate",
           "su2.py",
           "    t = complex(math.cos(gate_phase / 2.0), math.sin(gate_phase / 2.0))",
           "    t = complex(math.cos(gate_phase / 2.0), -math.sin(gate_phase / 2.0))",
           ("tests/test_properties.py::test_gate_closure_matches_the_brute_force_chain",
            "tests/test_sequences.py::TestGatePropagator::test_matches_explicit_six_matrix_product")),
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
