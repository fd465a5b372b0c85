"""Acceptance suite: one test per criterion, each printing PASS or FAIL.

Run with ``pytest tests/test_acceptance.py -v -s`` to see every line; the
verdicts are also repeated in the terminal summary.

Two criteria fail by design of the physics rather than of the code, and are
left red on purpose (see the assertion messages and README): the chirped
adiabatic n=5 gate does not hold infidelity below 1e-4 over a contiguous
peak-Rabi window of width 2 at chirp rate B = 1/T, and the three-pulse
universal gate has a first-order infidelity response (no three-pulse
sequence can cancel arbitrary first-order propagator errors).
"""

import math

import numpy as np
import pytest
from scipy.linalg import expm

from conftest import record_criterion

from cpgates.pulses import (
    PulseSpec,
    integrate_pulse_grid,
    resonant_rect_propagator,
    transition_probability,
)
from cpgates.presets import preset_jobs
from cpgates.scan import (
    SweepAxis,
    error_order,
    high_fidelity_bandwidth,
    scan_1d,
    scan_2d,
)
from cpgates.sequences import (
    broadband_phases,
    detuning_phases,
    gate_propagator,
    make_phase_gate_sequence,
    universal_phases,
)
from cpgates.su2 import TargetGate, infidelity, sequence_propagator, with_phase

PI = math.pi


def test_criterion_1_exact_points():
    """Every shipped family hits the ideal gate exactly at its nominal point."""
    families = (
        [broadband_phases(n) for n in (1, 3, 5, 9)]
        + [universal_phases(v) for v in ("U3", "U5a", "U5b")]
        + [detuning_phases("n3")]
    )
    worst = 0.0
    for cp in families:
        pulse = resonant_rect_propagator(cp.nominal_per_pulse_area)
        for phi in (0.0, PI / 4, PI / 2, PI):
            seq = make_phase_gate_sequence(cp, phi)
            value = infidelity(gate_propagator(seq, pulse), TargetGate(phi))
            worst = max(worst, value)
    ok = worst < 1e-12
    record_criterion(1, ok, f"max exact-point infidelity {worst:.2e} (< 1e-12)")
    assert ok


def test_criterion_2_broadband_inversion_order():
    """Inversion error of broadband sequences scales as eps^(2n)."""
    details, ok = [], True
    for n in (3, 5):
        slope = 2.0 * error_order(broadband_phases(n), "area")
        details.append(f"n={n}: |a|^2 slope {slope:.2f} (want {2 * n} +- 0.3)")
        ok &= abs(slope - 2.0 * n) <= 0.3
    record_criterion(2, ok, "; ".join(details))
    assert ok


def test_criterion_3_accuracy_transfer():
    """Gate infidelity scales at least as fast as the constituent sequence."""
    details, ok = [], True
    for n in (3, 5):
        seq = make_phase_gate_sequence(broadband_phases(n), PI / 2)
        slope = error_order(seq, "area")
        details.append(f"n={n}: F slope {slope:.2f} (want >= {n} - 0.3)")
        ok &= slope >= n - 0.3
    record_criterion(3, ok, "; ".join(details))
    assert ok


def test_criterion_4_detuning_compensated_nominal_point():
    """Detuning-compensated sequences invert fully at their nominal areas."""
    tolerances = {"n3": 1e-8, "n5": 1e-4, "n9": 1e-4}
    details, ok = [], True
    for variant, tol in tolerances.items():
        cp = detuning_phases(variant)
        pulse = resonant_rect_propagator(cp.nominal_per_pulse_area)
        total = sequence_propagator(cp.phases, pulse)
        residual = abs(1.0 - transition_probability(total))
        details.append(f"{variant}: 1-|b|^2 = {residual:.2e} (< {tol:g})")
        ok &= residual < tol
    record_criterion(4, ok, "; ".join(details))
    assert ok


def _fig_jobs(name, phase_pi=None):
    jobs = preset_jobs(name)
    if phase_pi is not None:
        tag = f"phase{phase_pi:g}pi"
        jobs = [j for j in jobs if tag in j.filename]
    return jobs


def test_criterion_5_area_robustness_grows_with_n():
    """Pulse-area bandwidth at 1e-4 strictly increases over n = 1, 3, 5, 9."""
    jobs = {j.filename: j for j in _fig_jobs("fig1", 0.5)}
    widths = []
    for n in (1, 3, 5, 9):
        job = jobs[f"fig1_n{n}_phase0.5pi.csv"]
        res = scan_1d(job.axes[0], job.seq, job.template)
        widths.append(high_fidelity_bandwidth(res, 1e-4))
    ok = all(w1 < w2 for w1, w2 in zip(widths, widths[1:]))
    detail = ", ".join(f"n={n}: {w:.4f}" for n, w in zip((1, 3, 5, 9), widths))
    record_criterion(5, ok, f"bandwidths strictly increasing: {detail}")
    assert ok


@pytest.mark.parametrize("n, closed", [(3, 0.05758), (5, 0.19944), (9, 0.46376)])
def test_criterion_5_widths_match_the_closed_form(n, closed):
    """Criterion 5's widths lie within one grid step of the closed form's.

    On resonant rect pulses F = 2 sqrt(2) |sin(phi/4)| |cos(pi f/2)|**n, so
    F < eps where |f - 1| < (2/pi) asin((eps / (2 sqrt(2) |sin(phi/4)|))**(1/n)).
    """
    job = {j.filename: j for j in _fig_jobs("fig1", 0.5)}[f"fig1_n{n}_phase0.5pi.csv"]
    axis, phi, eps = job.axes[0], job.seq.gate_phase, 1e-4
    bound = (eps / (2.0 * math.sqrt(2.0) * abs(math.sin(phi / 4.0)))) ** (1.0 / n)
    width = 4.0 / PI * math.asin(bound)
    assert width == pytest.approx(closed, abs=5e-6)
    step = (axis.stop - axis.start) / (axis.samples - 1)
    grid = high_fidelity_bandwidth(scan_1d(axis, job.seq, job.template), eps)
    assert abs(grid - width) <= step


def test_criterion_6_adiabatic_peak_rabi_window():
    """Chirped n=5 gate: contiguous width-2 window below 1e-4 in peak Rabi.

    Red by design: with the sech envelope, tanh detuning at chirp rate
    B = 1/T, and the plain Frobenius metric, the n=5 curve dips below 1e-4
    only in bands of width ~0.5 around each zero of the single-pulse
    surviving amplitude (bands of that width repeat every ~2 units).  A
    contiguous window of width 2 first appears near B = 2/T.
    """
    jobs = {j.filename: j for j in _fig_jobs("fig2", 0.5)}
    results = {}
    for n in (1, 5):
        job = jobs[f"fig2_n{n}_phase0.5pi.csv"]
        results[n] = scan_1d(job.axes[0], job.seq, job.template)
    grid = results[5].axes[0].grid()
    below = results[5].values < 1e-4
    width, run = 0.0, None
    if below.any():
        idx = np.nonzero(below)[0]
        runs = np.split(idx, np.nonzero(np.diff(idx) > 1)[0] + 1)
        best = max(runs, key=lambda r: grid[r[-1]] - grid[r[0]])
        width = float(grid[best[-1]] - grid[best[0]])
        run = best
    single_exceeds = bool(run is not None and (results[1].values[run] > 1e-4).any())
    ok = width >= 2.0 and single_exceeds
    record_criterion(
        6, ok,
        f"n=5 widest contiguous F<1e-4 window: {width:.2f} (want >= 2); "
        f"n=1 exceeds 1e-4 inside it: {single_exceeds}",
    )
    assert ok, (
        "left red on purpose: the chirped composite gate model cannot meet "
        f"this window width (measured {width:.2f}); see README"
    )


ADIABATIC_AXIS = SweepAxis("peak_rabi_times_T", 0.0, 12.0, 601)


def _adiabatic_curve(n, chirp_t):
    """Broadband n at Phi = pi/2 along ADIABATIC_AXIS, sech pulses chirped at B*T."""
    template = PulseSpec.sech(peak_rabi=1.0, width=1.0, chirp_rate=chirp_t)
    seq = make_phase_gate_sequence(broadband_phases(n), PI / 2)
    return scan_1d(ADIABATIC_AXIS, seq, template).values


def _widest_window(values):
    """Indices of the widest run of values below 1e-4, and its width in Omega0*T."""
    idx = np.nonzero(values < 1e-4)[0]
    runs = np.split(idx, np.nonzero(np.diff(idx) > 1)[0] + 1)
    best = max(runs, key=lambda r: r[-1] - r[0])
    grid = ADIABATIC_AXIS.grid()
    return best, grid[best[-1]] - grid[best[0]]


def test_adiabatic_window_opens_at_twice_the_chirp_rate():
    """The README's claim beside criterion 6, at chirp rate B = 2/T.

    There the n=5 gate holds F < 1e-4 over a contiguous peak-Rabi window of
    width at least 2, inside which the single pair (n=1) exceeds 1e-4.
    """
    best, width = _widest_window(_adiabatic_curve(5, 2.0))
    assert width >= 2.0
    assert (_adiabatic_curve(1, 2.0)[best] > 1e-4).any()


@pytest.mark.parametrize("chirp_t, opened", [(1.6, False), (1.63, True)])
def test_adiabatic_window_opens_between_chirp_rates_1_6_and_1_63(chirp_t, opened):
    """The README's threshold beside criterion 6.

    n5's widest window below 1e-4 in Omega0*T is 1.64 wide at B*T = 1.6 and
    10.36 wide at B*T = 1.63, so a width-2 window opens in between.
    """
    _, width = _widest_window(_adiabatic_curve(5, chirp_t))
    assert (width > 2.0) == opened


def test_criterion_7_universal_map_high_fidelity_area():
    """U5a pair covers at least twice the F<0.01 map area of a single pair."""
    jobs = {j.filename: j for j in preset_jobs("fig4")}
    fractions = {}
    for tag in ("n1", "U5a"):
        job = jobs[f"fig4_{tag}_phase0.25pi.csv"]
        res = scan_2d(job.axes[0], job.axes[1], job.seq, job.template)
        fractions[tag] = float((res.values < 0.01).mean())
    ratio = fractions["U5a"] / fractions["n1"]
    ok = ratio >= 2.0
    record_criterion(
        7, ok,
        f"F<0.01 area fraction: single {fractions['n1']:.4f}, "
        f"U5a {fractions['U5a']:.4f}, ratio {ratio:.2f} (want >= 2)",
    )
    assert ok


def test_criterion_8_universal_first_order_compensation():
    """Universal gates suppress random-direction errors beyond first order.

    The U5a half passes (measured slope 3.0).  The U3 half is red by
    design: the infidelity response of the three-pulse universal gate is
    first order in a generic (area, detuning) perturbation, because no
    three-pulse sequence can cancel arbitrary first-order propagator
    errors; the measured slope is 1.0.
    """
    slopes = {}
    for name in ("U3", "U5a"):
        seq = make_phase_gate_sequence(universal_phases(name), PI / 2)
        slopes[name] = min(
            error_order(seq, "random_direction", seed=s) for s in range(10)
        )
    ok_u3 = slopes["U3"] >= 2.0 - 0.3
    ok_u5a = slopes["U5a"] >= 3.0 - 0.3
    ok = ok_u3 and ok_u5a
    record_criterion(
        8, ok,
        f"min slopes over 10 seeds: U3 {slopes['U3']:.2f} (want >= 1.7), "
        f"U5a {slopes['U5a']:.2f} (want >= 2.7)",
    )
    assert ok, (
        "left red on purpose: the three-pulse universal gate responds at "
        f"first order (measured slope {slopes['U3']:.2f}); see README"
    )


def test_criterion_9_sequence_product_oracle():
    """Sequence folding agrees with brute-force matrix chains to 1e-12."""
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(10_000):
        length = int(rng.integers(1, 14))
        phases = rng.uniform(0.0, 2.0 * PI, length)
        area = rng.uniform(0.0, 2.0 * PI)
        pulse = resonant_rect_propagator(area)
        got = sequence_propagator(phases, pulse).matrix()
        chain = np.eye(2, dtype=complex)
        for p in phases:
            chain = with_phase(pulse, p).matrix() @ chain
        worst = max(worst, float(np.max(np.abs(got - chain))))
    ok = worst < 1e-12
    record_criterion(9, ok, f"max |sequence - brute force| {worst:.2e} (< 1e-12)")
    assert ok


def test_criterion_10_integrator_against_matrix_exponential():
    """Rectangular detuned pulses match the constant-generator exponential."""
    rng = np.random.default_rng(7)
    areas = rng.uniform(0.0, 10.0, 1000)
    detunings = rng.uniform(0.0, 10.0, 1000)
    a, b = integrate_pulse_grid("rectangular", "constant", areas, np.ones(1000), detunings)
    assert np.isfinite(a).all() and np.isfinite(b).all()
    worst = 0.0
    for i in range(1000):
        h = 0.5 * np.array([[-detunings[i], areas[i]], [areas[i], detunings[i]]],
                           dtype=complex)
        u = expm(-1j * h)
        ref = np.diag([np.exp(-0.5j * detunings[i]), np.exp(0.5j * detunings[i])]) @ u
        worst = max(worst, abs(a[i] - ref[0, 0]), abs(b[i] - ref[0, 1]))
    ok = worst < 1e-9
    record_criterion(10, ok, f"max |integrated - expm oracle| {worst:.2e} (< 1e-9)")
    assert ok
