"""Direct checks of the batched adaptive stepper on problems with closed forms."""

import numpy as np
import pytest

from cpgates import integrator
from cpgates.integrator import solve_batch


def test_linear_decay_batch_matches_closed_form():
    # dy/dt = -lambda * y, per-system rate, distinct spans
    rates = np.array([0.3, 1.0, 2.5])
    spans = np.array([1.0, 2.0, 0.5])
    y0 = np.array([[1.0 + 0.5j, 2.0 + 0j]] * 3, dtype=complex)

    def rhs(t, y, p):
        (rate,) = p
        return -rate[:, None] * y

    res = solve_batch(rhs, np.zeros(3), spans, y0, (rates,), 1e-11, 1e-13, 10_000)
    assert res.success.all()
    want = y0 * np.exp(-rates * spans)[:, None]
    assert np.max(np.abs(res.y - want)) < 1e-9


def test_zero_span_systems_keep_initial_state():
    y0 = np.array([[0.2 + 0.1j, -1.0 + 0j]], dtype=complex)

    def rhs(t, y, p):  # pragma: no cover - never called for empty spans
        raise AssertionError("rhs must not run for an empty window")

    res = solve_batch(rhs, np.array([3.0]), np.array([3.0]), y0, (), 1e-10, 1e-12, 100)
    assert res.success.all()
    assert np.array_equal(res.y, y0)


def test_constant_solution_costs_few_steps():
    # zero derivative: the controller must grow the step, not stall
    def rhs(t, y, p):
        return np.zeros_like(y)

    res = solve_batch(rhs, np.array([0.0]), np.array([1000.0]),
                      np.array([[1.0 + 0j, 0j]]), (), 1e-10, 1e-12, 10_000)
    assert res.success.all()
    assert res.n_steps[0] < 100


def test_step_budget_failure_is_flagged_per_system():
    # one stiff oscillator next to one trivial system
    freq = np.array([5000.0, 0.0])

    def rhs(t, y, p):
        (f,) = p
        return 1j * f[:, None] * y

    res = solve_batch(rhs, np.zeros(2), np.full(2, 10.0),
                      np.ones((2, 2), dtype=complex), (freq,), 1e-12, 1e-14, 30)
    assert not res.success[0]
    assert res.success[1]


def test_mixed_spans_integrate_independently():
    rng = np.random.default_rng(1)
    spans = rng.uniform(0.0, 3.0, 17)
    spans[::5] = 0.0
    rate = 1.25

    def rhs(t, y, p):
        return -rate * y

    y0 = np.ones((17, 2), dtype=complex)
    res = solve_batch(rhs, np.zeros(17), spans, y0, (), 1e-11, 1e-13, 10_000)
    assert res.success.all()
    want = np.exp(-rate * spans)[:, None] * y0
    assert np.max(np.abs(res.y - want)) < 1e-9


def _dense(rows, width):
    out = np.zeros((len(rows), width))
    for s, row in enumerate(rows):
        for j, w in row:
            out[s, j] = w
    return out


def test_dop853_tableau_matches_scipy():
    # scipy's transcription is an independent copy of Hairer's coefficients
    ref = pytest.importorskip("scipy.integrate._ivp.dop853_coefficients")
    n = ref.N_STAGES
    assert np.array_equal(np.array(integrator._C), ref.C[:n])
    assert np.array_equal(_dense(integrator._A, n), ref.A[:n, :n])
    assert np.array_equal(_dense([integrator._B], n)[0], ref.B)
    assert np.array_equal(_dense([integrator._E5], n + 1)[0], ref.E5)
    assert np.array_equal(_dense([integrator._E3], n + 1)[0], ref.E3)


def test_linear_decay_converges_at_tight_tolerance():
    # the 8th-order stepper reaches the rounding floor on the decay problem
    rates = np.array([0.3, 1.0, 2.5])
    spans = np.array([1.0, 2.0, 0.5])
    y0 = np.array([[1.0 + 0.5j, 2.0 + 0j]] * 3, dtype=complex)

    def rhs(t, y, p):
        (rate,) = p
        return -rate[:, None] * y

    res = solve_batch(rhs, np.zeros(3), spans, y0, (rates,), 1e-13, 1e-15, 10_000)
    assert res.success.all()
    want = y0 * np.exp(-rates * spans)[:, None]
    assert np.max(np.abs(res.y - want)) < 1e-13


def test_packed_batch_gives_each_system_its_lone_bits():
    # systems listed out of order leave the packed batch at different steps,
    # with their own two parameters: two with empty windows at once, one in
    # the middle when it exhausts the step budget, the rest as they finish.
    # Every one must come back with the y, success and n_steps of
    # integrating it alone, bit for bit
    freq = np.array([3.0, 0.5, 2.0, 400.0, 7.0, 1.5, 0.25, 5.0])
    chirp = np.array([0.1, 0.3, 0.05, 0.2, 0.02, 0.15, 0.4, 0.08])
    t0 = np.array([0.5, -2.0, 1.0, 0.0, 0.0, 4.0, -1.0, 2.0])
    t1 = np.array([4.0, 6.0, 1.0, 5.0, 1.0, 4.0, 0.5, 3.0])
    y0 = np.stack([np.exp(1j * freq), 1.0 - 0.5j * freq], axis=1)

    def rhs(t, y, p):
        # a chirped coupling, so step sizes vary along each window
        f, c = p
        return -1j * (f * (1.0 + c * t))[:, None] * y[:, ::-1]

    def solve(sel):
        return solve_batch(rhs, t0[sel], t1[sel], y0[sel], (freq[sel], chirp[sel]),
                           1e-10, 1e-12, 200)

    whole = solve(np.arange(8))
    assert whole.success.tolist() == [True, True, True, False, True, True, True, True]
    assert whole.n_steps[2] == whole.n_steps[5] == 0
    assert whole.n_steps[3] == 200
    assert len(set(whole.n_steps[whole.success & (t1 > t0)].tolist())) == 5
    for i in range(8):
        alone = solve(np.array([i]))
        assert alone.y.tobytes() == whole.y[i:i + 1].tobytes()
        assert alone.success[0] == whole.success[i]
        assert alone.n_steps[0] == whole.n_steps[i]
