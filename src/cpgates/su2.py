"""Exact SU(2) algebra for two-level propagators in Cayley-Klein form.

A propagator of a traceless two-level Hamiltonian is a 2x2 unitary with unit
determinant and is stored here as the complex pair (a, b); the full matrix is

    [[ a,        b      ],
     [-conj(b),  conj(a)]].

Everything in this module is exact algebra on such pairs: field-phase shifts,
composition, ordered pulse sequences, ideal phase-gate targets, and the
Frobenius-distance infidelity.  All values are immutable and all functions are
pure.  The sequence product :func:`fold` and :func:`gate_infidelity` work
elementwise on Python complex numbers and on numpy arrays alike, so one point
query and a whole scan grid run the same kernels.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

__all__ = [
    "Propagator",
    "TargetGate",
    "IDENTITY",
    "with_phase",
    "compose",
    "fold",
    "sequence_propagator",
    "target_gate_matrix",
    "gate_infidelity",
    "infidelity",
    "phase_invariant_infidelity",
]


@dataclass(frozen=True)
class Propagator:
    """Cayley-Klein pair (a, b) of a unit-determinant 2x2 unitary.

    Valid propagators satisfy |a|^2 + |b|^2 = 1 up to rounding.
    |b|^2 is the two-level transition probability.
    """

    a: complex
    b: complex

    def matrix(self) -> np.ndarray:
        """Reconstruct the full 2x2 complex matrix."""
        return np.array(
            [[self.a, self.b], [-np.conj(self.b), np.conj(self.a)]],
            dtype=complex,
        )

    def unitarity_defect(self) -> float:
        """Absolute deviation of |a|^2 + |b|^2 from one."""
        return abs(abs(self.a) ** 2 + abs(self.b) ** 2 - 1.0)


IDENTITY = Propagator(1.0 + 0.0j, 0.0 + 0.0j)


@dataclass(frozen=True)
class TargetGate:
    """Ideal phase gate diag(e^{i*phase/2}, e^{-i*phase/2}).

    ``gate_phase`` is the relative phase (radians) imposed between the two
    qubit amplitudes.  The matrix has determinant one exactly.
    """

    gate_phase: float


def with_phase(u: Propagator, phase: float) -> Propagator:
    """Shift the driving-field phase of a pulse by ``phase`` radians.

    A constant phase on the field enters the propagator only through the
    off-diagonal element: (a, b) -> (a, b * e^{i*phase}).
    """
    return Propagator(u.a, u.b * cmath.exp(1j * phase))


def compose(second: Propagator, first: Propagator) -> Propagator:
    """Matrix product second @ first, in Cayley-Klein form.

    ``first`` acts first in time.  The product of two unit-determinant
    unitaries is again of that form, so nothing is lost by staying in
    (a, b) coordinates.
    """
    a = second.a * first.a - second.b * np.conj(first.b)
    b = second.a * first.b + second.b * np.conj(first.a)
    return Propagator(complex(a), complex(b))


def fold(phases: Iterable[float], a, b):
    """Product U(phase[n-1]) ... U(phase[0]) of one pulse (a, b), phased.

    The k-th listed phase acts k-th in time.  Only arithmetic operators and
    ``.conjugate()`` touch (a, b), so Python complex numbers cost no numpy
    calls and numpy arrays are folded elementwise.
    """
    ga, gb = 1.0 + 0.0j, 0.0j
    for phase in phases:
        bk = b * complex(math.cos(phase), math.sin(phase))
        ga, gb = a * ga - bk * gb.conjugate(), a * gb + bk * ga.conjugate()
    return ga, gb


def sequence_propagator(phases: Iterable[float],
                        pulse_propagator: Propagator) -> Propagator:
    """:func:`fold` of one pulse propagator over a composite sequence.

    Raises
    ------
    ValueError
        If the phase list is empty.
    """
    phases = tuple(phases)
    if not phases:
        raise ValueError("a composite sequence needs at least one phase")
    ga, gb = fold(phases, pulse_propagator.a, pulse_propagator.b)
    return Propagator(complex(ga), complex(gb))


def target_gate_matrix(gate: TargetGate) -> Propagator:
    """Cayley-Klein form of the ideal phase gate: (e^{i*phase/2}, 0)."""
    return Propagator(cmath.exp(0.5j * gate.gate_phase), 0.0 + 0.0j)


def gate_infidelity(ga, gb, gate_phase: float):
    """Frobenius distance of gates (ga, gb) to the ideal phase gate.

    Elementwise, like :func:`fold`.  With t = e^{i*gate_phase/2} the target
    is diag(t, conj(t)); the two diagonal and the two off-diagonal entries of
    the difference have equal moduli, so the four-entry sum of squares is
    exactly 2|ga - t|^2 + 2|gb|^2.
    """
    target = complex(math.cos(gate_phase / 2.0), math.sin(gate_phase / 2.0))
    return np.sqrt(2.0 * abs(ga - target) ** 2 + 2.0 * abs(gb) ** 2)


def infidelity(actual: Propagator, target: TargetGate) -> float:
    """Frobenius distance between the achieved gate and the ideal one.

    :func:`gate_infidelity` of ``actual``.  No global phase is divided out,
    so a pure global phase on ``actual`` does count as error; see
    :func:`phase_invariant_infidelity` for the quotient variant.  The value
    lies in [0, 2*sqrt(2)] for unitary inputs.
    """
    return float(gate_infidelity(actual.a, actual.b, target.gate_phase))


def phase_invariant_infidelity(actual: Propagator, target: TargetGate) -> float:
    """Frobenius distance minimized over a global phase on ``actual``.

    Optional diagnostic metric; the plain :func:`infidelity` is the quantity
    used everywhere else in this package.
    """
    overlap = np.trace(target_gate_matrix(target).matrix().conj().T @ actual.matrix())
    return float(np.sqrt(max(0.0, 4.0 - 2.0 * abs(overlap))))
