"""Exact SU(2) algebra for two-level propagators in Cayley-Klein form.

A propagator of a traceless two-level Hamiltonian is a 2x2 unitary with unit
determinant and is stored here as the complex pair (a, b); the full matrix is

    [[ a,        b      ],
     [-conj(b),  conj(a)]].

Everything in this module is exact algebra on such pairs: the field-phase
shift, the one product :func:`fold`, :func:`phase_gate`, which closes a
composite pulse and its phased copy into the gate, and the one distance
:func:`gate_infidelity` to the ideal gate diag(e^{i*phase/2}, e^{-i*phase/2}).
All work elementwise on Python complex numbers and numpy arrays alike, so a
point query and a scan grid run the same kernels; :func:`sequence_propagator`
and :func:`infidelity` wrap them for one :class:`Propagator`.  All are pure.
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
    "with_phase",
    "fold",
    "phase_gate",
    "sequence_propagator",
    "gate_infidelity",
    "infidelity",
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


def phase_gate(a, b, gate_phase: float):
    """Gate of a composite pulse (a, b) and its copy phased by pi + gate_phase/2.

    The copy is (a, -t*b), t = e^{i*gate_phase/2}, so the product is
    (a^2 + t|b|^2, b(a - t*conj(a))): exact for any pair, unitary or not.
    """
    t = complex(math.cos(gate_phase / 2.0), math.sin(gate_phase / 2.0))
    return a * a + t * (b * b.conjugate()), b * (a - t * a.conjugate())


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
    so a pure global phase on ``actual`` does count as error.  The value
    lies in [0, 2*sqrt(2)] for unitary inputs.
    """
    return float(gate_infidelity(actual.a, actual.b, target.gate_phase))

