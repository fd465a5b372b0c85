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

:func:`fold` carries the product's a and, in place of its b, b's conjugate
turned by the current pulse's phase, so a pulse costs seven elementwise
passes, five of them in place; its docstring gives the derivation.
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
    qubit amplitudes.  Only the phase is kept; :func:`infidelity` measures a
    gate against it.
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

    The k-th listed phase acts k-th in time; no phases give the identity
    (1, 0).  Pulse k is (a, b_k), b_k = b e^{i phase_k}, and takes the
    product (ga, gb) to (a ga - b_k conj(gb), a gb + b_k conj(ga)).  Carry
    d = e^{i phase_k} conj(gb) in place of gb: then b_k conj(gb) = b d and
    conj(gb') = e^{-i phase_k} (conj(a) d + conj(b) ga).  So each pulse after
    the first, which sets ga = a and d = conj(b), is

        d <- d e^{i(phase_k - phase_{k-1})};   t = b d;
        d <- conj(a) d + conj(b) ga;           ga <- a ga - t

    and gb = conj(d e^{-i phase_{n-1}}) at the end: seven passes over an
    array per pulse, five of them in place and two into fresh temporaries.
    In-place operators rebind Python complex numbers, so one body folds a
    point query's scalars and a scan block's arrays.  Only arithmetic
    operators and ``.conjugate()`` touch (a, b), and neither is written to;
    real inputs give complex results.
    """
    phases = iter(phases)
    last = next(phases, None)
    if last is None:
        return 1.0 + 0.0j, 0.0j
    ca, cb = a.conjugate(), b.conjugate()
    ga, d = a + 0j, cb + 0j  # complex copies: the loop writes into these only
    for phase in phases:
        d *= cmath.exp(1j * (phase - last))
        t = b * d
        d *= ca
        d += cb * ga
        ga *= a
        ga -= t
        last = phase
    return ga, (d * cmath.exp(-1j * last)).conjugate()


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

    Elementwise, like :func:`fold`, and a Python float (``math.sqrt``) for
    Python complex numbers.  With t = e^{i*gate_phase/2} the target
    is diag(t, conj(t)); the two diagonal and the two off-diagonal entries of
    the difference have equal moduli, so the four-entry sum of squares is
    exactly 2|ga - t|^2 + 2|gb|^2.
    """
    target = complex(math.cos(gate_phase / 2.0), math.sin(gate_phase / 2.0))
    squared = 2.0 * abs(ga - target) ** 2 + 2.0 * abs(gb) ** 2
    return math.sqrt(squared) if isinstance(squared, float) else np.sqrt(squared)


def infidelity(actual: Propagator, target: TargetGate) -> float:
    """Frobenius distance between the achieved gate and the ideal one.

    :func:`gate_infidelity` of ``actual``.  No global phase is divided out,
    so a pure global phase on ``actual`` does count as error.  The value
    lies in [0, 2*sqrt(2)] for unitary inputs.
    """
    return float(gate_infidelity(actual.a, actual.b, target.gate_phase))

