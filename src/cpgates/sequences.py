"""Composite-pulse phase libraries and the two-sequence phase-gate build.

Three families of composite pulses (CPs) for complete population inversion
are shipped: broadband (robust to pulse-area errors, phases from the closed
formula k(k-1)*pi/n), detuning-compensated (tabulated phases, robust to
frequency offsets) and universal (tabulated phases compensating small errors
in any field parameter that keeps the evolution unitary).

Each shipped table is built once, on its first request, and then shared:
:class:`CompositePhases` is frozen and holds its phases in a tuple.

A phase gate with gate phase PHI is built from any such n-pulse CP by playing
the CP twice, with every pulse of the second pass shifted by pi + PHI/2.
When the CP inverts perfectly the 2n-pulse product is exactly
diag(e^{i*PHI/2}, e^{-i*PHI/2}), and the gate inherits the CP's robustness
order against the error the CP compensates.  The gate folds the CP's n
pulses once and closes the pair with :func:`cpgates.su2.phase_gate`.
"""

from __future__ import annotations

import functools
import math
import re
from dataclasses import dataclass

import numpy as np

from .su2 import Propagator, fold, gate_infidelity, phase_gate, sequence_propagator

__all__ = [
    "CompositePhases",
    "PhaseGateSequence",
    "broadband_phases",
    "detuning_phases",
    "universal_phases",
    "composite_phases",
    "make_phase_gate_sequence",
    "gate_propagator",
    "sequence_infidelity",
    "sequence_table",
    "MAX_BROADBAND_PULSES",
    "DETUNING_VARIANTS",
    "UNIVERSAL_VARIANTS",
]

TWO_PI = 2.0 * math.pi

#: Largest accepted broadband sequence length (odd n only).
MAX_BROADBAND_PULSES = 25

# Detuning-compensated phase tables, in units of pi.  The n3 entry is exact;
# n5 and n9 are published to three decimals, which limits how exactly they
# invert (residual |a| is a few 1e-4).
_DETUNING_TABLE = {
    "n3": (0.0, 1.0 / 3.0, 0.0),
    "n5": (0.0, 0.747, 0.424, 0.747, 0.0),
    "n9": (0.0, 1.308, 1.153, 1.251, 0.562, 1.251, 1.153, 1.308, 0.0),
}
# Per-pulse areas around which each detuning-compensated CP inverts fully.
_DETUNING_AREA = {
    "n3": math.pi,
    "n5": 3.0 * math.pi / 5.0,
    "n9": 4.0 * math.pi / 9.0,
}

# Universal phase tables, in units of pi.
_UNIVERSAL_TABLE = {
    "U3": (0.0, 1 / 2, 0.0),
    "U5a": (0.0, 5 / 6, 1 / 3, 5 / 6, 0.0),
    "U5b": (0.0, 11 / 6, 1 / 3, 11 / 6, 0.0),
    "U7a": (0.0, 11 / 12, 5 / 6, 17 / 12, 5 / 6, 11 / 12, 0.0),
    "U7b": (0.0, 23 / 12, 5 / 6, 5 / 12, 5 / 6, 23 / 12, 0.0),
    "U13a": (0.0, 3 / 8, 42 / 24, 11 / 24, 8 / 24, 37 / 24, 2 / 24,
             37 / 24, 8 / 24, 11 / 24, 42 / 24, 3 / 8, 0.0),
    "U13b": (0.0, 33 / 24, 42 / 24, 35 / 24, 8 / 24, 13 / 24, 2 / 24,
             13 / 24, 8 / 24, 35 / 24, 42 / 24, 33 / 24, 0.0),
}

DETUNING_VARIANTS = tuple(_DETUNING_TABLE)
UNIVERSAL_VARIANTS = tuple(_UNIVERSAL_TABLE)


@dataclass(frozen=True)
class CompositePhases:
    """One composite pulse: ordered field phases plus its nominal area.

    ``phases`` are radians reduced to [0, 2*pi); the list order is the order
    in time.  Every shipped sequence starts at phase zero and is palindromic.
    ``nominal_per_pulse_area`` is the constituent pulse area at which the CP
    produces complete inversion.
    """

    family: str
    variant: str
    phases: tuple[float, ...]
    nominal_per_pulse_area: float

    @property
    def n_pulses(self) -> int:
        return len(self.phases)


@dataclass(frozen=True)
class PhaseGateSequence:
    """A composite phase gate: a finite gate phase and its source CP.

    ``phases`` derives the 2n field phases: the source CP verbatim, then the
    same CP with every phase shifted by pi + gate_phase/2 (mod 2*pi).
    Earlier entries act earlier in time.
    """

    gate_phase: float
    source: CompositePhases

    def __post_init__(self):
        if not math.isfinite(self.gate_phase):
            raise ValueError(f"gate phase must be finite, got {self.gate_phase!r}")

    @property
    def phases(self) -> tuple[float, ...]:
        shift = math.pi + 0.5 * self.gate_phase
        cp = self.source.phases
        return tuple(cp) + tuple(_reduce(p + shift) for p in cp)


def _reduce(phase: float) -> float:
    reduced = phase % TWO_PI
    # values within rounding of a full turn belong at zero
    if reduced >= TWO_PI - 1e-12:
        return 0.0
    return reduced


def broadband_phases(n: int) -> CompositePhases:
    """Broadband CP of n pulses, phases k(k-1)*pi/n for k = 1..n.

    Only odd n between 1 and ``MAX_BROADBAND_PULSES`` are accepted; the
    family suppresses the inversion error to O(eps^(2n)) in the relative
    area error eps.  Nominal per-pulse area is pi.
    """
    if not isinstance(n, int) or isinstance(n, bool):
        raise ValueError("n must be an integer")
    if n < 1 or n % 2 == 0:
        raise ValueError(f"broadband sequences are defined for odd n >= 1, got {n}")
    if n > MAX_BROADBAND_PULSES:
        raise ValueError(f"broadband n capped at {MAX_BROADBAND_PULSES}, got {n}")
    return _broadband_table(int(n))


@functools.cache
def _broadband_table(n: int) -> CompositePhases:
    phases = tuple(_reduce(k * (k - 1) * math.pi / n) for k in range(1, n + 1))
    return CompositePhases("broadband", f"n{n}", phases, math.pi)


def detuning_phases(variant: str) -> CompositePhases:
    """Detuning-compensated CP; variant one of n3, n5, n9."""
    try:
        table = _DETUNING_TABLE[variant]
    except KeyError:
        raise ValueError(
            f"unknown detuning-compensated variant {variant!r}; "
            f"choose from {', '.join(DETUNING_VARIANTS)}"
        ) from None
    return _tabulated("detuning_compensated", variant, table, _DETUNING_AREA[variant])


def universal_phases(name: str) -> CompositePhases:
    """Universal CP; name one of U3, U5a, U5b, U7a, U7b, U13a, U13b."""
    try:
        table = _UNIVERSAL_TABLE[name]
    except KeyError:
        raise ValueError(
            f"unknown universal variant {name!r}; "
            f"choose from {', '.join(UNIVERSAL_VARIANTS)}"
        ) from None
    return _tabulated("universal", name, table, math.pi)


@functools.cache
def _tabulated(family: str, variant: str, table: tuple[float, ...],
               area: float) -> CompositePhases:
    phases = tuple(_reduce(p * math.pi) for p in table)
    return CompositePhases(family, variant, phases, area)


_FAMILY_ALIASES = {
    "broadband": "broadband",
    "bb": "broadband",
    "detuning": "detuning_compensated",
    "detuning_compensated": "detuning_compensated",
    "universal": "universal",
}


def composite_phases(family: str, variant: str) -> CompositePhases:
    """Look up any shipped CP by family name and variant identifier."""
    key = _FAMILY_ALIASES.get(family.lower())
    if key is None:
        raise ValueError(f"unknown family {family!r}; choose from "
                         "broadband, detuning, universal")
    if key == "broadband":  # an optional n or N, then decimal digits
        digits = re.fullmatch(r"[nN]?([0-9]+)", variant)
        if digits is None:
            raise ValueError(f"broadband variant must look like 'n3', got {variant!r}")
        return broadband_phases(int(digits[1]))
    if key == "detuning_compensated":
        return detuning_phases(variant.lower())
    return universal_phases(variant)


def make_phase_gate_sequence(cp: CompositePhases, gate_phase: float) -> PhaseGateSequence:
    """Build the 2n-pulse phase-gate sequence from a composite pulse.

    The second copy of the CP is shifted pulse-by-pulse by pi + gate_phase/2;
    all phases are reduced mod 2*pi without reordering.  gate_phase enters
    through gate_phase/2 only, so shifting it by 4*pi changes nothing.  A
    non-finite gate_phase raises ValueError.
    """
    return PhaseGateSequence(gate_phase, cp)


def gate_propagator(seq: PhaseGateSequence, pulse: Propagator) -> Propagator:
    """Total propagator of the gate: the CP's fold, closed by ``phase_gate``."""
    u = sequence_propagator(seq.source.phases, pulse)
    return Propagator(*phase_gate(u.a, u.b, seq.gate_phase))


def sequence_infidelity(seq: PhaseGateSequence, a, b):
    """Gate infidelity of ``seq`` on pulses (a, b), elementwise: the one route.

    Over broadband phases a real a gives a real A, |A| = |a|**n, so there the
    infidelity is exactly 2*sqrt(2)*|sin(phase/4)|*|a|**n.  Every other point
    takes :func:`fold`, :func:`phase_gate` and :func:`gate_infidelity`.
    """
    cp, phase = seq.source, seq.gate_phase
    real = cp.family == "broadband" and a.imag == 0
    if not np.all(real):
        value = gate_infidelity(*phase_gate(*fold(cp.phases, a, b), phase), phase)
        if not np.any(real):
            return value
    closed = abs(a.real) ** cp.n_pulses * (2.0 * math.sqrt(2.0) * abs(math.sin(phase / 4.0)))
    return closed if np.all(real) else np.where(real, closed, value)


def _shipped() -> list[CompositePhases]:
    cps = [broadband_phases(n) for n in (1, 3, 5, 7, 9)]
    cps += [detuning_phases(v) for v in DETUNING_VARIANTS]
    cps += [universal_phases(v) for v in UNIVERSAL_VARIANTS]
    return cps


def sequence_table() -> str:
    """Plain-text audit table of every shipped CP.

    Columns: name, number of pulses, phases in units of pi (12 significant
    digits), nominal per-pulse area in units of pi.
    """
    lines = ["name\tn\tphases/pi\tarea/pi"]
    for cp in _shipped():
        phases = ", ".join(f"{p / math.pi:.12g}" for p in cp.phases)
        lines.append(
            f"{cp.family}:{cp.variant}\t{cp.n_pulses}\t{phases}\t"
            f"{cp.nominal_per_pulse_area / math.pi:.12g}"
        )
    return "\n".join(lines)
