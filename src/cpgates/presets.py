"""Named figure-reproduction presets for the command line.

Each preset expands into a list of scan jobs (sequence, pulse template,
axes, output filename).  The ranges are declared conventions chosen to
contain the qualitative features the figures show; resolutions can be
scaled down via ``samples_scale`` for quick runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .pulses import _AREA_PER_RABI_T, PulseSpec
from .scan import SweepAxis
from .sequences import (
    PhaseGateSequence,
    broadband_phases,
    detuning_phases,
    make_phase_gate_sequence,
    universal_phases,
)

__all__ = ["PresetJob", "PRESETS", "preset_jobs", "preset_descriptions"]

_GATE_PHASES_PI = (0.5, 0.25)


@dataclass(frozen=True)
class PresetJob:
    filename: str
    seq: PhaseGateSequence
    template: PulseSpec
    axes: tuple[SweepAxis, ...]


def _phase_tag(phase_pi: float) -> str:
    return f"phase{phase_pi:g}pi"


def _scaled(samples: int, scale: float) -> int:
    scaled = samples * scale
    if not 0 < scaled < math.inf:  # also a finite scale whose count overflows
        raise ValueError(f"samples scale must be positive and give a finite "
                         f"sample count, got {scale!r}")
    return max(2, int(round(scaled)))


def _curves(fig: str, axis: SweepAxis, cases) -> list[PresetJob]:
    """One job per (tag, CP, template) case at each gate phase, phases outermost."""
    return [
        PresetJob(f"{fig}_{tag}_{_phase_tag(phase_pi)}.csv",
                  make_phase_gate_sequence(cp, phase_pi * math.pi), template, (axis,))
        for phase_pi in _GATE_PHASES_PI
        for tag, cp, template in cases
    ]


def _fig1(scale: float) -> list[PresetJob]:
    """Broadband gates vs pulse area: n = 1, 3, 5, 9 at two gate phases."""
    axis = SweepAxis("pulse_area_fraction", 0.5, 1.5, _scaled(2001, scale))
    template = PulseSpec.rectangular(math.pi)
    return _curves("fig1", axis, [(f"n{n}", broadband_phases(n), template)
                                  for n in (1, 3, 5, 9)])


def _fig2(scale: float) -> list[PresetJob]:
    """Adiabatic gates (sech/tanh, B = 1/T) vs peak Rabi frequency."""
    axis = SweepAxis("peak_rabi_times_T", 0.0, 12.0, _scaled(1201, scale))
    template = PulseSpec.sech(peak_rabi=1.0, width=1.0, chirp_rate=1.0)
    return _curves("fig2", axis, [(f"n{n}", broadband_phases(n), template)
                                  for n in (1, 3, 5)])


def _fig3(scale: float) -> list[PresetJob]:
    """Detuning-compensated gates with sech pulses vs constant detuning."""
    axis = SweepAxis("detuning_times_T", -3.0, 3.0, _scaled(1201, scale))
    cps = [("n1", broadband_phases(1)), ("n5", detuning_phases("n5")),
           ("n9", detuning_phases("n9"))]
    # run each CP at its nominal area
    return _curves("fig3", axis, [
        (tag, cp, PulseSpec.sech(cp.nominal_per_pulse_area / _AREA_PER_RABI_T["sech"],
                                 width=1.0))
        for tag, cp in cps
    ])


def _fig4(scale: float) -> list[PresetJob]:
    """Universal-gate maps over pulse duration and detuning, gate phase pi/4."""
    jobs = []
    template = PulseSpec.rectangular(math.pi)
    for tag, cp in (("n1", broadband_phases(1)), ("U5a", universal_phases("U5a"))):
        seq = make_phase_gate_sequence(cp, math.pi / 4.0)
        axes = (
            SweepAxis("duration_fraction", 0.0, 2.0, _scaled(301, scale)),
            SweepAxis("detuning_times_T", -2.0, 2.0, _scaled(301, scale)),
        )
        jobs.append(PresetJob(f"fig4_{tag}_phase0.25pi.csv", seq, template, axes))
    return jobs


PRESETS = {
    "fig1": (_fig1, "broadband gate infidelity vs pulse area, n=1,3,5,9, gate phase pi/2 and pi/4"),
    "fig2": (_fig2, "adiabatic (sech/tanh, B=1/T) gate infidelity vs peak Rabi frequency, n=1,3,5"),
    "fig3": (_fig3, "detuning-compensated gates with sech pulses vs detuning, n=1,5,9"),
    "fig4": (_fig4, "duration x detuning infidelity maps for a single-pulse pair and the U5a pair"),
}


def preset_jobs(name: str, samples_scale: float = 1.0) -> list[PresetJob]:
    """Expand a preset into its scan jobs; scale trims every axis resolution."""
    try:
        builder, _ = PRESETS[name]
    except KeyError:
        raise ValueError(
            f"unknown preset {name!r}; choose from {', '.join(sorted(PRESETS))}"
        ) from None
    return builder(samples_scale)


def preset_descriptions() -> str:
    lines = [f"{name}: {desc}" for name, (_, desc) in sorted(PRESETS.items())]
    return "\n".join(lines)
