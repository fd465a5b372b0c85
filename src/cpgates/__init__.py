"""Composite-pulse phase gates for driven two-level systems.

Build error-resilient phase gates from pairs of composite pulse sequences,
compute their propagators under systematic parameter errors, and map gate
infidelity across parameter sweeps.
"""

from types import ModuleType as _ModuleType

__version__ = "0.1.0"

from .su2 import (
    Propagator,
    TargetGate,
    fold,
    gate_infidelity,
    infidelity,
    sequence_propagator,
    with_phase,
)
from .pulses import (
    DEFAULT_CONFIG,
    IntegrationError,
    IntegratorConfig,
    PulseSpec,
    constituent_propagator,
    resonant_rect_propagator,
    transition_probability,
)
from .sequences import (
    CompositePhases,
    PhaseGateSequence,
    broadband_phases,
    composite_phases,
    detuning_phases,
    gate_propagator,
    make_phase_gate_sequence,
    sequence_table,
    universal_phases,
)
from .scan import (
    ScanError,
    ScanResult,
    SweepAxis,
    error_order,
    high_fidelity_bandwidth,
    read_scan_csv,
    save_scan_csv,
    scan_1d,
    scan_2d,
    write_scan_csv,
)
from .presets import PRESETS, preset_jobs

# the public names imported above, each listed once
__all__ = ["__version__"] + [
    name for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
]
