"""Command-line front end: sequence tables, point fidelities, scans, presets.

All angles on the command line are given in units of pi (so ``--phase-pi
0.5`` means a gate phase of pi/2), avoiding float parsing of
transcendentals.  Exit codes: 0 success, 1 I/O failure, 2 usage error,
3 numerical failure.

``fidelity`` runs the same propagator, fold and infidelity kernels as
``scan`` and ``preset``, on one point.  Pulses with a constant detuning take
a closed form (Rabi for rect, Rosen-Zener for sech); only tanh-chirped sech
pulses are integrated.  ``preset`` runs its jobs inside one
:func:`cpgates.pulses.grid_reuse` scope, so jobs that share a constituent grid
of integrated pulses (all of fig2) integrate it once per command; fig3 takes
the closed form and integrates nothing.  Each job still runs its own scan
and writes the bytes it would write alone.  Everything runs in the calling
thread.  The command line sets no integration tolerances: the pulse layer
keeps its own accuracy contract, and a point that misses it exits 3.
A pulse flag that the chosen pulse would ignore is a usage error.
"""

from __future__ import annotations

import argparse
import math
import shlex
import sys
from datetime import datetime, timezone
from pathlib import Path

from . import __version__
from .pulses import (
    _AREA_PER_RABI_T,
    IntegrationError,
    PulseSpec,
    constituent_propagator,
    grid_reuse,
)
from .presets import preset_descriptions, preset_jobs
from .scan import (
    ScanError,
    SweepAxis,
    high_fidelity_bandwidth,
    save_scan_csv,
    scan_1d,
    scan_2d,
)
from .sequences import (
    composite_phases,
    gate_propagator,
    make_phase_gate_sequence,
    sequence_table,
)
from .su2 import TargetGate, infidelity

_EXIT_OK = 0
_EXIT_IO = 1
_EXIT_USAGE = 2
_EXIT_NUMERICAL = 3


def _add_sequence_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--family", required=True,
                   help="broadband, detuning or universal")
    p.add_argument("--variant", required=True,
                   help="e.g. n3 (broadband/detuning) or U5a (universal)")
    p.add_argument("--phase-pi", type=float, required=True,
                   help="gate phase in units of pi")


def _add_pulse_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--pulse", choices=("rect", "sech"), default="rect",
                   help="constituent pulse model (default rect)")
    p.add_argument("--area-pi", type=float, default=None,
                   help="pulse area in units of pi (default: nominal area)")
    p.add_argument("--rabi-t", type=float, default=None,
                   help="peak Rabi frequency times T (sech pulses)")
    p.add_argument("--detuning-t", type=float, default=0.0,
                   help="constant detuning times T (default 0)")
    p.add_argument("--chirp-t", type=float, default=None,
                   help="tanh chirp rate times T (sech pulses only)")


def _build_pulse(args, nominal_area: float) -> PulseSpec:
    shape = "rectangular" if args.pulse == "rect" else "sech"
    if shape == "rectangular":
        for flag, value in (("--rabi-t", args.rabi_t), ("--chirp-t", args.chirp_t)):
            if value is not None:
                raise ValueError(f"{flag} applies to sech pulses only")
    elif args.rabi_t is not None and args.area_pi is not None:
        raise ValueError("give either --rabi-t or --area-pi, not both")
    # T = 1, so the peak Rabi frequency is Omega0*T
    if args.rabi_t is not None:
        peak = args.rabi_t
    elif args.area_pi is not None:
        peak = args.area_pi * (math.pi / _AREA_PER_RABI_T[shape])
    else:
        peak = nominal_area / _AREA_PER_RABI_T[shape]
    if shape == "sech":
        return PulseSpec.sech(peak, 1.0, detuning=args.detuning_t, chirp_rate=args.chirp_t)
    return PulseSpec(shape, peak, 1.0, rate=args.detuning_t)


def _manifest(args) -> dict:
    skip = {"func", "argv"}
    resolved = {k: v for k, v in sorted(vars(args).items()) if k not in skip}
    return {
        "command": shlex.join(args.argv),
        "resolved": ", ".join(f"{k}={v}" for k, v in resolved.items()),
        "library_version": __version__,
        "created": datetime.now(timezone.utc).isoformat(),
    }


def _cmd_sequence(args) -> int:
    if args.list:
        print(sequence_table())
        return _EXIT_OK
    cp = composite_phases(args.family, args.variant)
    seq = make_phase_gate_sequence(cp, args.phase_pi * math.pi)
    print(", ".join(f"{p / math.pi:.12g}" for p in seq.phases))
    print(f"nominal per-pulse area/pi: {cp.nominal_per_pulse_area / math.pi:.12g}")
    return _EXIT_OK


def _cmd_fidelity(args) -> int:
    cp = composite_phases(args.family, args.variant)
    seq = make_phase_gate_sequence(cp, args.phase_pi * math.pi)
    pulse = constituent_propagator(_build_pulse(args, cp.nominal_per_pulse_area))
    value = infidelity(gate_propagator(seq, pulse), TargetGate(seq.gate_phase))
    print(f"{value:.11e}")
    return _EXIT_OK


def _parse_range(text: str) -> tuple[float, float]:
    try:
        lo, hi = text.split(":")
        return float(lo), float(hi)
    except ValueError:
        raise ValueError(f"range must look like 'start:stop', got {text!r}") from None


def _cmd_scan(args) -> int:
    if not (len(args.axis) == len(args.range) == len(args.samples)):
        raise ValueError("--axis, --range and --samples must be given together")
    if len(args.axis) not in (1, 2):
        raise ValueError("give one axis for a curve or two for a map")
    spacing = args.spacing or ["linear"] * len(args.axis)
    if len(spacing) != len(args.axis):
        raise ValueError("--spacing must be given once per axis")
    axes = []
    for param, rng, n, sp in zip(args.axis, args.range, args.samples, spacing):
        lo, hi = _parse_range(rng)
        axes.append(SweepAxis(param, lo, hi, n, sp))

    cp = composite_phases(args.family, args.variant)
    seq = make_phase_gate_sequence(cp, args.phase_pi * math.pi)
    template = _build_pulse(args, cp.nominal_per_pulse_area)
    result = _scan(axes, seq, template)
    save_scan_csv(result, args.out, extra_header=_manifest(args))
    _summarize(result)
    print(f"wrote {args.out}")
    return _EXIT_OK


def _scan(axes, seq, template):
    if len(axes) == 1:
        return scan_1d(axes[0], seq, template)
    return scan_2d(axes[0], axes[1], seq, template)


def _summarize(result) -> None:
    print(f"min infidelity: {float(result.values.min()):.11e}")
    if len(result.axes) == 1:
        for thr in (1e-4, 1e-2):
            bw = high_fidelity_bandwidth(result, thr)
            print(f"bandwidth below {thr:g}: {bw:.6g}")
    else:
        for thr in (1e-4, 1e-2):
            frac = float((result.values < thr).mean())
            print(f"grid fraction below {thr:g}: {frac:.6g}")


def _cmd_preset(args) -> int:
    if args.list_presets:
        print(preset_descriptions())
        return _EXIT_OK
    if not args.name:
        raise ValueError("give a preset name or --list-presets")
    jobs = preset_jobs(args.name, samples_scale=args.samples_scale)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    with grid_reuse():
        for job in jobs:
            result = _scan(job.axes, job.seq, job.template)
            path = out_dir / job.filename
            save_scan_csv(result, path, extra_header=_manifest(args))
            print(f"wrote {path}")
    return _EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cpgates",
        description="Composite-pulse phase gates: sequences, fidelities, scans.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_seq = sub.add_parser("sequence", help="print the 2n gate phases")
    p_seq.add_argument("--family")
    p_seq.add_argument("--variant")
    p_seq.add_argument("--phase-pi", type=float, default=0.0,
                       help="gate phase in units of pi (default 0)")
    p_seq.add_argument("--list", action="store_true",
                       help="print the audit table of all shipped sequences")
    p_seq.set_defaults(func=_cmd_sequence)

    p_fid = sub.add_parser("fidelity", help="gate infidelity at one point")
    _add_sequence_args(p_fid)
    _add_pulse_args(p_fid)
    p_fid.set_defaults(func=_cmd_fidelity)

    p_scan = sub.add_parser("scan", help="sweep one or two parameters to CSV")
    _add_sequence_args(p_scan)
    _add_pulse_args(p_scan)
    p_scan.add_argument("--axis", action="append", default=[],
                        help="swept parameter (repeat for a 2D map)")
    p_scan.add_argument("--range", action="append", default=[],
                        help="start:stop for the matching --axis")
    p_scan.add_argument("--samples", action="append", type=int, default=[])
    p_scan.add_argument("--spacing", action="append", choices=("linear", "log"),
                        default=None)
    p_scan.add_argument("--out", required=True, help="output CSV path")
    p_scan.set_defaults(func=_cmd_scan)

    p_pre = sub.add_parser("preset", help="run a figure-reproduction preset")
    p_pre.add_argument("name", nargs="?", help="fig1, fig2, fig3 or fig4")
    p_pre.add_argument("--list-presets", action="store_true")
    p_pre.add_argument("--out-dir", default=".")
    p_pre.add_argument("--samples-scale", type=float, default=1.0,
                       help="scale every axis resolution (e.g. 0.1 for quick runs)")
    p_pre.set_defaults(func=_cmd_preset)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    args.argv = list(argv) if argv is not None else list(sys.argv[1:])
    if args.command == "sequence" and not args.list:
        if not (args.family and args.variant):
            parser.error("sequence needs --family and --variant (or --list)")
    try:
        return args.func(args)
    except (ValueError,) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_USAGE
    except (IntegrationError, ScanError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return _EXIT_NUMERICAL
    except OSError as exc:
        print(f"i/o failure: {exc}", file=sys.stderr)
        return _EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
