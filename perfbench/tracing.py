"""Spans around the package's layer boundaries, and per-layer metrics from them.

The tracer replaces public functions at the places they are imported from
(``cpgates.cli.scan_1d``, ``cpgates.scan.integrate_pulse_grid``,
``cpgates.integrator.solve_batch``, ...) with wrappers that record one span
per call: name, start, end, parent span and run id (the pass it belongs to).
Spans stay in memory and are written out when the benchmark ends.  The
integrator's right-hand side runs thousands of times per batch, so it is
timed and counted inside the enclosing ``solve_batch`` span instead of
getting spans of its own.
"""

from __future__ import annotations

import inspect
import json
import os
import time
from collections import defaultdict

import cpgates.cli
import cpgates.integrator
import cpgates.presets
import cpgates.pulses
import cpgates.scan
import cpgates.sequences
import cpgates.su2

# (module, attribute, span name).  A function imported into several modules
# is wrapped at each import site the workloads reach.
_SITES = [
    (cpgates.cli, "main", "cli.main"),
    (cpgates.cli, "preset_jobs", "presets.preset_jobs"),
    (cpgates.cli, "composite_phases", "sequences.composite_phases"),
    (cpgates.cli, "make_phase_gate_sequence", "sequences.make_phase_gate_sequence"),
    (cpgates.cli, "scan_1d", "scan.scan_1d"),
    (cpgates.cli, "scan_2d", "scan.scan_2d"),
    (cpgates.cli, "save_scan_csv", "scan.save_scan_csv"),
    (cpgates.presets, "broadband_phases", "sequences.broadband_phases"),
    (cpgates.presets, "detuning_phases", "sequences.detuning_phases"),
    (cpgates.presets, "universal_phases", "sequences.universal_phases"),
    (cpgates.presets, "make_phase_gate_sequence", "sequences.make_phase_gate_sequence"),
    (cpgates.scan, "integrate_pulse_grid", "pulses.integrate_pulse_grid"),
    (cpgates.scan, "read_scan_csv", "scan.read_scan_csv"),
    (cpgates.pulses, "constituent_propagator", "pulses.constituent_propagator"),
    (cpgates.pulses, "resonant_rect_propagator", "pulses.resonant_rect_propagator"),
    (cpgates.pulses, "integrate_pulse", "pulses.integrate_pulse"),
    (cpgates.pulses, "integrate_pulse_grid", "pulses.integrate_pulse_grid"),
    (cpgates.integrator, "solve_batch", "integrator.solve_batch"),
    (cpgates.sequences, "composite_phases", "sequences.composite_phases"),
    (cpgates.sequences, "make_phase_gate_sequence", "sequences.make_phase_gate_sequence"),
    (cpgates.sequences, "gate_propagator", "sequences.gate_propagator"),
    (cpgates.sequences, "sequence_propagator", "su2.sequence_propagator"),
    (cpgates.su2, "infidelity", "su2.infidelity"),
]

_SEQUENCE_BUILDERS = {
    "sequences.composite_phases",
    "sequences.make_phase_gate_sequence",
    "sequences.broadband_phases",
    "sequences.detuning_phases",
    "sequences.universal_phases",
}
_SCANS = {"scan.scan_1d", "scan.scan_2d"}


class Span:
    __slots__ = ("name", "start", "end", "parent", "run_id", "child_ns", "attrs")

    def __init__(self, name, parent, run_id):
        self.name = name
        self.parent = parent
        self.run_id = run_id
        self.start = self.end = 0
        self.child_ns = 0
        self.attrs = {}

    @property
    def ns(self) -> int:
        return self.end - self.start

    @property
    def self_ns(self) -> int:
        return self.ns - self.child_ns


def _scan_attrs(original):
    signature = inspect.signature(original)

    def before(span, args, kwargs):
        bound = signature.bind(*args, **kwargs).arguments
        axes = tuple(v for k, v in bound.items() if k.startswith("axis"))
        template = bound["pulse_template"]
        points = 1
        for ax in axes:
            points *= ax.samples
        span.attrs.update(points=points, pulses=len(bound["seq"].phases),
                          grid=repr((template, axes)))
        return args, kwargs
    return before


def _grid_attrs(original):
    signature = inspect.signature(original)

    def before(span, args, kwargs):
        bound = signature.bind(*args, **kwargs).arguments
        span.attrs.update(shape=bound["shape"], model=bound["model"],
                          points=int(bound["omega0"].size))
        return args, kwargs
    return before


def _solve_batch_hooks(original):
    signature = inspect.signature(original)

    def before(span, args, kwargs):
        bound = signature.bind(*args, **kwargs)
        rhs = bound.arguments["rhs"]
        attrs = span.attrs
        attrs.update(points=int(len(bound.arguments["y0"])),
                     rhs_ns=0, rhs_calls=0, rhs_rows=0)

        def timed_rhs(t, y, idx):
            t0 = time.perf_counter_ns()
            out = rhs(t, y, idx)
            attrs["rhs_ns"] += time.perf_counter_ns() - t0
            attrs["rhs_calls"] += 1
            attrs["rhs_rows"] += len(y)
            return out

        bound.arguments["rhs"] = timed_rhs
        return bound.args, bound.kwargs

    def after(span, args, kwargs, result):
        span.attrs.update(steps=int(result.n_steps.sum()),
                          steps_max=int(result.n_steps.max(initial=0)),
                          failed=int((~result.success).sum()))
    return before, after


def _file_size_after(path_arg: int):
    def after(span, args, kwargs, result):
        span.attrs["bytes"] = os.path.getsize(args[path_arg])
    return after


class Tracer:
    """Records spans while installed; ``run_id`` tags spans with the pass."""

    def __init__(self):
        self.spans: list[Span] = []
        self.run_id = 0
        self._stack: list[Span] = []
        self._undo = []

    def install(self) -> None:
        for module, attr, name in _SITES:
            original = getattr(module, attr, None)
            if original is None:  # a layer the package no longer imports there
                continue
            before = after = None
            if name in _SCANS:
                before = _scan_attrs(original)
            elif name == "pulses.integrate_pulse_grid":
                before = _grid_attrs(original)
            elif name == "integrator.solve_batch":
                before, after = _solve_batch_hooks(original)
            elif name == "scan.save_scan_csv":
                after = _file_size_after(1)
            elif name == "scan.read_scan_csv":
                after = _file_size_after(0)
            setattr(module, attr, self._wrap(original, name, before, after))
            self._undo.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._undo):
            setattr(module, attr, original)
        self._undo.clear()

    def _wrap(self, original, name, before, after):
        stack = self._stack

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            span = Span(name, parent, self.run_id)
            if before is not None:
                args, kwargs = before(span, args, kwargs)
            self.spans.append(span)
            stack.append(span)
            span.start = time.perf_counter_ns()
            try:
                result = original(*args, **kwargs)
            finally:
                span.end = time.perf_counter_ns()
                stack.pop()
                if parent is not None:
                    parent.child_ns += span.ns
            if after is not None:
                after(span, args, kwargs, result)
            return result

        return traced

    def write(self, path) -> None:
        """One JSON line per span; ``parent`` is the parent's line number."""
        index = {id(span): i for i, span in enumerate(self.spans)}
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                parent = -1 if span.parent is None else index[id(span.parent)]
                fh.write(json.dumps({
                    "name": span.name, "start_ns": span.start,
                    "end_ns": span.end, "parent": parent,
                    "run_id": span.run_id, **span.attrs,
                }) + "\n")


def _ratio(num, den) -> float:
    return float(num) / den if den else 0.0


def layer_metrics(spans: list[Span], passes: int) -> dict[str, float]:
    """Per-layer metrics; extensive ones are per pass of the workload."""
    by_name = defaultdict(list)
    for span in spans:
        by_name[span.name].append(span)

    def total_ns(name):
        return sum(s.ns for s in by_name[name])

    def mean_us(items):
        return _ratio(sum(s.ns for s in items), len(items)) / 1e3

    scans = by_name["scan.scan_1d"] + by_name["scan.scan_2d"]
    grids = by_name["pulses.integrate_pulse_grid"]
    batches = by_name["integrator.solve_batch"]
    queries = by_name["pulses.constituent_propagator"]
    closed_ids = {id(s.parent) for s in by_name["pulses.resonant_rect_propagator"]}
    closed_queries = [q for q in queries if id(q) in closed_ids]
    integrated_queries = [q for q in queries if id(q) not in closed_ids]

    scan_ids = {id(s) for s in scans}
    scan_points = sum(s.attrs["points"] for s in scans)
    integrated_in_scans = sum(g.attrs["points"] for g in grids
                              if id(g.parent) in scan_ids)
    closed_points = scan_points - integrated_in_scans + len(closed_queries)

    requested = scan_points + len(queries)
    distinct = defaultdict(dict)
    for s in scans:
        distinct[s.run_id][s.attrs["grid"]] = s.attrs["points"]
    for q in queries:
        distinct[q.run_id][("query", id(q))] = 1
    distinct_points = sum(sum(run.values()) for run in distinct.values())

    def model_us(shape, model):
        chosen = [g for g in grids if g.attrs["shape"] == shape
                  and (model is None or g.attrs["model"] == model)]
        return _ratio(sum(g.ns for g in chosen),
                      sum(g.attrs["points"] for g in chosen)) / 1e3

    builders = [s for name in _SEQUENCE_BUILDERS for s in by_name[name]]
    rhs_ns = sum(b.attrs["rhs_ns"] for b in batches)
    batch_points = sum(b.attrs["points"] for b in batches)
    rhs_rows = sum(b.attrs["rhs_rows"] for b in batches)
    scan_self_ns = sum(s.self_ns for s in scans)
    point_pulses = sum(s.attrs["points"] * s.attrs["pulses"] for s in scans)
    writes = by_name["scan.save_scan_csv"]
    reads = by_name["scan.read_scan_csv"]
    write_bytes = sum(s.attrs["bytes"] for s in writes)
    read_bytes = sum(s.attrs["bytes"] for s in reads)

    return {
        "cli.self_s": sum(s.self_ns for s in by_name["cli.main"]) / 1e9 / passes,
        "presets.build_s": total_ns("presets.preset_jobs") / 1e9 / passes,
        "sequences.build_us": _ratio(sum(s.ns for s in builders),
                                     len(by_name["sequences.make_phase_gate_sequence"])) / 1e3,
        "su2.gate_us": mean_us(by_name["su2.sequence_propagator"]),
        "su2.infidelity_us": mean_us(by_name["su2.infidelity"]),
        "pulses.closed_form.points": closed_points / passes,
        "pulses.integrated.points": sum(g.attrs["points"] for g in grids) / passes,
        "pulses.rect.us_per_point": model_us("rectangular", None),
        "pulses.sech.us_per_point": model_us("sech", "constant"),
        "pulses.sech_tanh.us_per_point": model_us("sech", "tanh_chirp"),
        "pulses.rhs_s": rhs_ns / 1e9 / passes,
        "pulses.grid_reuse": _ratio(requested, distinct_points),
        "pulses.query_us.closed": mean_us(closed_queries),
        "pulses.query_us.integrated": mean_us(integrated_queries),
        "integrator.self_s": (sum(b.ns for b in batches) - rhs_ns) / 1e9 / passes,
        "integrator.steps_per_point": _ratio(sum(b.attrs["steps"] for b in batches),
                                             batch_points),
        "integrator.steps_per_point.max": max((b.attrs["steps_max"] for b in batches),
                                              default=0),
        "integrator.rhs_evals_per_point": _ratio(rhs_rows, batch_points),
        "integrator.rhs_rows_per_call": _ratio(rhs_rows,
                                               sum(b.attrs["rhs_calls"] for b in batches)),
        "integrator.failed_points": sum(b.attrs["failed"] for b in batches) / passes,
        "scan.self_s": scan_self_ns / 1e9 / passes,
        "scan.self_ns_per_point_pulse": _ratio(scan_self_ns, point_pulses),
        "scan.write_s": total_ns("scan.save_scan_csv") / 1e9 / passes,
        "scan.write_MBps": _ratio(write_bytes / 1e6, total_ns("scan.save_scan_csv") / 1e9),
        "scan.csv_bytes": write_bytes / passes,
        "scan.read_s": total_ns("scan.read_scan_csv") / 1e9 / passes,
        "scan.read_MBps": _ratio(read_bytes / 1e6, total_ns("scan.read_scan_csv") / 1e9),
    }
