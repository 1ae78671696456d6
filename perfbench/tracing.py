"""Spans around the calls into each vinebuckle module, from outside the library.

``Tracer.installed()`` replaces each traced public function in every
vinebuckle module namespace that binds it (``sweep`` imports
``predict_behavior`` by name, for example) with a wrapper, and puts the
originals back on exit. Calls of coarse functions become spans (name, start,
end, parent span, op id) kept in memory; the per-cell and per-step leaf
calls are tallied instead, as (calls, ns), and charged to the enclosing span
as child time. A span's self time is its duration minus its children's.
"""

from __future__ import annotations

import contextlib
import json
import math
import statistics
import sys
import time
from pathlib import Path

from vinebuckle import calibration, cli, device, mechanics, sim, sweep
from vinebuckle.mechanics import KAPPA_STRAIGHT
from vinebuckle.sim import TerminalKind

MODULES = ("vinebuckle", "vinebuckle.cli", "vinebuckle.calibration", "vinebuckle.device",
           "vinebuckle.mechanics", "vinebuckle.sim", "vinebuckle.sweep")


def _cells(diagram) -> int:
    return sum(len(row) for row in diagram.grid)


def _classify_info(args, kwargs, diagram):
    request = args[0]
    saturated = 0
    if request.device is not None:
        saturated = sum(
            1 for row in diagram.grid for cell in row if math.isinf(cell.limiting_force)
        )
    return (_cells(diagram), request.curvature >= KAPPA_STRAIGHT, request.device is not None,
            saturated)


def _agree_info(args, kwargs, result):
    a, b = args
    agreeing = sum(
        1 for row_a, row_b in zip(a.grid, b.grid) for x, y in zip(row_a, row_b)
        if x.verdict is y.verdict
    )
    return (_cells(a), agreeing)


def _episode_info(args, kwargs, log):
    return (len(log.steps), log.terminal.kind is TerminalKind.BUCKLED,
            args[0].pressure_points is not None)


# name -> (module, attribute, info(args, kwargs, result) or None)
SPANNED = {
    "cli.main": (cli, "main", lambda a, k, code: (a[0][0], code)),
    "calibration.load_measurements": (calibration, "load_measurements",
                                      lambda a, k, rows: len(rows)),
    "calibration.fit_inversion_force": (calibration, "fit_inversion_force", None),
    "calibration.fit_aperture_constants": (calibration, "fit_aperture_constants", None),
    "sweep.classify_grid": (sweep, "classify_grid", _classify_info),
    "sweep.oracle_scan": (sweep, "oracle_scan", lambda a, k, d: _cells(d)),
    "sweep.diagrams_agree": (sweep, "diagrams_agree", _agree_info),
    "sweep.emit_diagram": (sweep, "emit_diagram", lambda a, k, b: (a[1], _cells(a[0]))),
    "sweep.emit_transition_csv": (sweep, "emit_transition_csv", None),
    "sim.simulate_retraction": (sim, "simulate_retraction", _episode_info),
    "sim.simulate_growth": (sim, "simulate_growth", _episode_info),
    "sim.emit_episode_csv": (sim, "emit_episode_csv", lambda a, k, b: len(a[0].steps)),
}
LEAVES = {
    "mechanics.predict_behavior": (mechanics, "predict_behavior"),
    "mechanics.transition_length": (mechanics, "transition_length"),
    "device.predict_with_device": (device, "predict_with_device"),
}


class Span:
    __slots__ = ("name", "start", "end", "parent", "op", "child_ns", "info")

    def __init__(self, name: str, parent: int, op: int):
        self.name, self.parent, self.op = name, parent, op
        self.start = self.end = self.child_ns = 0
        self.info = None

    @property
    def ns(self) -> int:
        return self.end - self.start

    @property
    def self_ns(self) -> int:
        return self.ns - self.child_ns


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.leaves = {name: [0, 0] for name in LEAVES}
        self.op = -1
        self._stack: list[int] = []

    @contextlib.contextmanager
    def root(self, name: str, op: int):
        """Span around one workload op; the spans it causes share its op id."""
        self.op = op
        span = self._open(name)
        try:
            yield span
        finally:
            self._close(span)

    def _open(self, name: str) -> Span:
        span = Span(name, self._stack[-1] if self._stack else -1, self.op)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span.start = time.perf_counter_ns()
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter_ns()
        self._stack.pop()
        if self._stack:
            self.spans[self._stack[-1]].child_ns += span.ns

    def _span_wrapper(self, name, fn, info):
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if info is not None:
                span.info = info(args, kwargs, result)
            return result
        return traced

    def _leaf_wrapper(self, name, fn):
        tally = self.leaves[name]
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            t0 = clock()
            result = fn(*args, **kwargs)
            ns = clock() - t0
            tally[0] += 1
            tally[1] += ns
            if stack:
                spans[stack[-1]].child_ns += ns
            return result
        return traced

    @contextlib.contextmanager
    def installed(self):
        wrappers = {}
        for name, (module, attr, info) in SPANNED.items():
            fn = getattr(module, attr)
            wrappers[id(fn)] = (fn, self._span_wrapper(name, fn, info))
        for name, (module, attr) in LEAVES.items():
            fn = getattr(module, attr)
            wrappers[id(fn)] = (fn, self._leaf_wrapper(name, fn))
        patched = []
        for module_name in MODULES:
            module = sys.modules[module_name]
            for attr, value in list(vars(module).items()):
                entry = wrappers.get(id(value))
                if entry is not None and entry[0] is value:
                    setattr(module, attr, entry[1])
                    patched.append((module, attr, value))
        try:
            yield self
        finally:
            for module, attr, value in patched:
                setattr(module, attr, value)

    def dump(self, path: Path) -> None:
        rows = [
            [s.name, s.start, s.end, s.parent, s.op, s.self_ns] for s in self.spans
        ]
        doc = {
            "columns": ["name", "start_ns", "end_ns", "parent", "op", "self_ns"],
            "spans": rows,
            "leaves": {k: {"calls": c, "ns": ns} for k, (c, ns) in self.leaves.items()},
        }
        path.write_text(json.dumps(doc), encoding="utf-8")

    def table(self) -> list[str]:
        """Per span name: count, total and self time, largest total first."""
        totals: dict[str, list[int]] = {}
        for s in self.spans:
            t = totals.setdefault(s.name, [0, 0, 0])
            t[0] += 1
            t[1] += s.ns
            t[2] += s.self_ns
        lines = [f"{'span':36s} {'count':>7s} {'total_ms':>11s} {'self_ms':>11s}"]
        for name, (count, total, self_ns) in sorted(totals.items(), key=lambda kv: -kv[1][1]):
            lines.append(f"{name:36s} {count:7d} {total / 1e6:11.3f} {self_ns / 1e6:11.3f}")
        for name, (calls, ns) in self.leaves.items():
            if calls:
                lines.append(f"{name + ' (leaf)':36s} {calls:7d} {ns / 1e6:11.3f} {ns / 1e6:11.3f}")
        return lines


# ---------------------------------------------------------------------------
# per-layer metrics

# layer group -> {metric: unit}; a group's metrics come from the
# workload's own calls when it made any, otherwise from the CLI probe
GROUPS = {
    "cli": {
        "cli.predict_s": "s", "cli.transition_s": "s", "cli.device_info_s": "s",
        "cli.fit_s": "s", "cli.sweep_s": "s", "cli.simulate_s": "s",
        "cli.calls": "count", "cli.failed": "count",
    },
    "calibration": {
        "calibration.load_us_per_row": "us", "calibration.fit_inversion_us": "us",
        "calibration.fit_aperture_us": "us", "calibration.rows": "count",
    },
    "mechanics.predict_behavior": {
        "mechanics.predict_behavior_us": "us", "mechanics.predict_behavior_calls": "count",
    },
    "mechanics.transition_length": {
        "mechanics.transition_length_us": "us", "mechanics.transition_length_calls": "count",
    },
    "device.predict_with_device": {
        "device.predict_with_device_us": "us", "device.predict_with_device_calls": "count",
    },
    "sweep": {
        "sweep.classify_us_per_cell": "us", "sweep.oracle_us_per_cell": "us",
        "sweep.emit_csv_us_per_cell": "us", "sweep.emit_svg_us_per_cell": "us",
        "sweep.emit_transition_us": "us", "sweep.cells": "count", "sweep.oracle_cells": "count",
        "sweep.agree_ratio": "ratio", "sweep.curved_share": "ratio",
        "sweep.saturated_share": "ratio",
    },
    "sim": {
        "sim.retract_us_per_step": "us", "sim.grow_us_per_step": "us",
        "sim.emit_us_per_step": "us", "sim.steps": "count", "sim.episodes": "count",
        "sim.buckled_share": "ratio", "sim.scheduled_share": "ratio",
    },
}
CLI_COMMAND_METRIC = {
    "predict": "cli.predict_s", "transition": "cli.transition_s", "device": "cli.device_info_s",
    "fit": "cli.fit_s", "sweep": "cli.sweep_s", "simulate": "cli.simulate_s",
}


def _div(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metrics(tracer: Tracer) -> tuple[dict[str, float], set[str]]:
    """Per-layer metric values and the set of groups the traced calls entered."""
    by_name: dict[str, list[Span]] = {}
    for s in tracer.spans:
        by_name.setdefault(s.name, []).append(s)

    def spans(name):
        return by_name.get(name, [])

    m: dict[str, float] = {}
    entered = set()

    calls = spans("cli.main")
    per_command: dict[str, list[float]] = {}
    for s in calls:
        per_command.setdefault(CLI_COMMAND_METRIC[s.info[0]], []).append(s.ns / 1e9)
    for metric in CLI_COMMAND_METRIC.values():
        m[metric] = statistics.median(per_command[metric]) if metric in per_command else 0.0
    m["cli.calls"] = len(calls)
    m["cli.failed"] = sum(1 for s in calls if s.info[1] != 0)
    if calls:
        entered.add("cli")

    loads = spans("calibration.load_measurements")
    rows = sum(s.info for s in loads)
    m["calibration.load_us_per_row"] = _div(sum(s.ns for s in loads) / 1e3, rows)
    for metric, name in (("calibration.fit_inversion_us", "calibration.fit_inversion_force"),
                         ("calibration.fit_aperture_us", "calibration.fit_aperture_constants")):
        fits = spans(name)
        m[metric] = _div(sum(s.ns for s in fits) / 1e3, len(fits))
    m["calibration.rows"] = rows
    if rows:
        entered.add("calibration")

    for group, (calls_n, ns) in tracer.leaves.items():
        m[f"{group}_us"] = _div(ns / 1e3, calls_n)
        m[f"{group}_calls"] = calls_n
        if calls_n:
            entered.add(group)

    grids = spans("sweep.classify_grid")
    cells = sum(s.info[0] for s in grids)
    m["sweep.classify_us_per_cell"] = _div(sum(s.ns for s in grids) / 1e3, cells)
    oracles = spans("sweep.oracle_scan")
    oracle_cells = sum(s.info for s in oracles)
    m["sweep.oracle_us_per_cell"] = _div(sum(s.ns for s in oracles) / 1e3, oracle_cells)
    for fmt in ("csv", "svg"):
        emits = [s for s in spans("sweep.emit_diagram") if s.info[0] == fmt]
        m[f"sweep.emit_{fmt}_us_per_cell"] = _div(
            sum(s.ns for s in emits) / 1e3, sum(s.info[1] for s in emits)
        )
    transitions = spans("sweep.emit_transition_csv")
    m["sweep.emit_transition_us"] = _div(sum(s.ns for s in transitions) / 1e3, len(transitions))
    m["sweep.cells"] = cells
    m["sweep.oracle_cells"] = oracle_cells
    agreements = spans("sweep.diagrams_agree")
    m["sweep.agree_ratio"] = _div(sum(s.info[1] for s in agreements),
                                  sum(s.info[0] for s in agreements))
    m["sweep.curved_share"] = _div(sum(s.info[0] for s in grids if s.info[1]), cells)
    m["sweep.saturated_share"] = _div(sum(s.info[3] for s in grids),
                                      sum(s.info[0] for s in grids if s.info[2]))
    if cells:
        entered.add("sweep")

    retracts, grows = spans("sim.simulate_retraction"), spans("sim.simulate_growth")
    episodes = retracts + grows
    steps = sum(s.info[0] for s in episodes)
    for metric, group in (("sim.retract_us_per_step", retracts), ("sim.grow_us_per_step", grows)):
        m[metric] = _div(sum(s.ns for s in group) / 1e3, sum(s.info[0] for s in group))
    emits = spans("sim.emit_episode_csv")
    m["sim.emit_us_per_step"] = _div(sum(s.ns for s in emits) / 1e3, sum(s.info for s in emits))
    m["sim.steps"] = steps
    m["sim.episodes"] = len(episodes)
    m["sim.buckled_share"] = _div(sum(1 for s in episodes if s.info[1]), len(episodes))
    m["sim.scheduled_share"] = _div(sum(s.info[0] for s in episodes if s.info[2]), steps)
    if episodes:
        entered.add("sim")
    return m, entered


def merge(own: dict, own_groups: set, probe: dict | None) -> tuple[dict, list[str]]:
    """Take each group from the workload's own calls, or from the probe."""
    merged, from_probe = {}, []
    for group, metrics in GROUPS.items():
        source = own
        if group not in own_groups and probe is not None:
            source = probe
            from_probe.append(group)
        for name in metrics:
            merged[name] = source[name]
    return merged, from_probe


def unit(name: str) -> str:
    for metrics in GROUPS.values():
        if name in metrics:
            return metrics[name]
    return {"startup.interpreter_s": "s", "startup.import_s": "s",
            "trace.overhead_ratio": "ratio"}[name]

