"""Operations, reference answers and correctness checks of the workloads.

Each workload object runs one generated op and returns its wall time and
result, checks the result, and names the bytes the op emitted for the
byte-drift check. Library calls go through module attributes
(``sweep.classify_grid``, ``cli.main``), so the tracer can wrap them.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import vinebuckle
from vinebuckle import calibration, cli, device, mechanics, sim, sweep, units
from vinebuckle.mechanics import RobotState, Verdict
from vinebuckle.sim import TerminalKind

import gen

BODY = vinebuckle.BodySpec()
DEVICE = vinebuckle.DeviceSpec()
CALL_TIMEOUT_S = 60.0


def reference_kernel() -> float:
    """Seconds taken by a fixed slice of pure-Python float math, float
    formatting and small allocations: the kinds of work the library does,
    with none of its code.

    A shared 2-vCPU Xeon host drifts between a fast and a ~1.7x slower mode
    every few seconds. The benchmark scales each op's time by a workload's
    nominal reference time over a reference measured around the op, which
    slows down with the host but not with the library, so the drift mostly
    cancels while a change to vinebuckle still moves the scaled time.
    """
    t0 = time.perf_counter()
    acc = []
    for i in range(1200):
        x = i * 0.001
        acc.append((math.sin(x) + math.sqrt(x), repr(x * 1.5), {"k": x}))
    return time.perf_counter() - t0


KERNEL_REFERENCE_S = 0.0015  # about kernel_reference() on that host, between its modes


def kernel_reference() -> float:
    """The fastest of three reference_kernel() runs: a single run now and
    then takes several times as long, which would skew what is scaled by it."""
    return min(reference_kernel() for _ in range(3))


def child_env(root: Path) -> dict:
    """The environment of a child process, with this checkout's src/ first."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(root / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    return env


class InProcessWorkload:
    """Ops that run in this process on inputs held in memory."""

    REFERENCE_S = KERNEL_REFERENCE_S

    def __init__(self, root: Path, workdir: Path):
        pass

    def prepare(self, ops: list[dict]) -> None:
        pass

    def reference_seconds(self) -> float:
        return kernel_reference()


class SweepWorkload(InProcessWorkload):
    """phase-sweep: classify, optionally cross-check, and emit one diagram."""

    name = "phase-sweep"
    op_name = "diagram"

    @staticmethod
    def request(spec: dict) -> sweep.SweepRequest:
        return sweep.SweepRequest(
            body=BODY,
            curvature=spec["curvature"],
            pressure_range=sweep.AxisRange(
                0.0, units.kpa_to_pa(gen.SWEEP_P_HI_KPA), spec["p_steps"]
            ),
            length_range=sweep.AxisRange(0.0, units.cm_to_m(gen.SWEEP_L_HI_CM), spec["l_steps"]),
            device=DEVICE if spec["device"] else None,
            efficiency=spec["efficiency"],
        )

    def run(self, spec: dict, in_process: bool = True) -> tuple[float, tuple]:
        t0 = time.perf_counter()
        request = self.request(spec)
        diagram = sweep.classify_grid(request)
        reference = agree = None
        if spec["oracle"]:
            reference = sweep.oracle_scan(request)
            agree = sweep.diagrams_agree(diagram, reference)
        outputs = {
            "csv": sweep.emit_diagram(diagram, "csv"),
            "svg": sweep.emit_diagram(diagram, "svg"),
            "transition": sweep.emit_transition_csv(diagram),
        }
        return time.perf_counter() - t0, (diagram, reference, agree, outputs)

    def check(self, spec: dict, result: tuple) -> tuple[bool, int]:
        """Every cell inverts exactly when its margin is positive, and a
        cross-checked grid agrees with the oracle cell for cell."""
        diagram, reference, agree, _ = result
        cells = sum(len(row) for row in diagram.grid)
        ok = cells == spec["p_steps"] * spec["l_steps"] and all(
            (cell.margin > 0) == (cell.verdict is Verdict.INVERT)
            for row in diagram.grid
            for cell in row
        )
        if spec["oracle"]:
            ok = ok and agree is True and all(
                a.verdict is b.verdict
                for row_a, row_b in zip(diagram.grid, reference.grid)
                for a, b in zip(row_a, row_b)
            )
        return ok, cells if ok else 0

    def drift_outputs(self, spec: dict) -> dict[str, bytes]:
        # the oracle emits nothing, so it is left out here to keep the check short
        return self.run({**spec, "oracle": False})[1][3]


class EpisodeWorkload(InProcessWorkload):
    """episodes: one retraction or growth episode and its CSV log."""

    name = "episodes"
    op_name = "episode"

    @staticmethod
    def scenario(spec: dict) -> sim.Scenario:
        points = spec["pressure_points"]
        return sim.Scenario(
            body=BODY,
            initial_length=spec["initial_length"],
            pressure=spec["pressure"],
            pressure_points=None if points is None else tuple(tuple(p) for p in points),
            curvature=spec["curvature"],
            device=DEVICE if spec["device"] else None,
            efficiency=spec["efficiency"],
            step=spec["step"],
            target_length=spec["target_length"],
        )

    def run(self, spec: dict, in_process: bool = True) -> tuple[float, tuple]:
        t0 = time.perf_counter()
        scenario = self.scenario(spec)
        if spec["mode"] == "grow":
            log = sim.simulate_growth(scenario)
        else:
            log = sim.simulate_retraction(scenario)
        outputs = {"episode": sim.emit_episode_csv(log)}
        return time.perf_counter() - t0, (log, outputs)

    def check(self, spec: dict, result: tuple) -> tuple[bool, int]:
        """A retraction's last step buckles exactly when the episode ends
        BUCKLED, and a full retraction takes ceil(initial_length/step) steps.
        A growth logs ceil((target-initial)/step) steps and ends BUCKLED at
        its first buckling length, if any."""
        log, _ = result
        steps = log.steps
        kind = log.terminal.kind
        buckled = kind is TerminalKind.BUCKLED
        if spec["mode"] == "retract":
            ok = bool(steps) and (steps[-1].verdict is Verdict.BUCKLE) == buckled
            if kind is TerminalKind.FULLY_RETRACTED:
                ok = ok and len(steps) == math.ceil(spec["initial_length"] / spec["step"])
            elif buckled:
                ok = ok and log.terminal.length == steps[-1].tip_position and all(
                    r.verdict is Verdict.INVERT for r in steps[:-1]
                )
            else:
                ok = False
        else:
            first = next((r.tip_position for r in steps if r.verdict is Verdict.BUCKLE), None)
            expected = math.ceil((spec["target_length"] - spec["initial_length"]) / spec["step"])
            ok = (
                len(steps) == expected
                and buckled == (first is not None)
                and (not buckled or log.terminal.length == first)
            )
        return ok, len(steps) if ok else 0

    def drift_outputs(self, spec: dict) -> dict[str, bytes]:
        return self.run(spec)[1][1]


# ---------------------------------------------------------------------------
# cli-cold

_BOOL_FLAGS = {"--device", "--oracle-check", "--json"}


def _options(argv: list[str]) -> dict:
    opts, i = {}, 0
    while i < len(argv):
        if argv[i] in _BOOL_FLAGS:
            opts[argv[i]] = True
            i += 1
        elif argv[i].startswith("--"):
            opts[argv[i]] = argv[i + 1]
            i += 2
        else:
            i += 1
    return opts


def _num(value: float):
    return None if math.isinf(value) or math.isnan(value) else value


def _prediction_doc(prediction) -> dict:
    return {
        "verdict": prediction.verdict.value,
        "mode": prediction.mode.value,
        "required_n": _num(prediction.required_tension),
        "limit_n": _num(prediction.limiting_force),
        "margin_n": _num(prediction.margin),
        "model": prediction.model_used.value,
        "extrapolated": prediction.extrapolated,
    }


def _axis(text: str, to_si) -> sweep.AxisRange:
    lo, hi, steps = text.split(":")
    return sweep.AxisRange(lo=to_si(float(lo)), hi=to_si(float(hi)), steps=int(steps))


class CliResult:
    __slots__ = ("code", "stdout", "files", "maxrss_kb")

    def __init__(self, code: int, stdout: bytes, files: dict, maxrss_kb: int = 0):
        self.code, self.stdout, self.files, self.maxrss_kb = code, stdout, files, maxrss_kb


class CliWorkload:
    """cli-cold: one ``python -m vinebuckle.cli`` call in a fresh process.

    The call's stdout and written files must equal, byte for byte, the
    documents built here from the library's in-process answer.
    """

    name = "cli-cold"
    op_name = "call"
    # The reference is a process like a call without the library: interpreter
    # start plus stdlib imports the CLI also makes. Process start and import
    # slow down with the host in ways the in-process kernel does not follow.
    REFERENCE_S = 0.1
    REFERENCE_CODE = "import argparse, csv, dataclasses, enum, json, math, pathlib"

    def __init__(self, root: Path, workdir: Path):
        self.root = root
        self.workdir = workdir
        self.env = child_env(root)
        self.peak_rss_kb = 0
        self._references: dict[int, tuple[bytes, dict]] = {}

    def prepare(self, ops: list[dict]) -> None:
        for op in ops:
            for name, content in op["files"].items():
                text = content if isinstance(content, str) else json.dumps(content)
                (self.workdir / name).write_text(text, encoding="utf-8")

    def argv(self, op: dict) -> list[str]:
        fixtures = (gen.TENSION_FIXTURE, gen.APERTURE_FIXTURE)
        return [str(self.root / a) if a in fixtures else a for a in op["argv"]]

    def _path(self, name: str) -> Path:
        return self.root / name if name in (gen.TENSION_FIXTURE, gen.APERTURE_FIXTURE) else (
            self.workdir / name
        )

    def run(self, op: dict, in_process: bool = False) -> tuple[float, CliResult]:
        for name in op["out"]:
            (self.workdir / name).unlink(missing_ok=True)
        if in_process:
            seconds, code, stdout, rss = self._call_in_process(op)
        else:
            seconds, code, stdout, rss = self._spawn(op)
            self.peak_rss_kb = max(self.peak_rss_kb, rss)
        files = {}
        for name in op["out"]:
            path = self.workdir / name
            files[name] = path.read_bytes() if path.exists() else None
        return seconds, CliResult(code, stdout, files, rss)

    def reference_seconds(self) -> float:
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", self.REFERENCE_CODE], cwd=self.workdir,
                       env=self.env, check=True, timeout=CALL_TIMEOUT_S)
        return time.perf_counter() - t0

    def _spawn(self, op: dict) -> tuple[float, int, bytes, int]:
        out_path = self.workdir / ".stdout"
        with open(out_path, "wb") as out, open(self.workdir / ".stderr", "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, "-m", "vinebuckle.cli", *self.argv(op)],
                cwd=self.workdir, env=self.env, stdout=out, stderr=err,
            )
            watchdog = threading.Timer(CALL_TIMEOUT_S, proc.kill)
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                watchdog.cancel()
            seconds = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        return seconds, proc.returncode, out_path.read_bytes(), usage.ru_maxrss

    def _call_in_process(self, op: dict) -> tuple[float, int, bytes, int]:
        stdout, stderr = io.StringIO(), io.StringIO()
        previous = os.getcwd()
        os.chdir(self.workdir)
        try:
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                t0 = time.perf_counter()
                code = cli.main(self.argv(op))
                seconds = time.perf_counter() - t0
        finally:
            os.chdir(previous)
        return seconds, code, stdout.getvalue().encode("utf-8"), 0

    def check(self, op: dict, result: CliResult) -> tuple[bool, int]:
        """Exit 0, and stdout and every written file equal the reference."""
        stdout, files = self.reference(op)
        ok = result.code == 0 and result.stdout == stdout and result.files == files
        return ok, 1 if ok else 0

    def drift_outputs(self, op: dict) -> dict[str, bytes]:
        stdout, files = self.reference(op)
        return {"stdout": stdout, **files}

    def reference(self, op: dict) -> tuple[bytes, dict]:
        key = id(op)
        if key not in self._references:
            self._references[key] = self._build_reference(op)
        return self._references[key]

    def _build_reference(self, op: dict) -> tuple[bytes, dict]:
        argv = op["argv"]
        opts = _options(argv)
        files: dict[str, bytes] = {}
        command = argv[0]
        if command == "predict":
            body, dev, cfg_eff, _ = cli.load_config(None)
            with_device = "--device" in opts
            efficiency = float(opts["--efficiency"]) if "--efficiency" in opts else cfg_eff
            state = RobotState(
                length=units.cm_to_m(float(opts["--length-cm"])),
                pressure=units.kpa_to_pa(float(opts["--pressure-kpa"])),
                curvature=float(opts["--kappa-per-m"]),
            )
            if with_device:
                prediction = device.predict_with_device(body, dev, state, efficiency)
            else:
                prediction = mechanics.predict_behavior(body, state)
            doc = {
                "input": {
                    "pressure_kpa": units.pa_to_kpa(state.pressure),
                    "length_cm": units.m_to_cm(state.length),
                    "kappa_per_m": state.curvature,
                    "device": with_device,
                    "efficiency": efficiency if with_device else None,
                },
                **_prediction_doc(prediction),
            }
        elif command == "transition":
            body, _, _, _ = cli.load_config(None)
            pressure = units.kpa_to_pa(float(opts["--pressure-kpa"]))
            kappa = float(opts["--kappa-per-m"])
            critical = mechanics.transition_length(body, pressure, kappa)
            doc = {
                "input": {"pressure_kpa": units.pa_to_kpa(pressure), "kappa_per_m": kappa},
                "critical_length_cm": None if critical is None else units.m_to_cm(critical),
            }
        elif command == "device":
            body, dev, efficiency, _ = cli.load_config(str(self._path(opts["--config"])))
            kin = device.retraction_kinematics(dev, dev.motor_speed_max)
            doc = {
                "max_device_force_n": device.max_device_force(dev),
                "max_zero_tension_kpa": units.pa_to_kpa(
                    device.max_zero_tension_pressure(
                        body, dev, efficiency=1.0, inversion_force=body.inversion_force
                    )
                ),
                "max_zero_tension_aperture_kpa": units.pa_to_kpa(
                    device.max_zero_tension_pressure(body, dev, efficiency=efficiency)
                ),
                "tip_speed_cm_s": units.m_to_cm(kin.tip_speed),
                "roller_surface_cm_s": units.m_to_cm(kin.roller_surface_speed),
                "base_takeup_cm_s": units.m_to_cm(kin.base_takeup_speed),
                "aperture_inversion_n": device.aperture_inversion_force(dev),
                "min_inversion_pressure_kpa": units.pa_to_kpa(mechanics.min_inversion_pressure(body)),
                "efficiency": efficiency,
            }
        elif command == "fit" and argv[1] == "inversion":
            body, _, _, _ = cli.load_config(None)
            samples = calibration.load_measurements(self._path(opts["--csv"]), "tension")
            fit = calibration.fit_inversion_force(samples, body.cross_section_area)
            doc = {
                "samples": len(samples),
                "f_i_n": fit.inversion_force,
                "residual_rms_n": fit.residual_rms,
                "slope_n_per_kpa": units.kpa_to_pa(0.5 * body.cross_section_area),
            }
        elif command == "fit":
            samples = calibration.load_measurements(self._path(opts["--csv"]), "aperture")
            if "--shape" in opts:
                samples = calibration.filter_by_shape(
                    samples, calibration.ApertureShape(opts["--shape"])
                )
            fit = calibration.fit_aperture_constants(samples)
            doc = {
                "samples": len(samples),
                "c1_ncm2": units.nm2_to_ncm2(fit.c1),
                "c2_n": fit.c2,
                "residual_rms_n": fit.residual_rms,
            }
        elif command == "sweep":
            body, dev, cfg_eff, _ = cli.load_config(None)
            request = sweep.SweepRequest(
                body=body,
                curvature=float(opts["--kappa-per-m"]),
                pressure_range=_axis(opts["--p"], units.kpa_to_pa),
                length_range=_axis(opts["--l"], units.cm_to_m),
                device=dev if "--device" in opts else None,
                efficiency=float(opts["--efficiency"]) if "--efficiency" in opts else cfg_eff,
            )
            diagram = sweep.classify_grid(request)
            oracle = "--oracle-check" in opts
            if oracle and not sweep.diagrams_agree(diagram, sweep.oracle_scan(request)):
                # the CLI exits 3 here; an empty reference makes the call fail
                return b"", {}
            emitters = (
                ("--out-csv", lambda: sweep.emit_diagram(diagram, "csv")),
                ("--out-svg", lambda: sweep.emit_diagram(diagram, "svg")),
                ("--out-transition-csv", lambda: sweep.emit_transition_csv(diagram)),
            )
            written = []
            for flag, emit in emitters:
                if flag in opts:
                    files[opts[flag]] = emit()
                    written.append(opts[flag])
            invert = sum(
                1 for row in diagram.grid for cell in row if cell.verdict is Verdict.INVERT
            )
            total = len(diagram.pressures) * len(diagram.lengths)
            doc = {
                "input": diagram.metadata,
                "cells": total,
                "invert": invert,
                "buckle": total - invert,
                "transition_points": len(diagram.transition_curve),
                "oracle_check": "ok" if oracle else "skipped",
                "written": written,
            }
        elif command == "simulate":
            scenario_doc = json.loads(self._path(opts["--scenario"]).read_text(encoding="utf-8"))
            scenario, mode = cli.scenario_from_json(scenario_doc)
            if mode == "grow":
                log = sim.simulate_growth(scenario)
            else:
                log = sim.simulate_retraction(scenario)
            written = []
            if "--out-csv" in opts:
                files[opts["--out-csv"]] = sim.emit_episode_csv(log)
                written.append(opts["--out-csv"])
            doc = {
                "mode": mode,
                "steps": len(log.steps),
                "terminal": log.terminal.kind.value,
                "terminal_length_cm": (
                    None if log.terminal.length is None else units.m_to_cm(log.terminal.length)
                ),
                "written": written,
            }
        else:
            raise ValueError(f"no reference for command {argv!r}")
        return (json.dumps(doc, indent=2) + "\n").encode("utf-8"), files


WORKLOADS = {w.name: w for w in (CliWorkload, SweepWorkload, EpisodeWorkload)}
