"""Command line interface.

Bench units at the boundary (kPa, cm, N, N*cm, RPM), SI inside. Built-in
defaults reproduce the reference robot and device with zero configuration;
a JSON config document overrides individual fields. Exit codes: 0 success,
1 usage error, 2 input validation, 3 numeric cross-check failure. Errors go
to stderr with an ``error:`` prefix. Every non-finite, out-of-range or
wrongly typed input that a command uses exits 2, and so does a finite input
so extreme that the model's arithmetic overflows or divides by an
underflowed zero.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path
from typing import Any, Optional

from . import calibration, sim, sweep, units
from .calibration import ApertureShape
from .device import (
    DeviceSpec,
    aperture_inversion_force,
    max_device_force,
    max_zero_tension_pressure,
    retraction_kinematics,
)
from .mechanics import (
    BehaviorPrediction,
    BodySpec,
    CrossCheckError,
    RobotState,
    min_inversion_pressure,
    predict_behavior,
    transition_length,
)
from .device import predict_with_device
from .version import __version__

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VALIDATION = 2
EXIT_CROSSCHECK = 3


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        raise UsageError(message)


def main(argv: Optional[list[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SystemExit as exc:  # --help
        code = exc.code
        return 0 if code in (0, None) else int(code)
    try:
        return args.handler(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except CrossCheckError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CROSSCHECK
    except ArithmeticError as exc:  # overflow or underflow to zero from extreme inputs
        print(f"error: inputs out of the model's numeric range ({exc})", file=sys.stderr)
        return EXIT_VALIDATION
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


# ---------------------------------------------------------------------------
# configuration document

_BODY_KEYS = {"radius_cm", "thickness_um", "e_mpa", "g_mpa", "f_i_n"}
_DEVICE_KEYS = {
    "torque_ncm",
    "roller_radius_cm",
    "rpm_max",
    "tip_ring_diameter_cm",
    "routing_aperture_cm2",
    "c1_ncm2",
    "c2_n",
    "efficiency",
    "mu_s",
    "normal_force_n",
}


def load_config(path: Optional[str]) -> tuple[BodySpec, DeviceSpec, float, dict]:
    """Build body and device from a JSON config document.

    Missing fields take the built-in reference values; all present fields
    must be positive numbers. Returns (body, device, efficiency, defaults).
    """
    if path is None:
        doc: dict = {}
    else:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
        if not isinstance(doc, dict):
            raise ValueError("config document must be a JSON object")
    return load_config_from_doc(doc)


def load_config_from_doc(doc: dict) -> tuple[BodySpec, DeviceSpec, float, dict]:
    """As ``load_config``, but from an in-memory document."""
    unknown_sections = set(doc) - {"body", "device", "defaults"}
    if unknown_sections:
        raise ValueError(f"unknown config sections: {sorted(unknown_sections)}")
    body_sec = _section(doc, "body", _BODY_KEYS)
    dev_sec = _section(doc, "device", _DEVICE_KEYS)

    body = BodySpec(
        radius=units.cm_to_m(body_sec.get("radius_cm", 4.25)),
        wall_thickness=units.um_to_m(body_sec.get("thickness_um", 74.0)),
        youngs_modulus=units.mpa_to_pa(body_sec.get("e_mpa", 300.0)),
        shear_modulus=units.mpa_to_pa(body_sec.get("g_mpa", 210.0)),
        inversion_force=body_sec.get("f_i_n", 3.5),
    )
    ring_radius = units.cm_to_m(dev_sec.get("tip_ring_diameter_cm", 3.2)) / 2.0
    ring_area = math.pi * ring_radius * ring_radius
    routing_area = (
        units.cm2_to_m2(dev_sec["routing_aperture_cm2"])
        if "routing_aperture_cm2" in dev_sec
        else ring_area
    )
    device = DeviceSpec(
        max_motor_torque=units.ncm_to_nm(dev_sec.get("torque_ncm", 24.5)),
        roller_radius=units.cm_to_m(dev_sec.get("roller_radius_cm", 1.2)),
        motor_speed_max=units.rpm_to_rad_s(dev_sec.get("rpm_max", 33.0)),
        static_friction=dev_sec.get("mu_s"),
        roller_normal_force=dev_sec.get("normal_force_n"),
        tip_ring_area=ring_area,
        routing_aperture_area=routing_area,
        aperture_c1=units.ncm2_to_nm2(dev_sec.get("c1_ncm2", 6.1)),
        aperture_c2=dev_sec.get("c2_n", 3.3),
    )
    efficiency = dev_sec.get("efficiency", 1.0)
    units.check("device efficiency", efficiency, hi=1.0, lo_open=True)
    defaults = doc.get("defaults", {})
    return body, device, efficiency, defaults


def _section(doc: dict, name: str, allowed: set[str]) -> dict:
    section = doc.get(name, {})
    if not isinstance(section, dict):
        raise ValueError(f"config section {name!r} must be a JSON object")
    unknown = set(section) - allowed
    if unknown:
        raise ValueError(f"unknown keys in config section {name!r}: {sorted(unknown)}")
    for key, value in section.items():
        if key in ("mu_s", "normal_force_n") and value is None:
            continue
        field = f"config field {name}.{key}"
        units.check(field, _number(field, value), lo_open=True)
    return section


def _number(field: str, value: Any) -> Any:
    """``value`` when it is a JSON number. JSON types are tested here only;
    the range is the library's check."""
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ValueError(f"{field} must be a number, got {value!r}")
    return value


# ---------------------------------------------------------------------------
# parser


def _build_parser() -> _Parser:
    parser = _Parser(prog="vinebuckle", description=__doc__)
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("predict", help="invert/buckle verdict at one operating point")
    p.add_argument("--pressure-kpa", type=float, required=True)
    p.add_argument("--length-cm", type=float, required=True)
    p.add_argument("--kappa-per-m", type=float, default=0.0)
    p.add_argument("--device", action="store_true", help="retraction device at the tip")
    p.add_argument("--efficiency", type=float, default=None)
    p.add_argument("--config", default=None)
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=_cmd_predict)

    p = sub.add_parser("transition", help="critical length at a pressure and curvature")
    p.add_argument("--pressure-kpa", type=float, required=True)
    p.add_argument("--kappa-per-m", type=float, default=0.0)
    p.add_argument("--config", default=None)
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=_cmd_transition)

    p = sub.add_parser("sweep", help="phase diagram over pressure and length")
    p.add_argument("--kappa-per-m", type=float, default=0.0)
    p.add_argument("--p", required=True, metavar="MIN:MAX:STEPS", help="pressure range, kPa")
    p.add_argument("--l", required=True, metavar="MIN:MAX:STEPS", help="length range, cm")
    p.add_argument("--device", action="store_true")
    p.add_argument("--efficiency", type=float, default=None)
    p.add_argument("--out-csv", default=None)
    p.add_argument("--out-svg", default=None)
    p.add_argument("--out-transition-csv", default=None)
    p.add_argument("--oracle-check", action="store_true",
                   help="re-classify by direct force comparison and compare")
    p.add_argument("--config", default=None)
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=_cmd_sweep)

    p = sub.add_parser("device", help="retraction device analysis")
    dev_sub = p.add_subparsers(dest="device_command", required=True)
    d = dev_sub.add_parser("info", help="force, pressure ceiling and speed limits")
    d.add_argument("--config", default=None)
    d.add_argument("--json", action="store_true")
    d.set_defaults(handler=_cmd_device_info)

    p = sub.add_parser("fit", help="calibrate model constants from CSV data")
    fit_sub = p.add_subparsers(dest="fit_command", required=True)
    f = fit_sub.add_parser("inversion", help="tip force from tension vs pressure data")
    f.add_argument("--csv", required=True)
    f.add_argument("--config", default=None)
    f.add_argument("--json", action="store_true")
    f.set_defaults(handler=_cmd_fit_inversion)
    f = fit_sub.add_parser("aperture", help="aperture force constants from pull tests")
    f.add_argument("--csv", required=True)
    f.add_argument("--shape", choices=[s.value for s in ApertureShape], default=None,
                   help="fit only samples with this shape tag")
    f.add_argument("--json", action="store_true")
    f.set_defaults(handler=_cmd_fit_aperture)

    p = sub.add_parser("simulate", help="run a retraction or growth episode")
    p.add_argument("--scenario", required=True, help="scenario JSON document")
    p.add_argument("--out-csv", default=None)
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=_cmd_simulate)

    return parser


# ---------------------------------------------------------------------------
# output helpers


def _num(value: float) -> Optional[float]:
    return None if math.isinf(value) or math.isnan(value) else value


def _fmt(value: Optional[float]) -> str:
    if value is None:
        return "none"
    if isinstance(value, float) and math.isinf(value):
        return "inf"
    return f"{value:.6g}"


def _print_pairs(pairs: list[tuple[str, Any]]) -> None:
    width = max(len(key) for key, _ in pairs)
    for key, value in pairs:
        text = _fmt(value) if isinstance(value, (float, type(None))) else str(value)
        print(f"{key:<{width}}  {text}")


def _emit_json(doc: dict) -> None:
    print(json.dumps(doc, indent=2, allow_nan=False))


def _prediction_doc(prediction: BehaviorPrediction) -> dict:
    return {
        "verdict": prediction.verdict.value,
        "mode": prediction.mode.value,
        "required_n": _num(prediction.required_tension),
        "limit_n": _num(prediction.limiting_force),
        "margin_n": _num(prediction.margin),
        "model": prediction.model_used.value,
        "extrapolated": prediction.extrapolated,
    }


# ---------------------------------------------------------------------------
# handlers


def _cmd_predict(args: argparse.Namespace) -> int:
    body, device, cfg_eff, _ = load_config(args.config)
    efficiency = cfg_eff if args.efficiency is None else args.efficiency
    state = RobotState(
        length=units.cm_to_m(args.length_cm),
        pressure=units.kpa_to_pa(args.pressure_kpa),
        curvature=args.kappa_per_m,
    )
    if args.device:
        prediction = predict_with_device(body, device, state, efficiency)
    else:
        prediction = predict_behavior(body, state)
    echo = {
        "pressure_kpa": units.pa_to_kpa(state.pressure),
        "length_cm": units.m_to_cm(state.length),
        "kappa_per_m": state.curvature,
        "device": args.device,
        "efficiency": efficiency if args.device else None,
    }
    if args.json:
        _emit_json({"input": echo, **_prediction_doc(prediction)})
        return EXIT_OK
    doc = _prediction_doc(prediction)
    _print_pairs(
        [
            ("pressure_kpa", echo["pressure_kpa"]),
            ("length_cm", echo["length_cm"]),
            ("kappa_per_m", echo["kappa_per_m"]),
            ("device", str(args.device).lower()),
            ("verdict", doc["verdict"]),
            ("mode", doc["mode"]),
            ("required_n", prediction.required_tension),
            ("limit_n", prediction.limiting_force),
            ("margin_n", prediction.margin),
            ("model", doc["model"]),
            ("extrapolated", str(prediction.extrapolated).lower()),
        ]
    )
    return EXIT_OK


def _cmd_transition(args: argparse.Namespace) -> int:
    body, _, _, _ = load_config(args.config)
    pressure = units.kpa_to_pa(args.pressure_kpa)
    critical = transition_length(body, pressure, args.kappa_per_m)
    critical_cm = None if critical is None else units.m_to_cm(critical)
    if args.json:
        _emit_json(
            {
                "input": {
                    "pressure_kpa": units.pa_to_kpa(pressure),
                    "kappa_per_m": args.kappa_per_m,
                },
                "critical_length_cm": critical_cm,
            }
        )
        return EXIT_OK
    _print_pairs(
        [
            ("pressure_kpa", units.pa_to_kpa(pressure)),
            ("kappa_per_m", args.kappa_per_m),
            ("critical_length_cm", critical_cm),
        ]
    )
    if critical_cm is None:
        print("no inverting length at this pressure (at or below minimum inversion pressure)")
    return EXIT_OK


def _parse_axis(text: str, name: str, to_si) -> sweep.AxisRange:
    parts = text.split(":")
    if len(parts) != 3:
        raise UsageError(f"--{name} expects MIN:MAX:STEPS, got {text!r}")
    try:
        lo, hi = float(parts[0]), float(parts[1])
        steps = int(parts[2])
    except ValueError:
        raise UsageError(f"--{name} expects numbers MIN:MAX:STEPS, got {text!r}") from None
    return sweep.AxisRange(lo=to_si(lo), hi=to_si(hi), steps=steps)


def _cmd_sweep(args: argparse.Namespace) -> int:
    body, device, cfg_eff, _ = load_config(args.config)
    efficiency = cfg_eff if args.efficiency is None else args.efficiency
    request = sweep.SweepRequest(
        body=body,
        curvature=args.kappa_per_m,
        pressure_range=_parse_axis(args.p, "p", units.kpa_to_pa),
        length_range=_parse_axis(args.l, "l", units.cm_to_m),
        device=device if args.device else None,
        efficiency=efficiency,
    )
    diagram = sweep.classify_grid(request)
    if args.oracle_check:
        reference = sweep.oracle_scan(request)
        if not sweep.diagrams_agree(diagram, reference):
            raise CrossCheckError(
                "closed-form grid classification disagrees with direct-comparison oracle"
            )
    written = []
    if args.out_csv:
        Path(args.out_csv).write_bytes(sweep.emit_diagram(diagram, "csv"))
        written.append(args.out_csv)
    if args.out_svg:
        Path(args.out_svg).write_bytes(sweep.emit_diagram(diagram, "svg"))
        written.append(args.out_svg)
    if args.out_transition_csv:
        Path(args.out_transition_csv).write_bytes(sweep.emit_transition_csv(diagram))
        written.append(args.out_transition_csv)
    invert = sum(
        1 for row in diagram.grid for cell in row if cell.verdict.value == "invert"
    )
    total = len(diagram.pressures) * len(diagram.lengths)
    summary = {
        "cells": total,
        "invert": invert,
        "buckle": total - invert,
        "transition_points": len(diagram.transition_curve),
        "oracle_check": "ok" if args.oracle_check else "skipped",
        "written": written,
    }
    if args.json:
        _emit_json({"input": diagram.metadata, **summary})
    else:
        _print_pairs([(k, str(v)) for k, v in summary.items()])
    return EXIT_OK


def _cmd_device_info(args: argparse.Namespace) -> int:
    body, device, efficiency, _ = load_config(args.config)
    force = max_device_force(device)
    ceiling_bare = max_zero_tension_pressure(
        body, device, efficiency=1.0, inversion_force=body.inversion_force
    )
    ceiling_aperture = max_zero_tension_pressure(body, device, efficiency=efficiency)
    kin = retraction_kinematics(device, device.motor_speed_max)
    doc = {
        "max_device_force_n": force,
        "max_zero_tension_kpa": units.pa_to_kpa(ceiling_bare),
        "max_zero_tension_aperture_kpa": units.pa_to_kpa(ceiling_aperture),
        "tip_speed_cm_s": units.m_to_cm(kin.tip_speed),
        "roller_surface_cm_s": units.m_to_cm(kin.roller_surface_speed),
        "base_takeup_cm_s": units.m_to_cm(kin.base_takeup_speed),
        "aperture_inversion_n": aperture_inversion_force(device),
        "min_inversion_pressure_kpa": units.pa_to_kpa(min_inversion_pressure(body)),
        "efficiency": efficiency,
    }
    if args.json:
        _emit_json(doc)
    else:
        _print_pairs(list(doc.items()))
    return EXIT_OK


def _cmd_fit_inversion(args: argparse.Namespace) -> int:
    body, _, _, _ = load_config(args.config)
    samples = calibration.load_measurements(args.csv, "tension")
    fit = calibration.fit_inversion_force(samples, body.cross_section_area)
    doc = {
        "samples": len(samples),
        "f_i_n": fit.inversion_force,
        "residual_rms_n": fit.residual_rms,
        "slope_n_per_kpa": units.kpa_to_pa(0.5 * body.cross_section_area),
    }
    if args.json:
        _emit_json(doc)
    else:
        _print_pairs(list(doc.items()))
    return EXIT_OK


def _cmd_fit_aperture(args: argparse.Namespace) -> int:
    samples = calibration.load_measurements(args.csv, "aperture")
    if args.shape is not None:
        samples = calibration.filter_by_shape(samples, ApertureShape(args.shape))
        if not samples:
            raise ValueError(f"no samples with shape {args.shape!r} in {args.csv}")
    fit = calibration.fit_aperture_constants(samples)
    doc = {
        "samples": len(samples),
        "c1_ncm2": units.nm2_to_ncm2(fit.c1),
        "c2_n": fit.c2,
        "residual_rms_n": fit.residual_rms,
    }
    if args.json:
        _emit_json(doc)
    else:
        _print_pairs(list(doc.items()))
    return EXIT_OK


def scenario_from_json(doc: dict) -> tuple[sim.Scenario, str]:
    """Build a Scenario from its JSON document; returns (scenario, mode).

    Schema (bench units):
    {
      "mode": "retract" | "grow",              default "retract"
      "body": {...},                            same fields as config body
      "device": true | false | {...},           same fields as config device
      "efficiency": 1.0,
      "initial_length_cm": 100.0,
      "target_length_cm": 300.0,                growth only
      "kappa_per_m": 0.0,
      "pressure_kpa": 2.0,                      or pressure_schedule
      "pressure_schedule": [[tip_cm, kpa], ...],
      "step_cm": 1.0,
      "motor_rpm": 33.0,                        device episodes only
      "base_takeup": true
    }
    """
    if not isinstance(doc, dict):
        raise ValueError("scenario must be a JSON object")
    known = {
        "mode", "body", "device", "efficiency", "initial_length_cm",
        "target_length_cm", "kappa_per_m", "pressure_kpa", "pressure_schedule",
        "step_cm", "motor_rpm", "base_takeup",
    }
    unknown = set(doc) - known
    if unknown:
        raise ValueError(f"unknown scenario keys: {sorted(unknown)}")
    mode = doc.get("mode", "retract")
    if mode not in ("retract", "grow"):
        raise ValueError(f"scenario mode must be retract or grow, got {mode!r}")
    for key in (
        "efficiency", "initial_length_cm", "target_length_cm", "kappa_per_m", "step_cm",
        "motor_rpm",
    ):
        if key in doc:
            _number(f"scenario field {key}", doc[key])
    base_takeup = doc.get("base_takeup", True)
    if not isinstance(base_takeup, bool):
        raise ValueError(f"scenario field base_takeup must be a bool, got {base_takeup!r}")

    body, _, _, _ = load_config_from_doc({"body": doc.get("body", {})})
    device_field = doc.get("device", False)
    efficiency = doc.get("efficiency", 1.0)
    device: Optional[DeviceSpec]
    if device_field is False or device_field is None:
        device = None
    else:
        dev_doc = {} if device_field is True else device_field
        if not isinstance(dev_doc, dict):
            raise ValueError("scenario device must be true, false or an object")
        _, device, cfg_eff, _ = load_config_from_doc({"device": dev_doc})
        if "efficiency" not in doc:
            efficiency = cfg_eff

    if "initial_length_cm" not in doc:
        raise ValueError("scenario needs initial_length_cm")
    pressure = doc.get("pressure_kpa")
    if pressure is not None:
        pressure = units.kpa_to_pa(_number("scenario field pressure_kpa", pressure))
    schedule = doc.get("pressure_schedule")
    points = None
    if schedule is not None:
        try:
            points = tuple(
                (
                    units.cm_to_m(_number("tip_cm", tip)),
                    units.kpa_to_pa(_number("kpa", kpa)),
                )
                for tip, kpa in schedule
            )
        except (TypeError, ValueError):
            raise ValueError(
                "pressure_schedule must be a list of [tip_cm, kpa] pairs"
            ) from None
    scenario = sim.Scenario(
        body=body,
        initial_length=units.cm_to_m(doc["initial_length_cm"]),
        pressure=pressure,
        pressure_points=points,
        curvature=doc.get("kappa_per_m", 0.0),
        device=device,
        efficiency=efficiency,
        step=units.cm_to_m(doc.get("step_cm", 1.0)),
        motor_speed=(
            units.rpm_to_rad_s(doc["motor_rpm"]) if "motor_rpm" in doc else None
        ),
        base_takeup=base_takeup,
        target_length=(
            units.cm_to_m(doc["target_length_cm"]) if "target_length_cm" in doc else None
        ),
    )
    return scenario, mode


def _cmd_simulate(args: argparse.Namespace) -> int:
    doc = json.loads(Path(args.scenario).read_text(encoding="utf-8"))
    scenario, mode = scenario_from_json(doc)
    if mode == "grow":
        log = sim.simulate_growth(scenario)
    else:
        log = sim.simulate_retraction(scenario)
    if args.out_csv:
        Path(args.out_csv).write_bytes(sim.emit_episode_csv(log))
    summary = {
        "mode": mode,
        "steps": len(log.steps),
        "terminal": log.terminal.kind.value,
        "terminal_length_cm": (
            None if log.terminal.length is None else units.m_to_cm(log.terminal.length)
        ),
        "written": [args.out_csv] if args.out_csv else [],
    }
    if args.json:
        _emit_json(summary)
    else:
        _print_pairs(
            [
                ("mode", summary["mode"]),
                ("steps", str(summary["steps"])),
                ("terminal", summary["terminal"]),
                ("terminal_length_cm", summary["terminal_length_cm"]),
                ("written", ", ".join(summary["written"]) or "none"),
            ]
        )
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
