"""Command line interface.

Bench units at the boundary (kPa, cm, N, N*cm, RPM), SI inside. Built-in
defaults reproduce the reference robot and device with zero configuration;
a JSON config document overrides individual fields. Each command builds one
document, printed as JSON with ``--json`` and otherwise as aligned
``key  value`` lines (null shows as ``none``). Exit codes: 0 success,
1 usage error, a missing dependency (numpy, for ``fit aperture``) or a
stdout closed by its reader (``| head``, with no message), 2 input
validation, 3 numeric cross-check failure (``sweep --oracle-check`` exits 3
when the grid and the oracle differ in a verdict or a model). Errors go to
stderr with an ``error:`` prefix. Every non-finite, out-of-range or
wrongly typed input that a command uses exits 2, and so does a finite input
so extreme that the model's arithmetic overflows or divides by an
underflowed zero.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Optional

# Every command builds a body and a device; sweep, sim and calibration are
# imported by the handlers that run them, so a one-shot call loads only what
# it uses.
from . import units
from .device import (
    DEFAULT_EFFICIENCY,
    ApertureShape,
    DeviceSpec,
    aperture_inversion_force,
    max_device_force,
    max_zero_tension_pressure,
    predict_with_device,
    retraction_kinematics,
)
from .mechanics import (
    BehaviorPrediction,
    BodySpec,
    CrossCheckError,
    RobotState,
    Verdict,
    min_inversion_pressure,
    predict_behavior,
    transition_length,
)
from .version import __version__

if TYPE_CHECKING:
    from . import sim, sweep

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
        output = _render(args.handler(args), args.json)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ModuleNotFoundError as exc:  # numpy, which only the aperture fit imports
        print(f"error: this command needs {exc.name}, which is not installed", file=sys.stderr)
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
    try:
        print(output)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout. Point it at devnull, so that the flush
        # at interpreter exit does not fail again with a second message.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_USAGE
    return EXIT_OK


# ---------------------------------------------------------------------------
# configuration document

def _number(label: str, value: Any) -> Any:
    """``value`` when it is a JSON number. JSON types are tested here only;
    the range is the library's check."""
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ValueError(f"{label} must be a number, got {value!r}")
    return value


def _same(value: Any) -> Any:
    return value


def _positive(to_si: Callable[[Any], Any] = _same) -> Callable[[str, Any], Any]:
    """Reader of a positive JSON number in bench units, converted by ``to_si``."""
    return lambda label, value: to_si(units.check(label, _number(label, value), lo_open=True))


def _numeric(to_si: Callable[[Any], Any] = _same) -> Callable[[str, Any], Any]:
    """Reader of a JSON number whose range the built dataclass checks."""
    return lambda label, value: to_si(_number(label, value))


def _or_null(read: Callable[[str, Any], Any]) -> Callable[[str, Any], Any]:
    """``read``, except that a JSON null gives None, the field's default."""
    return lambda label, value: None if value is None else read(label, value)


def _efficiency(label: str, value: Any) -> float:
    return units.check(label, _number(label, value), hi=1.0)


def _ring_area(diameter_cm: float) -> float:
    radius = units.cm_to_m(diameter_cm) / 2.0
    return math.pi * radius * radius


def _schedule(label: str, value: Any) -> tuple[tuple[float, float], ...]:
    try:
        return tuple(
            (units.cm_to_m(_number("tip_cm", tip)), units.kpa_to_pa(_number("kpa", kpa)))
            for tip, kpa in value
        )
    except (TypeError, ValueError):
        raise ValueError(f"{label} must be a list of [tip_cm, kpa] pairs") from None


def _flag(label: str, value: Any) -> bool:
    if not isinstance(value, bool):
        raise ValueError(f"{label} must be a bool, got {value!r}")
    return value


# Each document key: (dataclass field, reader of its JSON value into SI).
# A reader type-checks the value and converts it from bench units; absent
# keys take the dataclass defaults. Config efficiency is not a DeviceSpec
# field and is returned apart.
_BODY_KEYS = {
    "radius_cm": ("radius", _positive(units.cm_to_m)),
    "thickness_um": ("wall_thickness", _positive(units.um_to_m)),
    "e_mpa": ("youngs_modulus", _positive(units.mpa_to_pa)),
    "g_mpa": ("shear_modulus", _positive(units.mpa_to_pa)),
    "f_i_n": ("inversion_force", _positive()),
}
_DEVICE_KEYS = {
    "torque_ncm": ("max_motor_torque", _positive(units.ncm_to_nm)),
    "roller_radius_cm": ("roller_radius", _positive(units.cm_to_m)),
    "rpm_max": ("motor_speed_max", _positive(units.rpm_to_rad_s)),
    "tip_ring_diameter_cm": ("tip_ring_area", _positive(_ring_area)),
    "routing_aperture_cm2": ("routing_aperture_area", _positive(units.cm2_to_m2)),
    "c1_ncm2": ("aperture_c1", _positive(units.ncm2_to_nm2)),
    "c2_n": ("aperture_c2", _positive()),
    "mu_s": ("static_friction", _or_null(_positive())),
    "normal_force_n": ("roller_normal_force", _or_null(_positive())),
    "efficiency": ("efficiency", _efficiency),
}
# "mode", "body" and "device" are read apart.
_SCENARIO_KEYS = {
    "initial_length_cm": ("initial_length", _numeric(units.cm_to_m)),  # required
    "target_length_cm": ("target_length", _numeric(units.cm_to_m)),  # growth only
    "pressure_kpa": ("pressure", _or_null(_numeric(units.kpa_to_pa))),
    "pressure_schedule": ("pressure_points", _or_null(_schedule)),  # [[tip_cm, kpa], ...]
    "kappa_per_m": ("curvature", _numeric()),
    "step_cm": ("step", _numeric(units.cm_to_m)),
    "motor_rpm": ("motor_speed", _numeric(units.rpm_to_rad_s)),  # device episodes only
    "efficiency": ("efficiency", _numeric()),
    "base_takeup": ("base_takeup", _flag),
}


def _read(doc: dict, table: dict, label: str) -> dict:
    """Dataclass keyword arguments from the keys of ``doc`` that ``table``
    names; errors name a key as ``label`` + key."""
    fields = {}
    for key, value in doc.items():
        if key in table:
            field, read = table[key]
            fields[field] = read(label + key, value)
    return fields


def load_config(path: Optional[str]) -> tuple[BodySpec, DeviceSpec, float, dict]:
    """Build body and device from a JSON config document.

    Missing fields take the BodySpec and DeviceSpec defaults; present fields
    must be positive numbers, with the efficiency in [0, 1]. Returns (body,
    device, efficiency, defaults).
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
    body = BodySpec(**_section(doc, "body", _BODY_KEYS))
    fields = _section(doc, "device", _DEVICE_KEYS)
    efficiency = fields.pop("efficiency", DEFAULT_EFFICIENCY)
    # The CLI's own 3.2 cm ring, whose pi*r*r is 1 ulp off DeviceSpec's
    # pi*0.016**2; it stays until perfbench/digests.json is re-recorded. The
    # routing aperture defaults to the tip ring.
    fields.setdefault("tip_ring_area", _ring_area(3.2))
    fields.setdefault("routing_aperture_area", fields["tip_ring_area"])
    return body, DeviceSpec(**fields), efficiency, doc.get("defaults", {})


def _section(doc: dict, name: str, table: dict) -> dict:
    section = doc.get(name, {})
    if not isinstance(section, dict):
        raise ValueError(f"config section {name!r} must be a JSON object")
    unknown = set(section) - set(table)
    if unknown:
        raise ValueError(f"unknown keys in config section {name!r}: {sorted(unknown)}")
    return _read(section, table, f"config field {name}.")


# ---------------------------------------------------------------------------
# parser


def _build_parser() -> _Parser:
    parser = _Parser(prog="vinebuckle", description=__doc__)
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    as_json = argparse.ArgumentParser(add_help=False)
    as_json.add_argument("--json", action="store_true", help="print one JSON document")
    config = argparse.ArgumentParser(add_help=False)
    config.add_argument("--config", default=None, help="JSON config document")
    both = [config, as_json]

    p = sub.add_parser("predict", parents=both,
                       help="invert/buckle verdict at one operating point")
    p.add_argument("--pressure-kpa", type=float, required=True)
    p.add_argument("--length-cm", type=float, required=True)
    p.add_argument("--kappa-per-m", type=float, default=0.0)
    p.add_argument("--device", action="store_true", help="retraction device at the tip")
    p.add_argument("--efficiency", type=float, default=None)
    p.set_defaults(handler=_cmd_predict)

    p = sub.add_parser("transition", parents=both,
                       help="critical length at a pressure and curvature")
    p.add_argument("--pressure-kpa", type=float, required=True)
    p.add_argument("--kappa-per-m", type=float, default=0.0)
    p.set_defaults(handler=_cmd_transition)

    p = sub.add_parser("sweep", parents=both, help="phase diagram over pressure and length")
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
    p.set_defaults(handler=_cmd_sweep)

    p = sub.add_parser("device", help="retraction device analysis")
    dev_sub = p.add_subparsers(dest="device_command", required=True)
    d = dev_sub.add_parser("info", parents=both,
                           help="force, pressure ceiling and speed limits")
    d.set_defaults(handler=_cmd_device_info)

    p = sub.add_parser("fit", help="calibrate model constants from CSV data")
    fit_sub = p.add_subparsers(dest="fit_command", required=True)
    f = fit_sub.add_parser("inversion", parents=both,
                           help="tip force from tension vs pressure data")
    f.add_argument("--csv", required=True)
    f.set_defaults(handler=_cmd_fit_inversion)
    f = fit_sub.add_parser("aperture", parents=[as_json],
                           help="aperture force constants from pull tests")
    f.add_argument("--csv", required=True)
    f.add_argument("--shape", choices=[s.value for s in ApertureShape], default=None,
                   help="fit only samples with this shape tag")
    f.set_defaults(handler=_cmd_fit_aperture)

    p = sub.add_parser("simulate", parents=[as_json], help="run a retraction or growth episode")
    p.add_argument("--scenario", required=True, help="scenario JSON document")
    p.add_argument("--out-csv", default=None)
    p.set_defaults(handler=_cmd_simulate)

    return parser


# ---------------------------------------------------------------------------
# output


def _render(doc: dict, as_json: bool) -> str:
    """The command's document as indented JSON, or as one aligned
    ``key  value`` line per field with the ``input`` echo's fields first.

    Both renderings run the strict JSON encoding, so a non-finite value
    exits 2 whichever is asked for.
    """
    try:
        encoded = json.dumps(doc, indent=2, allow_nan=False)
    except ValueError:
        raise ArithmeticError("a result is not finite") from None
    if as_json:
        return encoded
    pairs = [*doc.get("input", {}).items(), *((k, v) for k, v in doc.items() if k != "input")]
    width = max(len(key) for key, _ in pairs)
    return "\n".join(f"{key:<{width}}  {_word(value)}" for key, value in pairs)


def _word(value: Any) -> str:
    """A JSON value as text: null is ``none``, floats take six significant
    digits and a list is comma-joined (``none`` when empty)."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if value is None:
        return "none"
    if isinstance(value, float):
        return f"{value:.6g}"
    if isinstance(value, list):
        return ", ".join(map(_word, value)) or "none"
    return str(value)


def _num(value: float) -> Optional[float]:
    return None if math.isinf(value) or math.isnan(value) else value


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


def _cmd_predict(args: argparse.Namespace) -> dict:
    body, device, cfg_eff, _ = load_config(args.config)
    # checked even without --device, as sweep checks it
    efficiency = cfg_eff
    if args.efficiency is not None:
        efficiency = units.check("efficiency", args.efficiency, hi=1.0)
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
    return {"input": echo, **_prediction_doc(prediction)}


def _cmd_transition(args: argparse.Namespace) -> dict:
    body, _, _, _ = load_config(args.config)
    pressure = units.kpa_to_pa(args.pressure_kpa)
    critical = transition_length(body, pressure, args.kappa_per_m)
    return {
        "input": {"pressure_kpa": units.pa_to_kpa(pressure), "kappa_per_m": args.kappa_per_m},
        "critical_length_cm": None if critical is None else units.m_to_cm(critical),
    }


def _parse_axis(text: str, name: str, to_si) -> sweep.AxisRange:
    from . import sweep

    parts = text.split(":")
    if len(parts) != 3:
        raise UsageError(f"--{name} expects MIN:MAX:STEPS, got {text!r}")
    try:
        lo, hi = float(parts[0]), float(parts[1])
        steps = int(parts[2])
    except ValueError:
        raise UsageError(f"--{name} expects numbers MIN:MAX:STEPS, got {text!r}") from None
    return sweep.AxisRange(lo=to_si(lo), hi=to_si(hi), steps=steps)


def _cmd_sweep(args: argparse.Namespace) -> dict:
    from . import sweep

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
    invert_verdict = Verdict.INVERT
    invert = sum(1 for row in diagram.grid for cell in row if cell.verdict is invert_verdict)
    total = len(diagram.pressures) * len(diagram.lengths)
    return {
        "input": diagram.metadata,
        "cells": total,
        "invert": invert,
        "buckle": total - invert,
        "transition_points": len(diagram.transition_curve),
        "oracle_check": "ok" if args.oracle_check else "skipped",
        "written": written,
    }


def _cmd_device_info(args: argparse.Namespace) -> dict:
    body, device, efficiency, _ = load_config(args.config)
    force = max_device_force(device)
    ceiling_bare = max_zero_tension_pressure(
        body, device, efficiency=1.0, inversion_force=body.inversion_force
    )
    ceiling_aperture = max_zero_tension_pressure(body, device, efficiency=efficiency)
    kin = retraction_kinematics(device, device.motor_speed_max)
    return {
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


def _cmd_fit_inversion(args: argparse.Namespace) -> dict:
    from . import calibration

    body, _, _, _ = load_config(args.config)
    samples = calibration.load_measurements(args.csv, "tension")
    fit = calibration.fit_inversion_force(samples, body.cross_section_area)
    return {
        "samples": len(samples),
        "f_i_n": fit.inversion_force,
        "residual_rms_n": fit.residual_rms,
        "slope_n_per_kpa": units.kpa_to_pa(0.5 * body.cross_section_area),
    }


def _cmd_fit_aperture(args: argparse.Namespace) -> dict:
    from . import calibration

    samples = calibration.load_measurements(args.csv, "aperture")
    if args.shape is not None:
        samples = calibration.filter_by_shape(samples, ApertureShape(args.shape))
        if not samples:
            raise ValueError(f"no samples with shape {args.shape!r} in {args.csv}")
    fit = calibration.fit_aperture_constants(samples)
    return {
        "samples": len(samples),
        "c1_ncm2": units.nm2_to_ncm2(fit.c1),
        "c2_n": fit.c2,
        "residual_rms_n": fit.residual_rms,
    }


def scenario_from_json(doc: dict) -> tuple[sim.Scenario, str]:
    """Build a Scenario from its JSON document; returns (scenario, mode).

    The document holds the keys of ``_SCENARIO_KEYS`` in bench units, plus
    ``mode`` ("retract" or "grow", default "retract"), ``body`` (config body
    fields) and ``device`` (true, false or config device fields). Absent keys
    take the Scenario defaults; without its own efficiency the episode takes
    the device's.
    """
    from . import sim

    if not isinstance(doc, dict):
        raise ValueError("scenario must be a JSON object")
    unknown = set(doc) - set(_SCENARIO_KEYS) - {"mode", "body", "device"}
    if unknown:
        raise ValueError(f"unknown scenario keys: {sorted(unknown)}")
    mode = doc.get("mode", "retract")
    if mode not in ("retract", "grow"):
        raise ValueError(f"scenario mode must be retract or grow, got {mode!r}")
    if "initial_length_cm" not in doc:
        raise ValueError("scenario needs initial_length_cm")
    fields = _read(doc, _SCENARIO_KEYS, "scenario field ")
    body, _, _, _ = load_config_from_doc({"body": doc.get("body", {})})
    device_field = doc.get("device", False)
    device: Optional[DeviceSpec] = None
    if device_field is not False and device_field is not None:
        dev_doc = {} if device_field is True else device_field
        if not isinstance(dev_doc, dict):
            raise ValueError("scenario device must be true, false or an object")
        _, device, efficiency, _ = load_config_from_doc({"device": dev_doc})
        fields.setdefault("efficiency", efficiency)
    return sim.Scenario(body=body, device=device, **fields), mode


def _cmd_simulate(args: argparse.Namespace) -> dict:
    from . import sim

    doc = json.loads(Path(args.scenario).read_text(encoding="utf-8"))
    scenario, mode = scenario_from_json(doc)
    if mode == "grow":
        log = sim.simulate_growth(scenario)
    else:
        log = sim.simulate_retraction(scenario)
    if args.out_csv:
        Path(args.out_csv).write_bytes(sim.emit_episode_csv(log))
    return {
        "mode": mode,
        "steps": len(log.steps),
        "terminal": log.terminal.kind.value,
        "terminal_length_cm": (
            None if log.terminal.length is None else units.m_to_cm(log.terminal.length)
        ),
        "written": [args.out_csv] if args.out_csv else [],
    }


if __name__ == "__main__":
    sys.exit(main())
