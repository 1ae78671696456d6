"""Retraction mechanics for pneumatically everting soft robots.

Predict whether a body inverts or buckles when pulled back, size the
tip-mounted device that makes retraction safe, calibrate the empirical
constants from bench data, and sweep phase diagrams over operating points.

The package namespace is lazy (PEP 562): ``import vinebuckle`` loads only
``version``, and each public name imports its home module on first access.
The import lock makes a concurrent first access safe.
"""

import importlib

from .version import __version__

# Each public name, by its home module.
_EXPORTS = {
    "calibration": (
        "ApertureFit",
        "ApertureSample",
        "EmptyMeasurementFileError",
        "InversionFit",
        "MeasurementError",
        "TensionSample",
        "fit_aperture_constants",
        "fit_inversion_force",
        "load_measurements",
    ),
    "device": (
        "ApertureShape",
        "DeviceSpec",
        "RetractionKinematics",
        "aperture_inversion_force",
        "device_assist",
        "device_force_for_zero_tension",
        "efficiency_for_pressure_ceiling",
        "max_device_force",
        "max_zero_tension_pressure",
        "predict_with_device",
        "retraction_kinematics",
        "tail_tension_with_device",
    ),
    "mechanics": (
        "KAPPA_STRAIGHT",
        "BehaviorPrediction",
        "BodySpec",
        "CrossCheckError",
        "FailureMode",
        "ModelUsed",
        "PressureRow",
        "RobotState",
        "Verdict",
        "axial_buckling_force",
        "bisect_root",
        "clamped_moment_arm",
        "crushing_force",
        "curved_buckling_force",
        "curved_transition_bisect",
        "curved_transition_length",
        "length_terms",
        "min_buckling_moment_arm",
        "min_inversion_pressure",
        "predict_at_length",
        "predict_behavior",
        "predict_row",
        "solve_pressure_row",
        "straight_transition_bisect",
        "straight_transition_length",
        "tail_tension_to_invert",
        "transition_length",
        "wall_tension",
    ),
    "sim": (
        "EpisodeLog",
        "Scenario",
        "StepRecord",
        "TerminalEvent",
        "TerminalKind",
        "emit_episode_csv",
        "simulate_growth",
        "simulate_retraction",
    ),
    "sweep": (
        "AxisRange",
        "PhaseDiagram",
        "SweepRequest",
        "classify_grid",
        "diagrams_agree",
        "emit_diagram",
        "emit_transition_csv",
        "oracle_scan",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = ("calibration", "cli", "device", "mechanics", "sim", "sweep", "units", "version")

__all__ = ["__version__", *_HOME]


def __getattr__(name: str):
    """Import a public name's home module, or a submodule, on first access."""
    if name in _SUBMODULES:
        # importing a submodule binds it in this namespace
        return importlib.import_module(f"{__name__}.{name}")
    home = _HOME.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{home}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_SUBMODULES})
