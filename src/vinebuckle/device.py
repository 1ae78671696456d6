"""Tip-mounted retraction device: force balance, actuation limits, kinematics.

The device squeezes the tail between two motor-driven rollers and grounds
the reaction on the robot tip, so the force it applies sees an effective
body length of zero and cannot buckle the body. SI units throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Optional

from . import units
from .mechanics import (
    BehaviorPrediction,
    BodySpec,
    RobotState,
    predict_at_length_unchecked,
    solve_pressure_row_unchecked,
    tail_tension_to_invert_unchecked,
)

_TIP_RING_AREA = math.pi * 0.016**2  # 3.2 cm diameter grounding ring

# Transmission efficiency of the device where none is given.
DEFAULT_EFFICIENCY = 1.0


class ApertureShape(Enum):
    """Shape tag of the aperture in a pull-through test."""

    CIRCULAR = "circle"
    RECTANGULAR = "rect"
    DEVICE = "device"


@dataclass(frozen=True)
class DeviceSpec:
    """Retraction device parameters.

    Defaults describe the two-motor roller implementation: 24.5 N*cm
    continuous torque per motor, 1.2 cm rollers, 33 RPM, a 3.2 cm diameter
    tip grounding ring, and aperture force constants fit at zero pressure.
    The friction cap applies only when both ``static_friction`` and
    ``roller_normal_force`` are given; otherwise torque is assumed binding.
    """

    max_motor_torque: float = 0.245           # N*m, per motor
    roller_radius: float = 0.012              # m
    motor_speed_max: float = units.rpm_to_rad_s(33.0)  # rad/s
    static_friction: Optional[float] = None
    roller_normal_force: Optional[float] = None   # N
    tip_ring_area: float = _TIP_RING_AREA         # m^2
    routing_aperture_area: float = _TIP_RING_AREA  # m^2
    aperture_c1: float = 6.1e-4               # N*m^2
    aperture_c2: float = 3.3                  # N

    def __post_init__(self) -> None:
        for name in (
            "max_motor_torque",
            "roller_radius",
            "motor_speed_max",
            "tip_ring_area",
            "routing_aperture_area",
            "aperture_c1",
            "aperture_c2",
        ):
            units.check(name, getattr(self, name), lo_open=True)
        for name in ("static_friction", "roller_normal_force"):
            value = getattr(self, name)
            if value is not None:
                units.check(name, value, lo_open=True)

    @property
    def min_aperture_area(self) -> float:
        """Smallest aperture the tail slides through, in m^2.

        The roller gap is excluded: the rollers roll along the tail rather
        than letting it slide, so only the tip ring and routing aperture count.
        """
        return min(self.tip_ring_area, self.routing_aperture_area)

    # Derived constants are computed on first use and kept in the instance
    # ``__dict__``, which no field, ``==``, ``hash`` or ``repr`` reads, as
    # for ``BodySpec``.

    @cached_property
    def _constants(self) -> tuple[float, float]:
        """(max_device_force, aperture_inversion_force at the smallest
        sliding aperture): see those functions."""
        torque_limit = 2.0 * self.max_motor_torque / self.roller_radius
        if self.static_friction is not None and self.roller_normal_force is not None:
            force_max = min(torque_limit, self.static_friction * self.roller_normal_force)
        else:
            force_max = torque_limit
        return force_max, _aperture_force(self, self.min_aperture_area)


def aperture_inversion_force(device: DeviceSpec, area: Optional[float] = None) -> float:
    """Force to invert the body at zero pressure through a sliding aperture.

    F = C1/a + C2, decreasing in aperture area and bounded below by C2.
    Defaults to the device's smallest sliding aperture, computed once per
    device; this value replaces the body's bare inversion force whenever the
    device is present.
    """
    if area is None:
        return device._constants[1]
    return _aperture_force(device, area)


def _aperture_force(device: DeviceSpec, area: float) -> float:
    units.check("aperture area", area, lo_open=True)
    return device.aperture_c1 / area + device.aperture_c2


def tail_tension_with_device(
    body: BodySpec, device: DeviceSpec, pressure: float, device_force: float
) -> float:
    """Tail tension needed to invert while the device applies ``device_force``.

    T_T = P*A/2 + F_I(device aperture) - F_d/2. May be negative when the
    device over-drives; clamping is a simulation policy, not done here.
    """
    units.check("pressure", pressure)
    units.check("device_force", device_force)
    return _residual_tension(body, pressure, aperture_inversion_force(device), device_force)


def device_force_for_zero_tension(
    body: BodySpec, device: DeviceSpec, pressure: float
) -> float:
    """Device force that inverts the body with zero tail tension: P*A + 2*F_I."""
    units.check("pressure", pressure)
    return _zero_tension_need(body, pressure, aperture_inversion_force(device))


# The two equations, unchecked: the functions above check first, and
# device_assist_unchecked calls them on every row and scheduled step.
def _zero_tension_need(body: BodySpec, pressure: float, f_i: float) -> float:
    return pressure * body.cross_section_area + 2.0 * f_i


def _residual_tension(body: BodySpec, pressure: float, f_i: float, force: float) -> float:
    return 0.5 * pressure * body.cross_section_area + f_i - 0.5 * force


def max_device_force(device: DeviceSpec) -> float:
    """Largest force the device can apply to the tail.

    min(2*tau_max/r, mu_s*N); the friction cap is ignored when the friction
    pair is unspecified. Computed once per device.
    """
    return device._constants[0]


def max_zero_tension_pressure(
    body: BodySpec,
    device: DeviceSpec,
    efficiency: float = DEFAULT_EFFICIENCY,
    inversion_force: Optional[float] = None,
) -> float:
    """Highest pressure at which the device alone can retract the body.

    (efficiency * F_max - 2*F_I) / A for efficiency in [0, 1], floored at
    zero. ``inversion_force`` defaults to the aperture model value; pass
    ``body.inversion_force`` for the device-free bare offset.
    """
    units.check("efficiency", efficiency, hi=1.0)
    f_i = aperture_inversion_force(device) if inversion_force is None else inversion_force
    units.check("inversion_force", f_i, lo=-math.inf)
    ceiling = (efficiency * max_device_force(device) - 2.0 * f_i) / body.cross_section_area
    return max(ceiling, 0.0)


def efficiency_for_pressure_ceiling(
    body: BodySpec, device: DeviceSpec, max_pressure: float
) -> float:
    """Transmission efficiency implied by a measured zero-tension pressure ceiling.

    Back-solves ``max_zero_tension_pressure`` for efficiency, so field data on
    the highest self-retraction pressure calibrates the drivetrain losses.
    Raises ValueError when the ceiling is above the lossless one, which no
    efficiency in [0, 1] reaches.
    """
    units.check("max_pressure", max_pressure)
    needed = device_force_for_zero_tension(body, device, max_pressure)
    efficiency = needed / max_device_force(device)
    if efficiency > 1.0:
        raise ValueError(
            f"max_pressure {max_pressure} Pa needs efficiency {efficiency}, above 1: "
            "the device cannot retract alone there even without losses"
        )
    return efficiency


@dataclass(frozen=True)
class RetractionKinematics:
    roller_surface_speed: float   # m/s, tail speed through the rollers
    tip_speed: float              # m/s, tip retraction speed
    base_takeup_speed: float      # m/s, base spool speed keeping slack constant


def retraction_kinematics(device: DeviceSpec, motor_speed: float) -> RetractionKinematics:
    """Speeds at a given motor speed (rad/s).

    The tail feeds through the rollers at omega*r; eversion consumes two
    units of tail per unit of tip travel, so the tip moves at half that and
    the base must take up the full roller surface speed to hold slack.
    """
    units.check("motor_speed", motor_speed, hi=device.motor_speed_max)
    surface = motor_speed * device.roller_radius
    return RetractionKinematics(
        roller_surface_speed=surface,
        tip_speed=0.5 * surface,
        base_takeup_speed=surface,
    )


def device_assist(
    body: BodySpec,
    device: Optional[DeviceSpec],
    pressure: float,
    efficiency: float = DEFAULT_EFFICIENCY,
) -> tuple[float, Optional[float]]:
    """One pressure's (applied force, required tail tension): the one place
    that decides whether a row is bare, saturated or grounded.

    Bare (``device`` None): 0 and ``tail_tension_to_invert``. Grounded where
    the available force efficiency * F_max covers the zero-tension need
    P*A + 2*F_I: that need and None, since the tail needs no tension from
    the base. Saturated otherwise: the available force and the residual
    tail tension P*A/2 + F_I - F_avail/2. The efficiency is checked first,
    with or without a device, then the pressure, and then the derived
    forces by ``check_assist``, the drivers' rule: a force or tension that
    overflowed raises ValueError, a grounded row's force included.
    """
    units.check("efficiency", efficiency, hi=1.0)
    units.check("pressure", pressure)
    force, required = device_assist_unchecked(body, device, pressure, efficiency)
    check_assist(force, required)
    return force, required


def device_assist_unchecked(
    body: BodySpec, device: Optional[DeviceSpec], pressure: float, efficiency: float
) -> tuple[float, Optional[float]]:
    """``device_assist`` for inputs already checked. The forces it derives
    may overflow; ``check_assist`` checks them once per request."""
    if device is None:
        return 0.0, tail_tension_to_invert_unchecked(body, pressure)
    force_max, f_i = device._constants
    available = efficiency * force_max
    needed = _zero_tension_need(body, pressure, f_i)
    if needed <= available:
        return needed, None
    return available, _residual_tension(body, pressure, f_i, available)


def check_assist(force: float, required: Optional[float]) -> None:
    """Check the forces ``device_assist_unchecked`` derived: the applied
    force (0 without a device, the zero-tension need on a grounded row) and,
    where the row needs tension from the base, that tension. Raises
    ValueError for one that overflowed."""
    units.check("device_force", force)
    if required is not None:
        units.check("required_tension", required, lo=-math.inf)


def predict_with_device(
    body: BodySpec, device: DeviceSpec, state: RobotState, efficiency: float = DEFAULT_EFFICIENCY
) -> BehaviorPrediction:
    """Predict retraction behavior with the device assisting at the tip.

    If the available device force covers the zero-tension requirement the
    body always inverts: the force path is grounded at the tip, no finite
    buckling limit applies, and the reported limit is infinite. Otherwise
    the device saturates, the residual tail tension P*A/2 + F_I - F_avail/2
    must come from the base, and the ordinary model comparison runs with
    that residual (a model extension beyond the zero-tension regime).
    """
    units.check("efficiency", efficiency, hi=1.0)
    pressure = state.pressure
    force, required = device_assist_unchecked(body, device, pressure, efficiency)
    check_assist(force, required)
    row = solve_pressure_row_unchecked(body, pressure, state.curvature, required)
    return predict_at_length_unchecked(row, state.length)
