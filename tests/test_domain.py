"""The numeric box: inside the ranges of ``units`` no result, and no
intermediate the model forms, overflows or goes non-finite, and every
divisor is a normal float or an exact zero that a branch handles.

Each exported function, record and fit is evaluated at every corner of the
box over its own inputs (the ends of each range, its floor on either side
of 0, 0 where the range takes it, the smallest positive float where a
range takes every float down to 0, and the straightness threshold of the
curvature), and at log-uniform draws inside it. An intermediate is read
from the kernel's own helper where it has one (the body's constants, the
axial terms, the clamped arm, the device's constants and
``device_assist_unchecked``), and is recomputed from the kernel's
expression where the kernel forms it inline. A range widened past what the
model's arithmetic holds (a radius past ~1.2e74 m, where E*pi^3*R^4
overflows) fails here.
"""

import itertools
import math
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vinebuckle import (
    ApertureSample,
    AxisRange,
    BodySpec,
    CrossCheckError,
    DeviceSpec,
    RobotState,
    Scenario,
    SweepRequest,
    TensionSample,
    aperture_inversion_force,
    axial_buckling_force,
    clamped_moment_arm,
    classify_grid,
    crushing_force,
    curved_buckling_force,
    curved_transition_bisect,
    curved_transition_length,
    device_assist,
    device_force_for_zero_tension,
    efficiency_for_pressure_ceiling,
    fit_aperture_constants,
    fit_inversion_force,
    max_device_force,
    max_zero_tension_pressure,
    mechanics,
    min_buckling_moment_arm,
    min_inversion_pressure,
    oracle_scan,
    predict_behavior,
    predict_with_device,
    retraction_kinematics,
    simulate_growth,
    simulate_retraction,
    straight_transition_bisect,
    tail_tension_to_invert,
    tail_tension_with_device,
    transition_length,
    units,
    wall_tension,
)
from vinebuckle.device import device_assist_unchecked

TINY = sys.float_info.min  # the smallest normal float


def corners(bounds):
    """The corners of one range: its ends, its floor on either side of 0,
    and the smallest positive float where the range takes every float down
    to 0."""
    lo, hi, floor = bounds
    values = {lo, hi, *(edge for edge in (-floor, floor) if floor and lo <= edge <= hi)}
    if lo == 0.0 and not floor:
        values.add(math.ulp(0.0))
    return sorted(values)


def positive(bounds):
    """The positive part of a range with a floor: [floor, hi]."""
    return units.Bounds(bounds.floor, bounds.hi)


def log_uniform(bounds, zero=True):
    """Draws log-uniform over a range's positive part, and 0 where it takes 0."""
    lo, hi, floor = bounds
    low = max(lo, floor) if lo > 0 or floor else math.ulp(0.0)
    draws = st.floats(math.log10(low), math.log10(hi)).map(
        lambda e: min(max(10.0**e, low), hi)
    )
    return st.just(0.0) | draws if zero and lo <= 0.0 else draws


PRESSURES = corners(units.PRESSURE)
CURVATURES = corners(units.CURVATURE) + [mechanics.KAPPA_STRAIGHT]
LENGTHS = corners(units.LENGTH)
EFFICIENCIES = corners(units.EFFICIENCY)

BODIES = [
    BodySpec(radius=r, wall_thickness=t, youngs_modulus=e, shear_modulus=g, inversion_force=f)
    for r, t, e, g, f in itertools.product(
        corners(units.RADIUS), corners(units.RADIUS), corners(units.MODULUS),
        corners(units.MODULUS), corners(units.FORCE),
    )
]


def device_corners():
    """Every corner of the device's fields; the friction pair is either
    unset or set at its corners."""
    friction = [(None, None)] + list(
        itertools.product(corners(units.FRICTION), corners(positive(units.FORCE)))
    )
    for values in itertools.product(
        corners(units.TORQUE), corners(units.RADIUS), corners(positive(units.SPEED)),
        corners(units.AREA), corners(units.AREA), corners(units.APERTURE_C1),
        corners(positive(units.FORCE)), friction,
    ):
        torque, roller, speed, ring, routing, c1, c2, (mu, normal) = values
        yield DeviceSpec(
            max_motor_torque=torque, roller_radius=roller, motor_speed_max=speed,
            tip_ring_area=ring, routing_aperture_area=routing, aperture_c1=c1,
            aperture_c2=c2, static_friction=mu, roller_normal_force=normal,
        )


DEVICES = list(device_corners())


def extremes():
    """The model reads a device through its largest force and its aperture
    force alone: the devices with the smallest and largest force, each with
    the smallest and largest aperture force among them."""
    chosen = []
    for force_pick in (min, max):
        force = force_pick(d._constants[0] for d in DEVICES)
        same = [d for d in DEVICES if d._constants[0] == force]
        for aperture_pick in (min, max):
            chosen.append(aperture_pick(same, key=lambda d: d._constants[1]))
    return chosen


EXTREME_DEVICES = extremes()


def solved(call, *args):
    """``call(*args)``, or None where the curved closed form misses its
    bisection root by more than 1e-6 m (CrossCheckError, exit 3). That is
    its known cancellation where kappa*R is tiny, as at the straightness
    threshold on the 1 nm body: a cross-check failure on finite values,
    which this test leaves to the cross-check tests."""
    try:
        return call(*args)
    except CrossCheckError:
        return None


def finite(*values):
    for value in values:
        assert math.isfinite(value), values


def divisor(value, zero_handled=False):
    """A normal float, or the exact zero a branch handles before dividing."""
    if zero_handled and value == 0.0:
        return
    assert math.isfinite(value) and abs(value) >= TINY, value


def check_body(body):
    area = body.cross_section_area
    k1, k2, den_const, g_t = body._constants
    finite(k1, k2, den_const, g_t)
    for value in (area, den_const, g_t, body.radius):
        divisor(value)
    finite(min_inversion_pressure(body))


def check_row(body, pressure, curvature, required):
    """The length-free intermediates of a row at a required tension, as the
    row solver, the closed forms and the bisection kernels form them."""
    num, den_const, den_slope = mechanics._axial_terms(body, pressure)
    finite(num)
    divisor(den_slope)
    pa = pressure * body.cross_section_area
    par = pa * body.radius
    finite(pa, par)
    divisor(pa, zero_handled=True)
    if required is None:
        return
    finite(required)
    units.check("required_tension", required, *units.TENSION)
    if 0.0 < required < pa:
        # the straight closed form, and the bisection's bracket, which
        # doubles up to past the root
        divisor(required)
        closed = math.sqrt((num / required - den_const) / den_slope)
        finite(num / required, closed, den_slope * (4 * closed * closed))
    if curvature >= mechanics.KAPPA_STRAIGHT:
        arm_max = mechanics._moment_arm_clamped(body, curvature, math.inf)
        divisor(arm_max)
        if par / arm_max <= required < pa:
            # the curved closed form divides P*A*R by the required tension
            divisor(required)
            finite(par / required, math.pi / curvature)


def check_length(body, pressure, curvature, length):
    num, den_const, den_slope = mechanics._axial_terms(body, pressure)
    slope_term = den_slope * length * length
    finite(slope_term)
    divisor(den_const + slope_term)
    arm = mechanics._moment_arm_clamped(body, curvature, length)
    divisor(arm)
    finite(num / (den_const + slope_term), pressure * body.cross_section_area * body.radius / arm)


def check_prediction(prediction):
    if prediction is None:  # see ``solved``
        return
    verdict, mode, required, limit, margin, model, extrapolated = prediction
    finite(required)
    if mode is mechanics.FailureMode.NONE and limit == math.inf:  # a grounded row
        assert margin == math.inf
    else:
        finite(limit, margin)


def check_transition(length):
    assert length is None or (math.isfinite(length) and length >= 0.0), length


def check_solver(length):
    assert length is None or length == math.inf or (math.isfinite(length) and length >= 0.0)


def check_model(body, pressure, curvature, length):
    """Every exported function of the bare model at one point, and the
    intermediates of its row and length."""
    check_body(body)
    required = tail_tension_to_invert(body, pressure)
    check_row(body, pressure, curvature, required)
    check_length(body, pressure, curvature, length)
    finite(crushing_force(body, pressure))
    finite(wall_tension(body, pressure))
    for force in corners(units.FORCE):
        finite(wall_tension(body, pressure, force))
    check_prediction(solved(predict_behavior, body, RobotState(length, pressure, curvature)))
    check_transition(solved(transition_length, body, pressure, curvature))
    if length > 0:
        finite(axial_buckling_force(body, pressure, length))
    if curvature > 0:
        divisor(clamped_moment_arm(body, curvature, length))
        check_transition(solved(curved_transition_length, body, pressure, curvature))
        if curvature * length <= math.pi:
            finite(curved_buckling_force(body, pressure, curvature, length))
    if pressure >= units.PRESSURE.floor:
        finite(min_buckling_moment_arm(body, pressure))
    for tension in [required, *corners(units.TENSION)]:
        check_row(body, pressure, curvature, tension)
        check_solver(straight_transition_bisect(body, pressure, tension))
        check_solver(curved_transition_bisect(body, pressure, curvature, tension))


def check_device_alone(device):
    """The device's own constants, and the functions of the device alone."""
    force_max, f_i = device._constants
    finite(force_max, f_i)
    divisor(force_max)
    assert max_device_force(device) == force_max
    units.check("aperture force", f_i, *units.TENSION)
    for area in corners(units.AREA):
        finite(aperture_inversion_force(device, area))
    for f in corners(units.TENSION):
        finite(max_zero_tension_pressure(BodySpec(), device, 1.0, f))
    for speed in corners(units.Bounds(0.0, device.motor_speed_max, units.SPEED.floor)):
        kinematics = retraction_kinematics(device, speed)
        divisor(kinematics.tip_speed, zero_handled=True)
        if kinematics.tip_speed:  # the longest travel over the slowest tip
            finite(units.LENGTH.hi / kinematics.tip_speed)


def check_device(body, device, pressure, efficiency):
    """Every exported device function at one point, and the forces
    ``device_assist`` derives."""
    force_max, f_i = device._constants
    available = efficiency * force_max
    need = device_force_for_zero_tension(body, device, pressure)
    finite(available, need)
    force, required = device_assist(body, device, pressure, efficiency)
    finite(force)
    if required is not None:
        divisor(required, zero_handled=True)
    check_row(body, pressure, 0.444, required)
    for applied in corners(units.FORCE):
        finite(tail_tension_with_device(body, device, pressure, applied))
    finite(max_zero_tension_pressure(body, device, efficiency))
    finite(max_zero_tension_pressure(body, device, efficiency, body.inversion_force))
    try:
        finite(efficiency_for_pressure_ceiling(body, device, pressure))
    except ValueError as error:  # above the lossless ceiling
        assert "above 1" in str(error)


class TestCorners:
    def test_model(self):
        for body, pressure, curvature, length in itertools.product(
            BODIES, PRESSURES, CURVATURES, LENGTHS
        ):
            check_model(body, pressure, curvature, length)

    def test_device(self):
        bodies = [BodySpec(radius=r, inversion_force=0.0) for r in corners(units.RADIUS)]
        for device in DEVICES:
            check_device_alone(device)
            for body, pressure, efficiency in itertools.product(
                bodies, PRESSURES, EFFICIENCIES
            ):
                check_device(body, device, pressure, efficiency)

    def test_device_prediction(self):
        for body, device, pressure, curvature, length, efficiency in itertools.product(
            BODIES, EXTREME_DEVICES, PRESSURES, CURVATURES, LENGTHS, EFFICIENCIES
        ):
            state = RobotState(length, pressure, curvature)
            check_prediction(solved(predict_with_device, body, device, state, efficiency))
            _, required = device_assist_unchecked(body, device, pressure, efficiency)
            check_row(body, pressure, curvature, required)

    def test_diagrams(self):
        # each axis' centers at its ends: 1e-6 and 3e-6 Pa, 2.5e29 and 7.5e29
        # Pa; 2.5e5 and 7.5e5 m, and the smallest positive lengths
        pressure_axes = [AxisRange(0.0, 4e-6, 2), AxisRange(0.0, 1e30, 2), AxisRange(-1.0, 1.0, 1)]
        length_axes = [AxisRange(0.0, 1e6, 2), AxisRange(0.0, 4 * math.ulp(0.0), 2)]
        for body, curvature, device, pressures, lengths in itertools.product(
            BODIES[::3], CURVATURES, [None, *EXTREME_DEVICES], pressure_axes, length_axes
        ):
            request = SweepRequest(body, curvature, pressures, lengths, device)
            for diagram in (solved(classify_grid, request), oracle_scan(request)):
                if diagram is None:  # see ``solved``
                    continue
                for row in diagram.grid:
                    for cell in row:
                        check_prediction(cell)
                for pressure, length in diagram.transition_curve:
                    check_transition(length)

    def test_episodes(self):
        # the farthest tips, the longest steps, and schedules whose
        # breakpoints sit at the position and pressure corners
        devices = [None, *EXTREME_DEVICES]
        schedules = [
            dict(pressure=pressure) for pressure in PRESSURES
        ] + [
            dict(pressure_points=((-1e6, units.PRESSURE.hi), (-1e-9, 0.0), (0.0, 1e-6),
                                  (1e-9, units.PRESSURE.hi), (1e6, 0.0))),
        ]
        for body, device, schedule, curvature in itertools.product(
            BODIES[::3], devices, schedules, CURVATURES
        ):
            speed = None if device is None else units.SPEED.floor
            retract = Scenario(body, 1e6, curvature=curvature, device=device, step=5e5,
                               motor_speed=speed, base_takeup=False, **schedule)
            grow = Scenario(body, 0.0, curvature=curvature, device=device, step=5e5,
                            target_length=1e6, motor_speed=speed, **schedule)
            for log in (solved(simulate_retraction, retract), solved(simulate_growth, grow)):
                for step in () if log is None else log.steps:
                    finite(step.pressure, step.required_tension, step.device_force, step.slack)
                    assert device is None or math.isfinite(step.time)

    def test_schedule_segments(self):
        # the closest positions the box allows, and the widest span
        positions = corners(units.POSITION) + [math.nextafter(units.POSITION.floor, 1.0)]
        for x0, x1 in itertools.combinations(sorted(positions), 2):
            for p0, p1 in itertools.product(PRESSURES, repeat=2):
                scenario = Scenario(BodySpec(), 0.0, pressure_points=((x0, p0), (x1, p1)))
                _, _, segments = scenario._segments
                for x0_, p0_, rise, run, lo, hi in segments:
                    divisor(run)
                    finite(rise)
                for tip in (x0, 0.5 * (x0 + x1), x1):
                    finite(scenario.pressure_at(tip))

    def test_inversion_fit(self):
        for area in corners(units.AREA):
            for pressures, tensions in itertools.product(
                itertools.product(PRESSURES, repeat=2),
                itertools.product(corners(units.FORCE), repeat=2),
            ):
                samples = [TensionSample(p, t) for p, t in zip(pressures, tensions)]
                fit = fit_inversion_force(samples, area)
                finite(fit.inversion_force, fit.residual_rms)

    @pytest.mark.needs_numpy
    def test_aperture_fit(self):
        # two distinct areas at the corners; areas too close for a full-rank
        # line are a ValueError, and no corner raises FloatingPointError
        areas = corners(units.AREA)
        forces = corners(positive(units.FORCE))
        for (a0, a1), (f0, f1) in itertools.product(
            itertools.combinations(areas, 2), itertools.product(forces, repeat=2)
        ):
            fit = fit_aperture_constants([ApertureSample(a0, f0), ApertureSample(a1, f1)])
            finite(fit.c1, fit.c2, fit.residual_rms)


BODY_DRAWS = st.builds(
    BodySpec,
    radius=log_uniform(units.RADIUS),
    wall_thickness=log_uniform(units.RADIUS),
    youngs_modulus=log_uniform(units.MODULUS),
    shear_modulus=log_uniform(units.MODULUS),
    inversion_force=log_uniform(units.FORCE),
)


# 50 draws each, between the corners above
class TestDraws:
    @settings(max_examples=50)
    @given(
        body=BODY_DRAWS,
        pressure=log_uniform(units.PRESSURE),
        curvature=log_uniform(units.CURVATURE),
        length=log_uniform(units.LENGTH),
    )
    def test_model(self, body, pressure, curvature, length):
        check_model(body, pressure, curvature, length)

    @settings(max_examples=50)
    @given(
        body=BODY_DRAWS,
        device=st.builds(
            DeviceSpec,
            max_motor_torque=log_uniform(units.TORQUE),
            roller_radius=log_uniform(units.RADIUS),
            motor_speed_max=log_uniform(units.SPEED, zero=False),
            tip_ring_area=log_uniform(units.AREA),
            routing_aperture_area=log_uniform(units.AREA),
            aperture_c1=log_uniform(units.APERTURE_C1),
            aperture_c2=log_uniform(units.FORCE, zero=False),
        ),
        pressure=log_uniform(units.PRESSURE),
        curvature=log_uniform(units.CURVATURE),
        length=log_uniform(units.LENGTH),
        efficiency=st.floats(0.0, 1.0),
    )
    def test_device(self, body, device, pressure, curvature, length, efficiency):
        check_device_alone(device)
        check_device(body, device, pressure, efficiency)
        state = RobotState(length, pressure, curvature)
        check_prediction(solved(predict_with_device, body, device, state, efficiency))
        _, required = device_assist_unchecked(body, device, pressure, efficiency)
        check_row(body, pressure, curvature, required)
        check_length(body, pressure, curvature, length)

    @settings(max_examples=50)
    @given(
        samples=st.lists(
            st.builds(TensionSample, log_uniform(units.PRESSURE), log_uniform(units.FORCE)),
            min_size=1, max_size=5,
        ),
        area=log_uniform(units.AREA),
    )
    def test_inversion_fit(self, samples, area):
        fit = fit_inversion_force(samples, area)
        finite(fit.inversion_force, fit.residual_rms)
