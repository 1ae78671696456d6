"""Retraction device: force balance, actuation limits, aperture model, kinematics."""

import math
from dataclasses import replace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from vinebuckle import (
    BodySpec,
    DeviceSpec,
    RobotState,
    Verdict,
    aperture_inversion_force,
    device_assist,
    device_force_for_zero_tension,
    efficiency_for_pressure_ceiling,
    max_device_force,
    max_zero_tension_pressure,
    predict_behavior,
    predict_with_device,
    retraction_kinematics,
    tail_tension_to_invert,
    tail_tension_with_device,
    wall_tension,
)

RING_FORCE = 4.058472775672314  # N, through the 3.2 cm tip grounding ring


class TestApertureForce:
    def test_huge_aperture_approaches_floor(self, device):
        assert aperture_inversion_force(device, area=1e6) == pytest.approx(3.3, rel=1e-6)

    def test_five_square_centimetres(self, device):
        assert aperture_inversion_force(device, area=5e-4) == pytest.approx(4.52, rel=1e-12)

    def test_default_is_tip_ring(self, device):
        assert aperture_inversion_force(device) == pytest.approx(RING_FORCE, rel=1e-12)

    def test_body_cross_section_matches_bare_offset(self, body, device):
        force = aperture_inversion_force(device, area=body.cross_section_area)
        assert force == pytest.approx(3.407498425230235, rel=1e-12)
        assert force == pytest.approx(body.inversion_force, rel=0.05)

    def test_smaller_routing_aperture_governs(self):
        device = DeviceSpec(routing_aperture_area=4e-4)
        assert device.min_aperture_area == 4e-4
        assert aperture_inversion_force(device) == pytest.approx(6.1e-4 / 4e-4 + 3.3)

    @given(
        a1=st.floats(min_value=1e-4, max_value=1e-2),
        factor=st.floats(min_value=1.01, max_value=50.0),
    )
    def test_strictly_decreasing_and_bounded_below(self, a1, factor):
        device = DeviceSpec()
        low, high = aperture_inversion_force(device, a1 * factor), aperture_inversion_force(device, a1)
        assert low < high
        assert low > device.aperture_c2

    def test_nonpositive_area_rejected(self, device):
        with pytest.raises(ValueError):
            aperture_inversion_force(device, area=0.0)


class TestTailTensionWithDevice:
    def test_inert_device_reduces_to_plain_tension(self, body, device):
        adjusted = replace(body, inversion_force=aperture_inversion_force(device))
        for pressure in (0.0, 2e3, 10e3):
            assert tail_tension_with_device(body, device, pressure, 0.0) == tail_tension_to_invert(
                adjusted, pressure
            )

    def test_zero_tension_force_is_exact_root(self, body, device):
        for pressure in (0.0, 1.7e3, 2e3, 6.2e3, 10e3):
            force = device_force_for_zero_tension(body, device, pressure)
            assert tail_tension_with_device(body, device, pressure, force) == 0.0

    def test_known_value(self, body, device):
        assert tail_tension_with_device(body, device, 2e3, 10.0) == pytest.approx(
            4.732974506218881, rel=1e-12
        )

    @given(pressure=st.just(0.0) | st.floats(min_value=1e-6, max_value=20e3))
    def test_affine_in_device_force_with_slope_minus_half(self, pressure):
        body, device = BodySpec(), DeviceSpec()
        t0 = tail_tension_with_device(body, device, pressure, 0.0)
        t10 = tail_tension_with_device(body, device, pressure, 10.0)
        assert t0 - t10 == pytest.approx(5.0, rel=1e-9)


class TestZeroTensionForce:
    def test_zero_pressure(self, body, device):
        assert device_force_for_zero_tension(body, device, 0.0) == pytest.approx(
            2 * RING_FORCE, rel=1e-12
        )

    def test_two_kilopascal(self, body, device):
        assert device_force_for_zero_tension(body, device, 2e3) == pytest.approx(
            19.46594901243776, rel=1e-12
        )

    def test_near_device_maximum_at_six_point_two(self, body, device):
        needed = device_force_for_zero_tension(body, device, 6.2e3)
        assert needed == pytest.approx(43.29885628073333, rel=1e-12)
        assert needed == pytest.approx(max_device_force(device), rel=0.1)


class TestMaxDeviceForce:
    def test_torque_limited_default(self, device):
        force = max_device_force(device)
        assert force == pytest.approx(40.83333333333333, rel=1e-12)
        assert force == pytest.approx(41.0, rel=0.01)

    def test_friction_limit_can_bind(self):
        device = DeviceSpec(static_friction=0.8, roller_normal_force=25.0)
        assert max_device_force(device) == pytest.approx(20.0, rel=1e-12)

    def test_linear_in_torque(self):
        halved = DeviceSpec(max_motor_torque=0.1225)
        assert max_device_force(halved) == pytest.approx(20.416666666666664, rel=1e-12)


class TestZeroTensionPressureCeiling:
    def test_bare_offset_matches_reported_headline(self, body, device):
        ceiling = max_zero_tension_pressure(
            body, device, efficiency=1.0, inversion_force=body.inversion_force
        )
        assert ceiling == pytest.approx(5962.344350201567, rel=1e-12)
        assert ceiling == pytest.approx(6200.0, rel=0.10)

    def test_aperture_adjusted_value(self, body, device):
        assert max_zero_tension_pressure(body, device) == pytest.approx(
            5765.508468500806, rel=1e-12
        )

    def test_floor_at_zero(self, body):
        weak = DeviceSpec(max_motor_torque=1e-3)
        assert max_zero_tension_pressure(body, weak) == 0.0

    def test_efficiency_backsolve_round_trips(self, body, device):
        efficiency = efficiency_for_pressure_ceiling(body, device, 2e3)
        assert efficiency == pytest.approx(0.4767171186719452, rel=1e-12)
        assert max_zero_tension_pressure(body, device, efficiency=efficiency) == pytest.approx(
            2e3, rel=1e-9
        )

    def test_ceiling_above_the_lossless_one_is_rejected(self, body, device):
        lossless = max_zero_tension_pressure(body, device)
        assert efficiency_for_pressure_ceiling(body, device, lossless) == 1.0
        for pressure in (math.nextafter(lossless, math.inf), 10e3):
            with pytest.raises(ValueError, match="^max_pressure .* above 1"):
                efficiency_for_pressure_ceiling(body, device, pressure)
        # 2*F_I alone exceeds a weak device's force: no pressure is in reach
        with pytest.raises(ValueError, match="above 1"):
            efficiency_for_pressure_ceiling(body, DeviceSpec(max_motor_torque=1e-3), 0.0)

    def test_bad_efficiency_rejected(self, body, device):
        # one efficiency range, [0, 1], as in device_assist, SweepRequest and Scenario
        for efficiency in (-0.1, -5e-324, 1.0000000000000002, math.nan, math.inf):
            with pytest.raises(ValueError):
                max_zero_tension_pressure(body, device, efficiency=efficiency)
        assert max_zero_tension_pressure(body, device, efficiency=0.0) == 0.0


class TestKinematics:
    def test_full_speed(self, device):
        kin = retraction_kinematics(device, device.motor_speed_max)
        assert kin.tip_speed == pytest.approx(0.020734511513692633, rel=1e-12)
        assert kin.tip_speed == pytest.approx(0.021, rel=0.05)

    def test_zero_speed(self, device):
        kin = retraction_kinematics(device, 0.0)
        assert kin.roller_surface_speed == kin.tip_speed == kin.base_takeup_speed == 0.0

    def test_half_speed_scales_linearly(self, device):
        kin = retraction_kinematics(device, device.motor_speed_max / 2)
        assert kin.tip_speed == pytest.approx(0.010367255756846316, rel=1e-12)

    @given(fraction=st.floats(min_value=1e-6, max_value=1.0))
    def test_two_to_one_ratios(self, fraction):
        device = DeviceSpec()
        kin = retraction_kinematics(device, fraction * device.motor_speed_max)
        assert kin.tip_speed * 2 == kin.roller_surface_speed
        assert kin.base_takeup_speed == kin.roller_surface_speed

    def test_overspeed_rejected(self, device):
        with pytest.raises(ValueError):
            retraction_kinematics(device, device.motor_speed_max * 1.01)


class TestForceBalance:
    def test_tensions_sum_to_pressure_load(self, body, device):
        # tail and wall tension at the device's aperture inversion force
        adjusted = replace(body, inversion_force=aperture_inversion_force(device))
        tail = tail_tension_with_device(body, device, 2e3, 10.0)
        assert tail + wall_tension(adjusted, 2e3, 10.0) == pytest.approx(
            2e3 * body.cross_section_area, rel=1e-12
        )


class TestPredictWithDevice:
    def test_low_pressure_inverts_with_zero_tension(self, body, device):
        for curvature in (0.0, 1 / 2.25, 1 / 0.72):
            for length in (0.5, 3.0):
                state = RobotState(length=length, pressure=1.4e3, curvature=curvature)
                prediction = predict_with_device(body, device, state)
                assert prediction.verdict is Verdict.INVERT
                assert prediction.required_tension == 0.0
                assert math.isinf(prediction.limiting_force)

    def test_saturated_device_leaves_residual_tension(self, body, device):
        state = RobotState(length=3.0, pressure=10e3)
        prediction = predict_with_device(body, device, state)
        assert prediction.required_tension == pytest.approx(12.014314761738476, rel=1e-12)
        # residual exceeds the axial limit at 3 m, so the body still buckles
        assert prediction.verdict is Verdict.BUCKLE

    def test_zero_efficiency_matches_plain_prediction_with_ring_force(self, body, device):
        adjusted = replace(body, inversion_force=aperture_inversion_force(device))
        for state in (
            RobotState(length=1.0, pressure=2e3),
            RobotState(length=0.4, pressure=3e3, curvature=1 / 2.25),
            RobotState(length=2.5, pressure=0.9e3),
        ):
            assert predict_with_device(body, device, state, efficiency=0.0) == predict_behavior(
                adjusted, state
            )

    @given(
        pressure=st.just(0.0) | st.floats(min_value=1e-6, max_value=5.7e3),
        length=st.floats(min_value=0.0, max_value=4.0),
        curvature=st.floats(min_value=0.0, max_value=2.0),
    )
    def test_never_buckles_inside_zero_tension_envelope(self, pressure, length, curvature):
        body, device = BodySpec(), DeviceSpec()
        state = RobotState(length=length, pressure=pressure, curvature=curvature)
        if device_force_for_zero_tension(body, device, pressure) <= max_device_force(device):
            assert predict_with_device(body, device, state).verdict is Verdict.INVERT

    def test_applied_force_caps_at_available(self, body, device):
        assert device_assist(body, device, 2e3)[0] == pytest.approx(
            19.46594901243776, rel=1e-12
        )
        assert device_assist(body, device, 10e3)[0] == pytest.approx(
            40.83333333333333, rel=1e-12
        )


class TestDeviceValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_motor_torque": 0.0},
            {"roller_radius": -0.01},
            {"tip_ring_area": 0.0},
            {"aperture_c1": -1.0},
            {"static_friction": 0.0},
            {"max_motor_torque": math.nan},
        ],
    )
    def test_bad_device(self, kwargs):
        with pytest.raises(ValueError):
            DeviceSpec(**kwargs)
