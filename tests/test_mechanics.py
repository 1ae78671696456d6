"""Core mechanics: closed forms, transition solvers and the dispatcher.

Expected values were computed independently (direct arithmetic for the
formulas, bisection on the force balances for the transitions) and frozen.
"""

import math
import sys
import threading
from dataclasses import replace

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from vinebuckle import (
    BehaviorPrediction,
    BodySpec,
    CrossCheckError,
    DeviceSpec,
    FailureMode,
    ModelUsed,
    RobotState,
    Verdict,
    aperture_inversion_force,
    axial_buckling_force,
    clamped_moment_arm,
    crushing_force,
    curved_buckling_force,
    curved_transition_bisect,
    curved_transition_length,
    device_assist,
    max_device_force,
    mechanics,
    min_buckling_moment_arm,
    min_inversion_pressure,
    predict_behavior,
    straight_transition_bisect,
    tail_tension_to_invert,
    transition_length,
    units,
    wall_tension,
)
from vinebuckle.mechanics import (
    bisect_root,
    predict_at_length_unchecked,
    solve_pressure_row_unchecked,
)

from test_contract import largest_radius, smallest_radius

K_SMALL = 1 / 4.55   # 455 cm radius of curvature
K_MEDIUM = 1 / 2.25  # 225 cm
K_LARGE = 1 / 0.72   # 72 cm

pressures = st.floats(min_value=10.0, max_value=20e3)
lengths = st.floats(min_value=1e-3, max_value=5.0)
curvatures = st.floats(min_value=0.05, max_value=2.0)


class TestTailTension:
    def test_zero_pressure_is_offset_force(self, body):
        assert tail_tension_to_invert(body, 0.0) == 3.5

    def test_ten_kilopascal(self, body):
        assert tail_tension_to_invert(body, 10e3) == pytest.approx(
            31.872508652732826, rel=1e-12
        )

    def test_zero_offset_zero_pressure(self):
        frictionless = BodySpec(inversion_force=0.0)
        assert tail_tension_to_invert(frictionless, 0.0) == 0.0

    @given(p1=pressures, p2=pressures)
    def test_affine_with_slope_half_area(self, p1, p2):
        body = BodySpec()
        assume(abs(p2 - p1) > 1.0)
        diff = tail_tension_to_invert(body, p2) - tail_tension_to_invert(body, p1)
        assert diff == pytest.approx(0.5 * body.cross_section_area * (p2 - p1), rel=1e-9)

    def test_negative_pressure_rejected(self, body):
        with pytest.raises(ValueError):
            tail_tension_to_invert(body, -1.0)


class TestCrushing:
    def test_zero_pressure(self, body):
        assert crushing_force(body, 0.0) == 0.0

    @pytest.mark.parametrize(
        "pressure, expected",
        [(2e3, 11.349003461093131), (10e3, 56.74501730546565)],
    )
    def test_known_values(self, body, pressure, expected):
        assert crushing_force(body, pressure) == pytest.approx(expected, rel=1e-12)

    @given(pressure=pressures, length=lengths)
    def test_independent_of_length(self, pressure, length):
        body = BodySpec()
        assert crushing_force(body, pressure) == pressure * body.cross_section_area


class TestAxialBuckling:
    def test_known_value(self, body):
        assert axial_buckling_force(body, 2e3, 1.0) == pytest.approx(
            51.53548015941337, rel=1e-12
        )

    def test_short_length_limit(self, body):
        # analytic limit P*A + pi*R*G*t
        limit = crushing_force(body, 2e3) + math.pi * 0.0425 * 210e6 * 74e-6
        assert limit == pytest.approx(2086.2138715244723, rel=1e-12)
        assert axial_buckling_force(body, 2e3, 1e-6) == pytest.approx(limit, rel=1e-9)

    @given(pressure=pressures, length=lengths, factor=st.floats(min_value=1.01, max_value=10.0))
    def test_strictly_decreasing_in_length(self, pressure, length, factor):
        body = BodySpec()
        assert axial_buckling_force(body, pressure, length * factor) < axial_buckling_force(
            body, pressure, length
        )

    @pytest.mark.parametrize("radius", [1e74, 1e75, 1e77])
    def test_zero_pressure_on_huge_radii_is_finite(self, radius):
        # E*pi^3*R^4*t overflows from R ~ 1.2e74 m; the force at 0 Pa does
        # not use it: E*G*pi^3*R^3*t^2 / (E*pi^2*R^2*t + G*t*L^2)
        body = BodySpec(radius=radius)
        e, g, t = body.youngs_modulus, body.shear_modulus, body.wall_thickness
        expected = e * g * math.pi**3 * radius**3 * t * t / (e * math.pi**2 * radius**2 * t + g * t)
        force = axial_buckling_force(body, 0.0, 1.0)
        assert math.isfinite(force) and force > 0
        assert force == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("length", [0.0, -1.0])
    def test_nonpositive_length_rejected(self, body, length):
        with pytest.raises(ValueError):
            axial_buckling_force(body, 2e3, length)


class TestMinInversionPressure:
    def test_default_body(self, body):
        assert min_inversion_pressure(body) == pytest.approx(1233.5884862486002, rel=1e-12)

    def test_frictionless_tip(self):
        assert min_inversion_pressure(BodySpec(inversion_force=0.0)) == 0.0

    def test_matches_reported_value_loosely(self, body):
        # the reference hardware rounds this to 1.1 kPa
        assert min_inversion_pressure(body) == pytest.approx(1100.0, rel=0.15)


class TestMomentArm:
    def test_zero_length_is_radius(self, body):
        assert clamped_moment_arm(body, K_MEDIUM, 0.0) == body.radius

    def test_vanishing_curvature_is_radius(self, body):
        assert clamped_moment_arm(body, 1e-9, 2.0) == body.radius

    def test_known_value(self, body):
        assert clamped_moment_arm(body, K_MEDIUM, 0.2132) == pytest.approx(
            0.05259338677757854, rel=1e-12
        )

    @given(curvature=curvatures, l1=lengths, l2=lengths)
    def test_non_decreasing_in_length(self, curvature, l1, l2):
        # across kappa*L = pi too, where the arm is held at its maximum
        body = BodySpec()
        lo, hi = sorted((l1, l2))
        assert clamped_moment_arm(body, curvature, hi) >= clamped_moment_arm(
            body, curvature, lo
        )


class TestCurvedBuckling:
    def test_zero_length_equals_crushing(self, body):
        assert curved_buckling_force(body, 2e3, K_MEDIUM, 0.0) == pytest.approx(
            crushing_force(body, 2e3), rel=1e-12
        )

    def test_known_value(self, body):
        assert curved_buckling_force(body, 2e3, K_MEDIUM, 0.2132) == pytest.approx(
            9.170975224247867, rel=1e-12
        )

    def test_domain_error_past_half_turn(self, body):
        with pytest.raises(ValueError, match="^kappa\\*L must be finite"):
            curved_buckling_force(body, 2e3, 2.0, math.pi / 2.0 + 0.1)

    @pytest.mark.parametrize("length", [0.1, 1.0, 3.0])
    def test_vanishing_curvature_recovers_crushing(self, body, length):
        crush = crushing_force(body, 2e3)
        force = curved_buckling_force(body, 2e3, 1e-8, length)
        assert abs(force - crush) / crush < 1e-9

    @given(curvature=curvatures, l1=lengths, l2=lengths)
    def test_non_increasing_in_length(self, curvature, l1, l2):
        body = BodySpec()
        lo, hi = sorted((l1, l2))
        assume(curvature * hi <= math.pi)
        assert curved_buckling_force(body, 2e3, curvature, hi) <= curved_buckling_force(
            body, 2e3, curvature, lo
        )


class TestMinBucklingMomentArm:
    def test_at_minimum_pressure_equals_radius(self, body):
        assert min_buckling_moment_arm(body, min_inversion_pressure(body)) == pytest.approx(
            body.radius, rel=1e-12
        )

    def test_high_pressure_approaches_twice_radius(self, body):
        assert min_buckling_moment_arm(body, 1e9) == pytest.approx(
            2 * body.radius, rel=1e-4
        )

    def test_known_value(self, body):
        assert min_buckling_moment_arm(body, 2e3) == pytest.approx(
            0.05257317086665625, rel=1e-12
        )

    def test_arm_where_the_moment_overflows(self):
        # P*A*R = 3.1e331 overflows; the arm is about 2R
        arm = min_buckling_moment_arm(BodySpec(radius=1e77), 1e100)
        assert arm == pytest.approx(2e77, rel=1e-12)

    @given(
        radius=st.floats(-3.0, 77.0).map(lambda e: 10.0**e),
        pressure=st.floats(0.0, 300.0).map(lambda e: 10.0**e),
    )
    def test_finite_arms_keep_their_bits(self, radius, pressure):
        body = BodySpec(radius=radius)
        pa = pressure * body.cross_section_area
        required = 0.5 * pa + body.inversion_force
        assume(math.isfinite(required))
        expected = pa * body.radius / required
        arm = min_buckling_moment_arm(body, pressure)
        if math.isfinite(expected):
            assert arm.hex() == expected.hex()
        else:  # P*A*R overflowed; the arm is still between R and 2R
            assert body.radius <= arm <= 2 * body.radius


class TestWallTension:
    def test_zero_at_minimum_pressure(self, body):
        p_min = min_inversion_pressure(body)
        assert wall_tension(body, p_min) == pytest.approx(0.0, abs=1e-12)

    def test_known_value(self, body):
        assert wall_tension(body, 2e3) == pytest.approx(2.174501730546565, rel=1e-12)

    def test_device_force_restores_crushing_level(self, body):
        force = crushing_force(body, 2e3) + 2 * body.inversion_force
        assert wall_tension(body, 2e3, device_force=force) == pytest.approx(
            crushing_force(body, 2e3), rel=1e-12
        )

    @given(pressure=pressures)
    def test_sign_flips_at_minimum_pressure(self, pressure):
        body = BodySpec()
        p_min = min_inversion_pressure(body)
        assume(abs(pressure - p_min) > 1e-6)
        assert (wall_tension(body, pressure) > 0) == (pressure > p_min)


class TestStraightTransition:
    @pytest.mark.parametrize(
        "pressure, expected",
        [(2e3, 2.3946188550377654), (10e3, 1.2779244935628533)],
    )
    def test_known_values(self, body, pressure, expected):
        assert transition_length(body, pressure) == pytest.approx(expected, rel=1e-9)

    def test_below_minimum_pressure_has_no_transition(self, body):
        assert transition_length(body, 1e3) is None

    def test_transition_sits_on_the_force_balance(self, body):
        critical = transition_length(body, 2e3)
        assert axial_buckling_force(body, 2e3, critical) == pytest.approx(
            tail_tension_to_invert(body, 2e3), rel=1e-9
        )

    @given(p1=st.floats(min_value=1.4e3, max_value=20e3), p2=st.floats(min_value=1.4e3, max_value=20e3))
    def test_non_increasing_in_pressure(self, p1, p2):
        body = BodySpec()
        lo, hi = sorted((p1, p2))
        assert transition_length(body, hi) <= transition_length(body, lo)


class TestCurvedTransition:
    def test_known_value(self, body):
        assert curved_transition_length(body, 2e3, K_MEDIUM) == pytest.approx(
            0.21298622552096275, rel=1e-9
        )

    def test_at_minimum_pressure_is_zero(self, body):
        p_min = min_inversion_pressure(body)
        critical = curved_transition_length(body, p_min, K_MEDIUM)
        assert critical == pytest.approx(0.0, abs=1e-6)

    def test_below_minimum_pressure_has_no_transition(self, body):
        assert curved_transition_length(body, 1e3, K_MEDIUM) is None

    def test_more_curved_buckles_sooner(self, body):
        large = curved_transition_length(body, 2e3, K_LARGE)
        medium = curved_transition_length(body, 2e3, K_MEDIUM)
        small = curved_transition_length(body, 2e3, K_SMALL)
        assert large == pytest.approx(0.12057908495567549, rel=1e-9)
        assert small == pytest.approx(0.30281957960569406, rel=1e-9)
        assert large < medium < small

    def test_nonpositive_curvature_rejected(self, body):
        with pytest.raises(ValueError):
            curved_transition_length(body, 2e3, 0.0)

    def test_frictionless_tip_at_zero_pressure_has_no_transition(self):
        # zero pressure and zero required tension: no finite transition, and
        # the closed form returns before it would divide by the tension
        body = BodySpec(inversion_force=0.0)
        assert curved_transition_length(body, 0.0, K_MEDIUM) is None
        assert transition_length(body, 0.0, K_MEDIUM) is None

    @given(pressure=st.floats(min_value=1.4e3, max_value=20e3), k1=curvatures, k2=curvatures)
    def test_non_increasing_in_curvature(self, pressure, k1, k2):
        body = BodySpec()
        lo, hi = sorted((k1, k2))
        t_lo = transition_length(body, pressure, lo)
        t_hi = transition_length(body, pressure, hi)
        assert t_hi <= t_lo + 1e-12


class TestPredictBehavior:
    def test_straight_inverts_below_transition(self, body):
        prediction = predict_behavior(body, RobotState(length=1.0, pressure=2e3))
        assert prediction.verdict is Verdict.INVERT
        assert prediction.mode is FailureMode.NONE
        assert prediction.model_used is ModelUsed.STRAIGHT
        # crushing is the binding limit here
        assert prediction.limiting_force == pytest.approx(11.349003461093131, rel=1e-12)
        assert prediction.margin == pytest.approx(2.174501730546565, rel=1e-12)

    @pytest.mark.parametrize("length", [0.1, 1.0, 2.9])
    def test_low_pressure_always_crushes(self, body, length):
        prediction = predict_behavior(body, RobotState(length=length, pressure=1e3))
        assert prediction.verdict is Verdict.BUCKLE
        assert prediction.mode is FailureMode.CRUSH

    def test_curved_buckles_past_transition(self, body):
        state = RobotState(length=0.5, pressure=2e3, curvature=K_MEDIUM)
        prediction = predict_behavior(body, state)
        assert prediction.verdict is Verdict.BUCKLE
        assert prediction.mode is FailureMode.TRANSVERSE_BUCKLE
        assert prediction.model_used is ModelUsed.CURVED

    def test_straight_buckles_axially_past_transition(self, body):
        prediction = predict_behavior(body, RobotState(length=3.0, pressure=2e3))
        assert prediction.verdict is Verdict.BUCKLE
        assert prediction.mode is FailureMode.AXIAL_BUCKLE

    def test_margin_consistency(self, body):
        prediction = predict_behavior(body, RobotState(length=1.7, pressure=4e3, curvature=0.3))
        assert prediction.margin == prediction.limiting_force - prediction.required_tension
        assert (prediction.verdict is Verdict.INVERT) == (
            prediction.required_tension < prediction.limiting_force
        )

    def test_barely_curved_body_dispatches_straight(self, body):
        # curvature above the straightness threshold but with a curved
        # transition longer than the straight one, so the straight model rules
        assert curved_transition_length(body, 2e3, 1e-3) > transition_length(body, 2e3)
        prediction = predict_behavior(body, RobotState(length=1.0, pressure=2e3, curvature=1e-3))
        assert prediction.model_used is ModelUsed.STRAIGHT

    def test_extrapolated_past_half_turn(self, body):
        state = RobotState(length=3.0, pressure=2e3, curvature=K_LARGE)
        prediction = predict_behavior(body, state)
        assert prediction.extrapolated
        assert prediction.verdict is Verdict.BUCKLE

    def test_not_extrapolated_inside_domain(self, body):
        state = RobotState(length=1.0, pressure=2e3, curvature=K_LARGE)
        prediction = predict_behavior(body, state)
        assert not prediction.extrapolated

    @pytest.mark.parametrize("pressure", [5.5e21, 7.9e21])
    def test_zero_length_limit_is_crushing_where_the_axial_form_rounds_below(
        self, body, pressure
    ):
        # the axial force holds at lengths > 0 only: at zero length its
        # expression, num / den_const, rounds below P*A at these pressures,
        # and the straight limit is still P*A
        crush = crushing_force(body, pressure)
        assert reference_axial_force(body, pressure, 0.0) < crush
        prediction = predict_behavior(body, RobotState(length=0.0, pressure=pressure))
        assert prediction.model_used is ModelUsed.STRAIGHT
        assert prediction.limiting_force == crush

    def test_axial_force_equal_to_crushing_is_a_crush(self, body):
        # at this length the axial force equals P*A to the bit; axial
        # buckling binds only where it is strictly smaller
        pressure, length = 344.7124558091775, 5.195025915333571
        assert reference_axial_force(body, pressure, length) == crushing_force(body, pressure)
        prediction = predict_behavior(body, RobotState(length=length, pressure=pressure))
        assert prediction.verdict is Verdict.BUCKLE
        assert prediction.mode is FailureMode.CRUSH

    @given(pressure=pressures, curvature=curvatures)
    def test_crush_equivalence_at_zero_length(self, pressure, curvature):
        body = BodySpec()
        curved = predict_behavior(body, RobotState(length=0.0, pressure=pressure, curvature=curvature))
        straight_crush = tail_tension_to_invert(body, pressure) < crushing_force(body, pressure)
        assert (curved.verdict is Verdict.INVERT) == straight_crush

    @given(pressure=st.floats(min_value=1.5e3, max_value=15e3), curvature=curvatures)
    def test_single_transition_in_length(self, pressure, curvature):
        body = BodySpec()
        verdicts = [
            predict_behavior(body, RobotState(length=l, pressure=pressure, curvature=curvature)).verdict
            for l in [i * 0.02 for i in range(150)]
        ]
        flips = sum(1 for a, b in zip(verdicts, verdicts[1:]) if a is not b)
        assert flips <= 1
        if flips == 1:
            assert verdicts[0] is Verdict.INVERT and verdicts[-1] is Verdict.BUCKLE


class TestPredictionRecord:
    # the hot paths build BehaviorPrediction by position, so the field order
    # is part of its contract
    FIELDS = (
        "verdict",
        "mode",
        "required_tension",
        "limiting_force",
        "margin",
        "model_used",
        "extrapolated",
    )

    def test_fields_in_order(self):
        assert BehaviorPrediction._fields == self.FIELDS
        assert BehaviorPrediction._field_defaults == {"extrapolated": False}

    @pytest.mark.parametrize("name", FIELDS)
    def test_fields_are_read_only(self, body, name):
        prediction = predict_behavior(body, RobotState(length=1.0, pressure=2e3))
        with pytest.raises(AttributeError):
            setattr(prediction, name, getattr(prediction, name))

    def test_unpacks_in_field_order_and_equals_its_tuple(self, body):
        prediction = predict_behavior(body, RobotState(length=1.0, pressure=2e3))
        verdict, mode, required, limit, margin, model, extrapolated = prediction
        assert (verdict, mode, required, limit, margin, model, extrapolated) == tuple(
            getattr(prediction, name) for name in self.FIELDS
        )
        assert prediction == tuple(prediction)

    def test_straight_invert_row(self, body):
        pressure, length = 2e3, 1.0
        required = tail_tension_to_invert(body, pressure)
        row = solve_pressure_row_unchecked(body, pressure, 0.0, required)
        limit = crushing_force(body, pressure)  # crushing binds at 1 m
        expected = BehaviorPrediction(
            verdict=Verdict.INVERT,
            mode=FailureMode.NONE,
            required_tension=required,
            limiting_force=limit,
            margin=limit - required,
            model_used=ModelUsed.STRAIGHT,
            extrapolated=False,
        )
        actual = predict_at_length_unchecked(row, length)
        assert type(actual) is BehaviorPrediction
        assert actual == expected

    def test_axial_buckle_row(self, body):
        pressure, length = 2e3, 3.0
        required = tail_tension_to_invert(body, pressure)
        row = solve_pressure_row_unchecked(body, pressure, 0.0, required)
        limit = axial_buckling_force(body, pressure, length)
        expected = BehaviorPrediction(
            verdict=Verdict.BUCKLE,
            mode=FailureMode.AXIAL_BUCKLE,
            required_tension=required,
            limiting_force=limit,
            margin=limit - required,
            model_used=ModelUsed.STRAIGHT,
            extrapolated=False,
        )
        assert predict_at_length_unchecked(row, length) == expected

    def test_transverse_buckle_row(self, body):
        pressure, length = 2e3, 0.5
        required = tail_tension_to_invert(body, pressure)
        row = solve_pressure_row_unchecked(body, pressure, K_MEDIUM, required)
        limit = curved_buckling_force(body, pressure, K_MEDIUM, length)
        expected = BehaviorPrediction(
            verdict=Verdict.BUCKLE,
            mode=FailureMode.TRANSVERSE_BUCKLE,
            required_tension=required,
            limiting_force=limit,
            margin=limit - required,
            model_used=ModelUsed.CURVED,
            extrapolated=False,
        )
        assert predict_at_length_unchecked(row, length) == expected

    def test_grounded_device_row(self, body):
        _, required = device_assist(body, DeviceSpec(), 2e3)
        row = solve_pressure_row_unchecked(body, 2e3, 0.0, required)
        assert row.grounded
        expected = BehaviorPrediction(
            verdict=Verdict.INVERT,
            mode=FailureMode.NONE,
            required_tension=0.0,
            limiting_force=math.inf,
            margin=math.inf,
            model_used=ModelUsed.STRAIGHT,
        )
        assert predict_at_length_unchecked(row, 1.0) == expected


class TestTransitionCrossCheck:
    @pytest.mark.parametrize(
        "pressure, curvature",
        [(2e3, 0.0), (2e3, K_MEDIUM), (5e3, K_SMALL), (9e3, K_LARGE), (1.6e3, 0.7)],
    )
    def test_verdict_change_point_matches_closed_form(self, body, pressure, curvature):
        # locate the predictor's own invert->buckle boundary by bisection on
        # the verdict predicate and compare against the dispatched closed form
        critical = transition_length(body, pressure, curvature)

        def inverts(length):
            state = RobotState(length=length, pressure=pressure, curvature=curvature)
            return predict_behavior(body, state).verdict is Verdict.INVERT

        lo, hi = 0.0, 6.0
        assert inverts(lo) and not inverts(hi)
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if inverts(mid):
                lo = mid
            else:
                hi = mid
        assert 0.5 * (lo + hi) == pytest.approx(critical, abs=1e-6)

    def test_disagreeing_solver_raises(self, body):
        from vinebuckle.mechanics import _confirmed

        required = tail_tension_to_invert(body, 2e3)
        with pytest.raises(CrossCheckError, match="disagrees"):
            # true root is near 2.39 m
            _confirmed(1.0, straight_transition_bisect(body, 2e3, required))
        # only a difference of more than 1e-6 m raises
        assert _confirmed(0.0, 1e-6) == 0.0
        with pytest.raises(CrossCheckError):
            _confirmed(0.0, math.nextafter(1e-6, 1.0))

    # (bisection kernel, closed form) on the reference body at 2 kPa, whose
    # residuals are -1.8e-15 N and -3.6e-15 N: nonzero, so a tolerance can
    # be set an ulp below them
    CLOSED_FORMS = {
        "straight": (
            "_straight_bisect_for",
            lambda body, required: mechanics._straight_transition_for(body, 2e3, required),
        ),
        "curved": (
            "_curved_bisect_for",
            lambda body, required: mechanics._curved_transition_for(
                body, 2e3, K_MEDIUM, required
            ),
        ),
    }

    @pytest.mark.parametrize("form", sorted(CLOSED_FORMS))
    def test_residual_just_past_the_tolerance_bisects_once(self, body, monkeypatch, form):
        name, closed_form = self.CLOSED_FORMS[form]
        required = tail_tension_to_invert(body, 2e3)
        residuals = []
        within = mechanics._within_rounding
        monkeypatch.setattr(
            mechanics, "_within_rounding", lambda r, f: residuals.append(r) or within(r, f)
        )
        closed = closed_form(body, required)
        (residual,) = residuals
        assert residual != 0.0
        solver, calls = getattr(mechanics, name), []
        monkeypatch.setattr(mechanics, name, lambda *a: calls.append(a) or solver(*a))
        monkeypatch.setattr(mechanics, "_RESIDUAL_TOL_REL", 0.0)
        # a tolerance equal to the residual passes it without bisection
        monkeypatch.setattr(mechanics, "_RESIDUAL_TOL_N", abs(residual))
        assert closed_form(body, required).hex() == closed.hex() and calls == []
        # one ulp below it fails, and the closed value survives the cross-check
        monkeypatch.setattr(mechanics, "_RESIDUAL_TOL_N", math.nextafter(abs(residual), 0.0))
        assert closed_form(body, required).hex() == closed.hex()
        assert len(calls) == 1

    @pytest.mark.parametrize("form", sorted(CLOSED_FORMS))
    def test_disagreeing_fallback_raises_from_the_closed_form(self, body, monkeypatch, form):
        name, closed_form = self.CLOSED_FORMS[form]
        solver = getattr(mechanics, name)
        monkeypatch.setattr(mechanics, name, lambda *a: solver(*a) + 1.0)
        monkeypatch.setattr(mechanics, "_within_rounding", lambda residual, force: False)
        with pytest.raises(CrossCheckError, match="disagrees"):
            closed_form(body, tail_tension_to_invert(body, 2e3))

    @pytest.mark.parametrize("form, kappa", [("straight", "0"), ("curved", "0.444")])
    def test_disagreeing_fallback_makes_predict_exit_3(self, capsys, monkeypatch, form, kappa):
        from vinebuckle import cli

        name, _ = self.CLOSED_FORMS[form]
        solver = getattr(mechanics, name)
        monkeypatch.setattr(mechanics, name, lambda *a: solver(*a) + 1.0)
        monkeypatch.setattr(mechanics, "_within_rounding", lambda residual, force: False)
        code = cli.main(
            ["predict", "--pressure-kpa", "2", "--length-cm", "100", "--kappa-per-m", kappa]
        )
        out, err = capsys.readouterr()
        assert code == 3 and out == ""
        assert err.startswith("error: closed-form transition") and "disagrees" in err

    @pytest.mark.parametrize("kappa", [0.0, 0.444])
    @pytest.mark.parametrize(
        "pressure", [1e9, 3.3e9, 1e10, 7.7e10, 1e11, 5.5e11, 1e12, 2e3, 6.2e3]
    )
    def test_rounding_at_high_pressure_needs_no_bisection(
        self, body, monkeypatch, kappa, pressure
    ):
        # an absolute 1e-9 N residual tolerance sent these closed forms,
        # whose residuals are a few ulps of a ~1e6-1e9 N force, into bisection;
        # at bench pressures no bisection solver runs, so no bracket is built
        from vinebuckle import mechanics

        calls = []
        for name in ("bisect_root", "_straight_bisect_for", "_curved_bisect_for"):
            solver = getattr(mechanics, name)
            monkeypatch.setattr(
                mechanics, name, lambda *a, s=solver, n=name: calls.append(n) or s(*a)
            )
        assert transition_length(body, pressure, kappa) > 0
        assert calls == []

    # curved_transition_length(BodySpec(), pressure, 2e-6), as float.hex
    NEAR_STRAIGHT = {
        1.4e3: "0x1.9e92f8f884bc9p+5",
        2e3: "0x1.9175f3be99a4bp+6",
        6.2e3: "0x1.51034efda0b7dp+7",
        12e3: "0x1.73e54b8a50e67p+7",
    }

    @pytest.mark.parametrize("pressure", sorted(NEAR_STRAIGHT))
    def test_near_straight_curved_form_falls_back_and_keeps_its_value(
        self, body, monkeypatch, pressure
    ):
        # just above the straightness threshold acos(1 - kappa*(d_min - R))
        # cancels, so the residual check sends the closed form to bisection;
        # the value returned is still the closed form's
        from vinebuckle import mechanics

        calls, solver = [], mechanics._curved_bisect_for
        monkeypatch.setattr(
            mechanics, "_curved_bisect_for", lambda *a: calls.append(a) or solver(*a)
        )
        length = curved_transition_length(body, pressure, 2e-6)
        assert length.hex() == self.NEAR_STRAIGHT[pressure]
        assert len(calls) == 1

    @pytest.mark.xfail(strict=True, raises=CrossCheckError)
    def test_near_straight_small_body_has_a_transition(self):
        # the acos cancellation makes the closed form miss the bisection root
        # by ~1.6e-5 m, so a valid input reports an implementation bug
        small = BodySpec(radius=0.001)
        assert transition_length(small, 2238721.138568338, 1e-6) > 0

    @pytest.mark.parametrize("kappa", [0.0, 0.3])
    def test_overflowing_pressure_inverts_everywhere(self, body, kappa):
        # k1*P overflows to inf above ~8.0049e307 Pa on this body, so the
        # straight force is inf at every length; the closed form's NaN residual
        # once sent this to a bisection that stopped where the force turns NaN
        row = solve_pressure_row_unchecked(body, 8.004924629771919e307, kappa, 1.0)
        assert row.transition == math.inf

    def test_root_finder(self):
        from vinebuckle.mechanics import CrossCheckError

        root = bisect_root(lambda x: x * x - 2.0, 0.0, 2.0)
        assert root == pytest.approx(math.sqrt(2.0), abs=1e-15)
        assert bisect_root(lambda x: x - 3.0, 0.0, 3.0) == 3.0  # a root at an end point
        with pytest.raises(CrossCheckError, match="straddle"):
            bisect_root(lambda x: x + 1.0, 0.0, 1.0)

    def test_extreme_pressure_is_not_a_cross_check_failure(self, body):
        # the root lies below 1e-12 m, the old fixed lower bracket of the
        # closed-form cross-check and of the oracle
        from vinebuckle import AxisRange, SweepRequest, classify_grid, diagrams_agree, oracle_scan

        assert transition_length(body, 1.287245690944424e29) < 1e-12
        request = SweepRequest(body, K_MEDIUM, AxisRange(0.0, 1e30, 2), AxisRange(0.0, 1.0, 2))
        assert diagrams_agree(classify_grid(request), oracle_scan(request))


class TestValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"radius": 0.0},
            {"wall_thickness": -1e-6},
            {"youngs_modulus": 0.0},
            {"shear_modulus": -1.0},
            {"inversion_force": -0.1},
            {"radius": math.nan},
        ],
    )
    def test_bad_body(self, kwargs):
        with pytest.raises(ValueError):
            BodySpec(**kwargs)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"length": -0.1, "pressure": 0.0},
            {"length": 0.0, "pressure": -1.0},
            {"length": 0.0, "pressure": 0.0, "curvature": -0.5},
        ],
    )
    def test_bad_state(self, kwargs):
        with pytest.raises(ValueError):
            RobotState(**kwargs)

    @pytest.mark.parametrize("radius", [1e-160, 1e-170, 5e-324])
    def test_radius_whose_area_underflows(self, radius):
        # pi*R^2 subnormal (at 1e-160 m max_zero_tension_pressure returned
        # inf) or zero (at 1e-170 m min_inversion_pressure divided by zero)
        with pytest.raises(ValueError, match="^radius must give a cross-section area"):
            BodySpec(radius=radius)

    def test_smallest_radius_with_a_normal_area(self):
        radius = smallest_radius()
        assert BodySpec(radius=radius).cross_section_area >= sys.float_info.min
        with pytest.raises(ValueError, match="^radius"):
            BodySpec(radius=math.nextafter(radius, 0.0))

    @pytest.mark.parametrize("radius", [1.2e77, 1e78, 1e160, 1e300])
    def test_radius_whose_fourth_power_overflows(self, radius):
        # R**4 raised OverflowError from the axial constants; from ~7.6e153 m
        # pi*R^2 is inf too, and the crushing force was NaN
        with pytest.raises(ValueError, match="^radius must give R\\^4"):
            BodySpec(radius=radius)

    def test_largest_radius_with_a_finite_fourth_power(self):
        radius = largest_radius()
        body = BodySpec(radius=radius)
        # E*pi^3*R^4*t overflows to an infinite force, which the models handle
        assert axial_buckling_force(body, 1.0, 1.0) == math.inf
        with pytest.raises(ValueError, match="^radius"):
            BodySpec(radius=math.nextafter(radius, math.inf))

    def test_body_is_immutable(self, body):
        with pytest.raises(AttributeError):
            body.radius = 0.05  # type: ignore[misc]


# The formulas as they were evaluated before BodySpec cached its constants,
# each product left to right from the fields. The cached constants must give
# the same bits.


def reference_area(body):
    return math.pi * body.radius * body.radius


def reference_axial_terms(body, pressure):
    e, g = body.youngs_modulus, body.shear_modulus
    r, t = body.radius, body.wall_thickness
    pi3 = math.pi**3
    numerator = e * pi3 * r**4 * t * pressure + e * g * pi3 * r**3 * t * t
    den_const = body.youngs_modulus * math.pi**2 * body.radius**2 * body.wall_thickness
    den_slope = body.radius * pressure + body.shear_modulus * body.wall_thickness
    return numerator, den_const, den_slope


def reference_axial_force(body, pressure, length):
    numerator, den_const, den_slope = reference_axial_terms(body, pressure)
    return numerator / (den_const + den_slope * length * length)


def reference_tail_tension(body, pressure):
    return 0.5 * pressure * reference_area(body) + body.inversion_force


def reference_straight_transition(body, pressure):
    required = reference_tail_tension(body, pressure)
    if required >= pressure * reference_area(body):
        return None
    numerator, den_const, den_slope = reference_axial_terms(body, pressure)
    return math.sqrt((numerator / required - den_const) / den_slope)


def reference_device_assist(body, device, pressure, efficiency):
    available = efficiency * (2.0 * device.max_motor_torque / device.roller_radius)
    aperture = device.aperture_c1 / min(
        device.tip_ring_area, device.routing_aperture_area
    ) + device.aperture_c2
    needed = pressure * reference_area(body) + 2.0 * aperture
    if needed <= available:
        return needed, None
    return available, 0.5 * pressure * reference_area(body) + aperture - 0.5 * available


def bits(value):
    """Exact text of a float (or None), so that -0.0 and 0.0 differ."""
    return None if value is None else float.hex(value)


def decades(lo_exp, hi_exp):
    return st.floats(lo_exp, hi_exp).map(lambda e: 10.0**e)


class TestCachedConstants:
    BODY_FIELDS = {
        "radius": decades(-2.4, -0.4),
        "wall_thickness": decades(-5.0, -3.0),
        "youngs_modulus": decades(7.0, 10.0),
        "shear_modulus": decades(6.7, 9.7),
        "inversion_force": decades(-1.3, 1.7),
    }

    @settings(max_examples=200)
    @given(
        fields=st.fixed_dictionaries(BODY_FIELDS),
        pressure=st.just(0.0) | decades(0.0, 6.0),
        length=decades(-3.0, 1.5),
        efficiency=st.floats(0.0, 1.0),
        torque=decades(-3.0, 2.0),
    )
    def test_same_bits_as_inline_formulas(self, fields, pressure, length, efficiency, torque):
        body = BodySpec(**fields)
        assert bits(body.cross_section_area) == bits(reference_area(body))
        assert bits(tail_tension_to_invert(body, pressure)) == bits(
            reference_tail_tension(body, pressure)
        )
        assert bits(axial_buckling_force(body, pressure, length)) == bits(
            reference_axial_force(body, pressure, length)
        )
        assert bits(transition_length(body, pressure)) == bits(
            reference_straight_transition(body, pressure)
        )
        device = DeviceSpec(max_motor_torque=torque)
        assert tuple(map(bits, device_assist(body, device, pressure, efficiency))) == tuple(
            map(bits, reference_device_assist(body, device, pressure, efficiency))
        )

    def test_device_assist_where_pressure_times_area_overflows(self):
        # P*A is inf here while (0.5*P)*A is finite, so the residual tail
        # tension must not be derived from the overflowed P*A
        body, device = BodySpec(radius=1.0), DeviceSpec()
        force, residual = device_assist(body, device, 1e308, 1.0)
        assert math.isfinite(residual)
        assert (bits(force), bits(residual)) == tuple(
            map(bits, reference_device_assist(body, device, 1e308, 1.0))
        )

    @given(fields=st.fixed_dictionaries(BODY_FIELDS), factor=decades(-1.0, 1.0))
    def test_cache_is_invisible_and_follows_replace(self, fields, factor):
        fresh, used = BodySpec(**fields), BodySpec(**fields)
        pressure, length = 2e3, 1.0
        axial = axial_buckling_force(used, pressure, length)
        assert "_constants" in vars(used) and "_constants" not in vars(fresh)
        assert bits(used.cross_section_area) == bits(reference_area(used))
        assert "cross_section_area" in vars(used)
        assert used == fresh
        assert hash(used) == hash(fresh)
        assert repr(used) == repr(fresh)
        assert bits(axial_buckling_force(fresh, pressure, length)) == bits(axial)

        moved = replace(used, radius=used.radius * factor)
        assert "_constants" not in vars(moved) and "cross_section_area" not in vars(moved)
        assert bits(moved.cross_section_area) == bits(reference_area(moved))
        assert bits(axial_buckling_force(moved, pressure, length)) == bits(
            reference_axial_force(moved, pressure, length)
        )
        assert bits(transition_length(moved, pressure)) == bits(
            reference_straight_transition(moved, pressure)
        )

    def test_device_cache_is_invisible_and_follows_replace(self):
        fresh, used = DeviceSpec(), DeviceSpec()
        force = max_device_force(used)
        assert "_constants" in vars(used) and "_constants" not in vars(fresh)
        assert used == fresh and hash(used) == hash(fresh) and repr(used) == repr(fresh)
        assert bits(force) == bits(2.0 * used.max_motor_torque / used.roller_radius)
        assert bits(aperture_inversion_force(used)) == bits(
            used.aperture_c1 / used.min_aperture_area + used.aperture_c2
        )

        moved = replace(used, static_friction=0.5, roller_normal_force=10.0, tip_ring_area=1e-4)
        assert "_constants" not in vars(moved)
        assert max_device_force(moved) == 0.5 * 10.0
        assert bits(aperture_inversion_force(moved)) == bits(aperture_inversion_force(moved, 1e-4))

    def test_threads_filling_the_cache_agree(self):
        # cached_property takes no lock from Python 3.12: threads that fill
        # one body's constants at once may each compute them, and must all
        # read the reference bits
        bodies = [BodySpec(radius=0.01 + 0.001 * k, inversion_force=0.01 * k) for k in range(200)]
        expected = [bits(reference_axial_force(body, 2e3, 0.7)) for body in bodies]
        results = {}

        def worker(name):
            results[name] = [bits(axial_buckling_force(body, 2e3, 0.7)) for body in bodies]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(n,)) for n in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert len(results) == 8
        assert all(result == expected for result in results.values())


# The bisection solvers as they were written before their gaps called the
# check-free force helpers: every gap evaluation goes through the public
# checked force functions, and the root finder is plain halving. The solvers
# must find the same roots.


def reference_bisect_root(f, lo, hi):
    """``bisect_root`` as plain halving: the midpoint of the bracket once
    its ends are adjacent floats, or after 200 halvings."""
    f_lo = f(lo)
    f_hi = f(hi)
    if f_lo == 0.0:
        return lo
    if f_hi == 0.0:
        return hi
    if f_lo * f_hi > 0:
        raise CrossCheckError(
            f"bisection bracket does not straddle a root: f({lo})={f_lo}, f({hi})={f_hi}"
        )
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        f_mid = f(mid)
        if f_lo * f_mid <= 0:
            hi = mid
        else:
            lo, f_lo = mid, f_mid
    return 0.5 * (lo + hi)


def reference_straight_bisect(body, pressure, required):
    units.check("required_tension", required, lo=-math.inf)
    if required >= crushing_force(body, pressure):
        return None
    if required <= 0:
        return math.inf

    def gap(length):
        return axial_buckling_force(body, pressure, length) - required

    hi = 1.0
    while gap(hi) > 0:
        hi *= 2.0
    return reference_bisect_root(gap, math.ulp(0.0), hi)


def reference_curved_bisect(body, pressure, curvature, required):
    units.check("curvature", curvature)
    units.check("required_tension", required, lo=-math.inf)
    pa = crushing_force(body, pressure)
    if required > pa:
        return None
    if required <= 0 or curvature < 1e-6:
        return math.inf
    if pa * body.radius / (body.radius + 2.0 / curvature) > required:
        return math.inf

    def gap(length):
        return pa * body.radius / clamped_moment_arm(body, curvature, length) - required

    # the crush boundary: at exactly P_min, required == P*A and the gap at
    # zero length rounds to 0 or just below it, where the transition is 0
    if gap(0.0) <= 0.0:
        return 0.0
    return reference_bisect_root(gap, 0.0, math.pi / curvature)


def outcome(solver, *args):
    """The root's exact text, or the type of the exception raised."""
    try:
        return bits(solver(*args))
    except (ValueError, CrossCheckError) as error:
        return type(error)


# k1*P overflows to inf on this body at 1e298 Pa
OVERFLOW_BODY = BodySpec(radius=1.0, wall_thickness=1e-3, youngs_modulus=1e12)


class TestBisectMatchesReference:
    @settings(max_examples=300)
    @given(
        body=st.just(BodySpec())
        | st.just(OVERFLOW_BODY)
        | st.fixed_dictionaries(TestCachedConstants.BODY_FIELDS).map(lambda f: BodySpec(**f)),
        pressure=decades(1.0, 308.23),
        sign=st.sampled_from([-1.0, 1.0]),
        scale=decades(-2.0, 0.5),
        kappa=st.sampled_from([1e-6, 2e-6, 0.444, 1.389, 1000.0]),
    )
    def test_same_root_or_error(self, body, pressure, sign, scale, kappa):
        # required tensions of both signs, up to a few times the bare body's
        # own, where the transitions lie; an infinite one is an input error
        required = sign * scale * tail_tension_to_invert(body, pressure)
        assert outcome(straight_transition_bisect, body, pressure, required) == outcome(
            reference_straight_bisect, body, pressure, required
        )
        assert outcome(curved_transition_bisect, body, pressure, kappa, required) == outcome(
            reference_curved_bisect, body, pressure, kappa, required
        )

    @pytest.mark.parametrize("kappa", [1e-6, 2e-6, 0.444, 1.389, 1000.0])
    @pytest.mark.parametrize("pressure", [10.0, 2e3, 1e6, 1e12, 1e100, 1e298, 1.7e308])
    @pytest.mark.parametrize("body", [BodySpec(), OVERFLOW_BODY], ids=["reference", "overflow"])
    def test_pressure_ladder(self, body, pressure, kappa):
        for required in (tail_tension_to_invert(body, pressure), -1.0, 0.5):
            assert outcome(straight_transition_bisect, body, pressure, required) == outcome(
                reference_straight_bisect, body, pressure, required
            )
            assert outcome(curved_transition_bisect, body, pressure, kappa, required) == outcome(
                reference_curved_bisect, body, pressure, kappa, required
            )

    def test_overflowing_force_keeps_its_root(self):
        # the axial force is inf until its denominator overflows too, and NaN
        # beyond; bisection stops where the two meet
        required = tail_tension_to_invert(OVERFLOW_BODY, 1e298)
        assert straight_transition_bisect(OVERFLOW_BODY, 1e298, required) == 262144.0
        assert reference_straight_bisect(OVERFLOW_BODY, 1e298, required) == 262144.0


# Random bodies over the ranges of the physics-invariant tests: radius
# 3 mm-20 cm, wall 10-316 um, E over 2.5 decades, G over 2, F_I 0.1-32 N.
SPREAD_BODIES = st.builds(
    BodySpec,
    radius=decades(math.log10(3e-3), math.log10(0.2)),
    wall_thickness=decades(-5.0, -3.5),
    youngs_modulus=decades(7.5, 10.0),
    shear_modulus=decades(7.0, 9.0),
    inversion_force=decades(-1.0, 1.5),
)


def counting(f, calls):
    """``f``, appending each point it is evaluated at to ``calls``."""
    return lambda x: calls.append(x) or f(x)


class TestRootFinder:
    @settings(max_examples=300)
    @given(
        body=SPREAD_BODIES,
        p_scale=decades(0.0, 3.0),
        kappa_share=st.floats(0.0, 1.0),
    )
    def test_kernels_find_the_halving_root(self, body, p_scale, kappa_share):
        # pressure 1-1000 P_min; curvature log-uniform from 1e-6 /m to 1/R
        pressure = p_scale * min_inversion_pressure(body)
        kappa = 1e-6 * (1.0 / (1e-6 * body.radius)) ** kappa_share
        required = tail_tension_to_invert(body, pressure)
        assert outcome(mechanics._straight_bisect_for, body, pressure, required) == outcome(
            reference_straight_bisect, body, pressure, required
        )
        assert outcome(
            mechanics._curved_bisect_for, body, pressure, kappa, required
        ) == outcome(reference_curved_bisect, body, pressure, kappa, required)

    def test_half_the_gap_evaluations_of_halving(self, body, monkeypatch):
        # the oracle's brackets on the reference body from 0.5 to 10 kPa at
        # the reference curvatures: the same roots, each from at most 60% of
        # the halving loop's evaluations on average
        brackets, solver = [], mechanics.bisect_root
        monkeypatch.setattr(
            mechanics,
            "bisect_root",
            lambda f, lo, hi: brackets.append((f, lo, hi)) or solver(f, lo, hi),
        )
        for kappa in (K_SMALL, K_MEDIUM, K_LARGE):
            for step in range(20):
                pressure = 500.0 * (step + 1)
                required = tail_tension_to_invert(body, pressure)
                mechanics._straight_bisect_for(body, pressure, required)
                mechanics._curved_bisect_for(body, pressure, kappa, required)
        monkeypatch.undo()
        assert len(brackets) == 108
        calls, reference_calls = [], []
        for f, lo, hi in brackets:
            root = bisect_root(counting(f, calls), lo, hi)
            assert bits(root) == bits(reference_bisect_root(counting(f, reference_calls), lo, hi))
        assert len(calls) <= 0.6 * len(reference_calls)

    @pytest.mark.parametrize(
        "f, hi",
        [
            # a root far below the bracket's float spacing: halving stops
            # after 200 halvings, short of it
            (lambda x: 1e-100 - x, 1.0),
            # exact zeros over [0.3, 0.7): the secant points at an end, and
            # the bracket closes at the first zero
            (lambda x: 1.0 if x < 0.3 else (0.0 if x < 0.7 else -1.0), 1.0),
            (lambda x: x * x - 2.0, 2.0),
            (lambda x: math.exp(-x) - 0.5, 4.0),
        ],
        ids=["far_below", "zero_plateau", "sqrt2", "exp"],
    )
    def test_same_root_as_halving(self, f, hi):
        assert bits(bisect_root(f, 0.0, hi)) == bits(reference_bisect_root(f, 0.0, hi))

