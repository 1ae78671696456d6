"""The numeric input contract: one range check (``units.check``) at every
boundary. Each constructor field and function argument below accepts
exactly the finite values of its stated range and raises ValueError for
NaN, +-inf and everything outside it; the CLI turns every such input into
exit 2 with one ``error:`` line and never prints non-RFC JSON."""

import contextlib
import inspect
import io
import json
import math
import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st

import vinebuckle
from vinebuckle import (
    ApertureSample,
    AxisRange,
    BodySpec,
    DeviceSpec,
    RobotState,
    Scenario,
    SweepRequest,
    TensionSample,
    aperture_inversion_force,
    axial_buckling_force,
    clamped_moment_arm,
    cli,
    crushing_force,
    curved_buckling_force,
    curved_transition_bisect,
    curved_transition_length,
    device_assist,
    device_force_for_zero_tension,
    efficiency_for_pressure_ceiling,
    fit_inversion_force,
    max_zero_tension_pressure,
    min_buckling_moment_arm,
    predict_with_device,
    retraction_kinematics,
    straight_transition_bisect,
    tail_tension_to_invert,
    tail_tension_with_device,
    transition_length,
    units,
    wall_tension,
)
from vinebuckle.sim import MAX_EPISODE_STEPS

BODY = BodySpec()
DEVICE = DeviceSpec()
INF = math.inf

# Arbitrary floats (mostly extreme), ordinary magnitudes, and the edges.
FLOATS = (
    st.floats(allow_nan=True, allow_infinity=True)
    | st.floats(min_value=-2.0, max_value=1e4)
    | st.sampled_from([0.0, -0.0, 1.0, 0.5, math.pi, 5e-324, -5e-324])
)

# Ranges as (lo, hi, lo_open); every range also excludes NaN and +-inf.
GE0 = (0.0, INF, False)
GT0 = (0.0, INF, True)
ANY = (-INF, INF, False)
BELOW_1E300 = (-INF, math.nextafter(1e300, -INF), False)
UNIT = (0.0, 1.0, False)


def smallest_radius():
    """The smallest radius whose cross-section area pi*R^2 is a normal float."""
    radius = math.sqrt(sys.float_info.min / math.pi)
    while math.pi * radius * radius >= sys.float_info.min:
        radius = math.nextafter(radius, 0.0)
    return math.nextafter(radius, INF)


def fourth_power_overflows(radius):
    try:
        radius**4
    except OverflowError:
        return True
    return False


def largest_radius():
    """The largest radius whose R**4 is a finite float."""
    radius = sys.float_info.max ** 0.25
    while fourth_power_overflows(radius):
        radius = math.nextafter(radius, 0.0)
    while not fourth_power_overflows(math.nextafter(radius, INF)):
        radius = math.nextafter(radius, INF)
    return radius


# pi*R^2 a normal float and R**4 finite
RADIUS = (smallest_radius(), largest_radius(), False)


def within(value, rule):
    lo, hi, lo_open = rule
    above = lo < value if lo_open else lo <= value
    return math.isfinite(value) and above and value <= hi


def ends(rule):
    """Each finite end of a range and its two float neighbors."""
    return [
        value
        for end in rule[:2] if math.isfinite(end)
        for value in (math.nextafter(end, -INF), end, math.nextafter(end, INF))
    ]


def inside(rule):
    """A value in the range: its closed lower end, else its upper end, else 1."""
    lo, hi, lo_open = rule
    if not lo_open and math.isfinite(lo):
        return lo
    return hi if math.isfinite(hi) else 1.0


def accepts(call, args):
    try:
        result = call(*args)
    except ValueError:
        return False, None
    return True, result


def flat(result):
    if isinstance(result, tuple):
        return [x for item in result for x in flat(item)]
    if hasattr(result, "__dataclass_fields__"):
        return [getattr(result, name) for name in result.__dataclass_fields__]
    return [result]


# constructor: (factory taking one value, range of that field)
FIELDS = {
    "BodySpec.radius": (lambda v: BodySpec(radius=v), RADIUS),
    **{f"BodySpec.{n}": (lambda v, n=n: BodySpec(**{n: v}), GT0)
       for n in ("wall_thickness", "youngs_modulus", "shear_modulus")},
    "BodySpec.inversion_force": (lambda v: BodySpec(inversion_force=v), GE0),
    **{f"RobotState.{n}": (lambda v, n=n: RobotState(**{"length": 1.0, "pressure": 2e3, n: v}), GE0)
       for n in ("length", "pressure", "curvature")},
    **{f"DeviceSpec.{n}": (lambda v, n=n: DeviceSpec(**{n: v}), GT0)
       for n in ("max_motor_torque", "roller_radius", "motor_speed_max", "tip_ring_area",
                 "routing_aperture_area", "aperture_c1", "aperture_c2", "static_friction",
                 "roller_normal_force")},
    "TensionSample.pressure": (lambda v: TensionSample(v, 1.0), GE0),
    "TensionSample.tail_tension": (lambda v: TensionSample(1.0, v), GE0),
    "ApertureSample.aperture_area": (lambda v: ApertureSample(v, 1.0), GT0),
    "ApertureSample.inversion_force": (lambda v: ApertureSample(1e-3, v), GT0),
    "AxisRange.lo": (lambda v: AxisRange(v, 1e300, 3), BELOW_1E300),
    "AxisRange.hi": (lambda v: AxisRange(-1.0, v, 3), (-1.0, INF, True)),
    "SweepRequest.curvature": (
        lambda v: SweepRequest(BODY, v, AxisRange(0.0, 1.0, 1), AxisRange(0.0, 1.0, 1)), GE0),
    "SweepRequest.efficiency": (
        lambda v: SweepRequest(BODY, 0.0, AxisRange(0.0, 1.0, 1), AxisRange(0.0, 1.0, 1),
                               efficiency=v), UNIT),
    **{f"Scenario.{n}": (lambda v, n=n: Scenario(BODY, 1.0, pressure=2e3, **{n: v}), rule)
       for n, rule in (("curvature", GE0), ("efficiency", UNIT), ("motor_speed", GE0))},
    "Scenario.pressure": (lambda v: Scenario(BODY, 1.0, pressure=v), GE0),
    "Scenario.pressure_points.position": (
        lambda v: Scenario(BODY, 1.0, pressure_points=((v, 1e3), (1e300, 2e3))), BELOW_1E300),
    "Scenario.pressure_points.pressure": (
        lambda v: Scenario(BODY, 1.0, pressure_points=((0.0, v), (1.0, 2e3))), GE0),
}

# function: (call taking the drawn values, the range of each argument)
FUNCTIONS = {
    "tail_tension_to_invert": (lambda p: tail_tension_to_invert(BODY, p), [GE0]),
    "crushing_force": (lambda p: crushing_force(BODY, p), [GE0]),
    "axial_buckling_force": (lambda p, l: axial_buckling_force(BODY, p, l), [GE0, GT0]),
    "clamped_moment_arm": (lambda k, l: clamped_moment_arm(BODY, k, l), [GT0, GE0]),
    # at L = 1 m, kappa*L <= pi is kappa <= pi; test_curved_buckling_force_half_turn
    # draws the length
    "curved_buckling_force": (
        lambda p, k: curved_buckling_force(BODY, p, k, 1.0), [GE0, (0.0, math.pi, True)]),
    "min_buckling_moment_arm": (lambda p: min_buckling_moment_arm(BODY, p), [GT0]),
    "wall_tension": (lambda p, f: wall_tension(BODY, p, f), [GE0, GE0]),
    "curved_transition_length": (lambda p, k: curved_transition_length(BODY, p, k), [GE0, GT0]),
    "straight_transition_bisect": (
        lambda p, t: straight_transition_bisect(BODY, p, t), [GE0, ANY]),
    "curved_transition_bisect": (
        lambda p, k, t: curved_transition_bisect(BODY, p, k, t), [GE0, GE0, ANY]),
    "transition_length": (lambda p, k: transition_length(BODY, p, k), [GE0, GE0]),
    "aperture_inversion_force": (lambda a: aperture_inversion_force(DEVICE, a), [GT0]),
    "tail_tension_with_device": (
        lambda p, f: tail_tension_with_device(BODY, DEVICE, p, f), [GE0, GE0]),
    "device_force_for_zero_tension": (
        lambda p: device_force_for_zero_tension(BODY, DEVICE, p), [GE0]),
    "max_zero_tension_pressure": (
        lambda e, f: max_zero_tension_pressure(BODY, DEVICE, e, f), [UNIT, ANY]),
    "efficiency_for_pressure_ceiling": (
        # up to the lossless ceiling, where the implied efficiency reaches 1
        lambda p: efficiency_for_pressure_ceiling(BODY, DEVICE, p),
        [(0.0, max_zero_tension_pressure(BODY, DEVICE), False)]),
    "retraction_kinematics": (
        lambda w: retraction_kinematics(DEVICE, w), [(0.0, DEVICE.motor_speed_max, False)]),
    "device_assist": (lambda p, e: device_assist(BODY, DEVICE, p, e), [GE0, UNIT]),
    "predict_with_device": (
        lambda e: predict_with_device(BODY, DEVICE, RobotState(1.0, 2e3), e), [UNIT]),
    "fit_inversion_force": (lambda a: fit_inversion_force([TensionSample(0.0, 1.0)], a), [GT0]),
}


# the string annotations (``from __future__ import annotations``) of a
# numeric parameter
NUMERIC = {"float", "Optional[float]", "int", "Optional[int]"}


def test_every_exported_function_with_a_numeric_parameter_is_in_the_table():
    numeric = set()
    for name in vinebuckle.__all__:
        value = getattr(vinebuckle, name)
        if inspect.isfunction(value) and any(
            parameter.annotation in NUMERIC
            for parameter in inspect.signature(value).parameters.values()
        ):
            numeric.add(name)
    assert numeric
    assert sorted(numeric - set(FUNCTIONS)) == []
    assert not [name for name in vinebuckle.__all__ if name.endswith("_unchecked")]


class TestCheck:
    @pytest.mark.parametrize(
        "value,kwargs",
        [(0.0, {}), (5.0, {}), (1e308, {}), (5e-324, {"lo_open": True}), (1.0, {"hi": 1.0}),
         (-1e308, {"lo": -INF}), (0.0, {"hi": 1.0})],
    )
    def test_returns_accepted_value(self, value, kwargs):
        assert units.check("x", value, **kwargs) is value

    @pytest.mark.parametrize(
        "value,kwargs",
        [(math.nan, {}), (INF, {}), (-INF, {"lo": -INF}), (math.nan, {"lo": -INF}),
         (-1e-300, {}), (0.0, {"lo_open": True}), (1.0000000000000002, {"hi": 1.0}),
         (0.0, {"hi": 1.0, "lo_open": True})],
    )
    def test_rejects_and_names_the_field(self, value, kwargs):
        with pytest.raises(ValueError, match="^radius must be finite"):
            units.check("radius", value, **kwargs)


class TestRegressions:
    # each of these was accepted before the one checker
    @pytest.mark.parametrize(
        "call",
        [
            lambda: TensionSample(math.nan, 1.0),
            lambda: ApertureSample(INF, 1.0),
            lambda: AxisRange(0.0, INF, 3),
            lambda: tail_tension_with_device(BODY, DEVICE, math.nan, 0.0),
            lambda: retraction_kinematics(DEVICE, math.nan),
            lambda: curved_buckling_force(BODY, 2e3, 1.0, math.nan),
            lambda: fit_inversion_force([TensionSample(0.0, 1.0)], math.nan),
        ],
        ids=["tension_sample", "aperture_sample", "axis_range", "tail_tension_with_device",
             "retraction_kinematics", "curved_buckling_force", "fit_inversion_force"],
    )
    def test_non_finite_input_raises(self, call):
        with pytest.raises(ValueError, match="must be finite"):
            call()

    # each of these raised TypeError from the check's comparison
    @pytest.mark.parametrize(
        "call,field",
        [
            (lambda: AxisRange(0, 1, "3"), "axis steps"),
            (lambda: BodySpec(radius="0.01"), "radius"),
            (lambda: BodySpec(radius=None), "radius"),
            (lambda: Scenario(BODY, "1", pressure=1e3), "initial_length"),
        ],
        ids=["axis_range_steps", "body_radius_str", "body_radius_none", "scenario_initial_length"],
    )
    def test_non_numeric_input_raises_value_error_naming_the_field(self, call, field):
        with pytest.raises(ValueError, match=f"^{field} must be a number, got "):
            call()


class TestProperties:
    @pytest.mark.parametrize("field", sorted(FIELDS))
    @given(value=FLOATS)
    def test_constructor_field(self, field, value):
        make, rule = FIELDS[field]
        accepted, _ = accepts(make, (value,))
        assert accepted == within(value, rule)

    @given(initial=FLOATS, step=FLOATS, target=FLOATS)
    def test_scenario_span_and_step(self, initial, step, target):
        accepted, _ = accepts(
            lambda: Scenario(BODY, initial, pressure=2e3, step=step, target_length=target), ()
        )
        expected = within(initial, GE0) and within(step, GT0) and within(target, GE0)
        if expected:
            span = max(initial, target - initial)
            expected = span / step <= MAX_EPISODE_STEPS
        assert accepted == expected

    @pytest.mark.parametrize("name", sorted(FUNCTIONS))
    @given(data=st.data())
    def test_function_arguments(self, name, data):
        call, rules = FUNCTIONS[name]
        args = [data.draw(FLOATS) for _ in rules]
        accepted, result = accepts(call, args)
        assert accepted == all(within(v, rule) for v, rule in zip(args, rules))
        if accepted and all(abs(v) <= 1e100 for v in args):
            assert not any(isinstance(x, float) and math.isnan(x) for x in flat(result))

    # each finite end of each range, and its float neighbors; an argument
    # is drawn there while the others stay inside their ranges (the
    # efficiency range accepts 1.0 and rejects math.nextafter(1.0, 2.0))
    @pytest.mark.parametrize("field", sorted(FIELDS))
    def test_constructor_field_at_its_ends(self, field):
        make, rule = FIELDS[field]
        for value in ends(rule):
            assert accepts(make, (value,))[0] == within(value, rule), value

    @pytest.mark.parametrize("name", sorted(FUNCTIONS))
    def test_function_arguments_at_their_ends(self, name):
        call, rules = FUNCTIONS[name]
        for i, rule in enumerate(rules):
            for value in ends(rule):
                args = [inside(other) for other in rules]
                args[i] = value
                assert accepts(call, args)[0] == within(value, rule), (i, value)

    @given(kappa=FLOATS, length=FLOATS)
    def test_curved_buckling_force_half_turn(self, kappa, length):
        accepted, _ = accepts(lambda: curved_buckling_force(BODY, 2e3, kappa, length), ())
        expected = within(kappa, GT0) and within(length, GE0) and kappa * length <= math.pi
        assert accepted == expected

    @given(doc=st.fixed_dictionaries(
        {"initial_length_cm": FLOATS},
        optional={k: FLOATS for k in ("pressure_kpa", "step_cm", "kappa_per_m", "efficiency",
                                      "target_length_cm", "motor_rpm")},
    ))
    def test_scenario_document_builds_or_raises(self, doc):
        # built only, never run: a valid document may still ask for 10^6 steps
        doc.setdefault("pressure_kpa", 2.0)
        try:
            scenario, mode = cli.scenario_from_json(doc)
        except ValueError:
            return
        assert mode == "retract" and math.isfinite(scenario.initial_length)


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


def strict_json(text):
    def reject(token):
        raise AssertionError(f"non-RFC JSON constant {token}")

    return json.loads(text, parse_constant=reject)


def assert_exit_0_or_2(code, out, err):
    assert code in (0, 2)
    if code == 0:
        doc = strict_json(out)
        if "verdict" in doc:
            # a verdict rests on finite forces; only a grounded limit is infinite (null)
            assert doc["required_n"] is not None
            assert (doc["margin_n"] is None) == (doc["limit_n"] is None)
    else:
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1


def run_both_renderings(*argv):
    """Exit code of ``argv``, run with ``--json`` and as text; the two must
    agree, and a text run that exits 2 prints nothing on stdout either."""
    code, out, err = run_cli(*argv, "--json")
    assert_exit_0_or_2(code, out, err)
    text_code, text_out, text_err = run_cli(*argv)
    assert text_code == code
    if code == 2:
        assert text_out == ""
        assert text_err.startswith("error:") and text_err.count("\n") == 1
    return code


@pytest.fixture(scope="module")
def config_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("configs")


class TestCliProperties:
    @given(pressure=FLOATS, length=FLOATS, kappa=FLOATS, efficiency=FLOATS, device=st.booleans())
    def test_predict(self, pressure, length, kappa, efficiency, device):
        argv = [
            "predict", f"--pressure-kpa={pressure!r}", f"--length-cm={length!r}",
            f"--kappa-per-m={kappa!r}", f"--efficiency={efficiency!r}",
        ]
        code = run_both_renderings(*argv, *(["--device"] if device else []))
        if not all(math.isfinite(v) for v in (pressure, length, kappa)):
            assert code == 2
        if device and not within(efficiency, UNIT):
            assert code == 2

    @given(pressure=FLOATS, kappa=FLOATS)
    def test_transition(self, pressure, kappa):
        code = run_both_renderings(
            "transition", f"--pressure-kpa={pressure!r}", f"--kappa-per-m={kappa!r}"
        )
        if not (math.isfinite(pressure) and math.isfinite(kappa)):
            assert code == 2

    @given(
        section=st.sampled_from(sorted(
            [("body", k) for k in cli._BODY_KEYS] + [("device", k) for k in cli._DEVICE_KEYS]
        )),
        value=FLOATS,
        command=st.sampled_from([("device", "info"), ("predict", "--pressure-kpa=2",
                                                      "--length-cm=100", "--device")]),
    )
    def test_config_field(self, config_dir, section, value, command):
        name, key = section
        path = config_dir / "config.json"
        path.write_text(json.dumps({name: {key: value}}))  # NaN/Infinity as Python writes them
        code = run_both_renderings(*command, "--config", str(path))
        if not within(value, UNIT if key == "efficiency" else GT0):
            assert code == 2
