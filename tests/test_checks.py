"""Each input is checked once per request. The records (``BodySpec``,
``DeviceSpec``, ``RobotState``, ``AxisRange``, ``SweepRequest``,
``Scenario``) check their fields when built; the request-level functions
check what no record holds (a diagram's cell centers, the forces derived
from a pressure) once per request or per diagram row, and call kernels that
trust their inputs. So a prediction, a diagram row and an episode each make
a fixed number of ``units.check`` calls, and a derived force that overflows
is still rejected by each of them."""

import contextlib
import io
import json

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from vinebuckle import (
    AxisRange,
    BodySpec,
    DeviceSpec,
    RobotState,
    Scenario,
    SweepRequest,
    classify_grid,
    cli,
    curved_transition_length,
    device_assist,
    efficiency_for_pressure_ceiling,
    max_zero_tension_pressure,
    min_buckling_moment_arm,
    oracle_scan,
    predict_behavior,
    predict_with_device,
    simulate_growth,
    simulate_retraction,
    transition_length,
    units,
)

BODY = BodySpec()
DEVICE = DeviceSpec()
# an accepted radius (R**4 is finite below ~1.16e77 m) whose P*A, and so the
# required tension, is inf at an overflowing pressure
LARGE = BodySpec(radius=1e77)
OVERFLOWING = 1e155
# 2*tau/r is inf, so the available force at efficiency 0 is NaN
FORCEFUL = DeviceSpec(max_motor_torque=1e300, roller_radius=1e-300)
REQUIRED_INF = "^required_tension must be finite, got inf$"
DEVICE_NAN = "^device_force must be finite and >= 0, got nan$"
DEVICE_INF = "^device_force must be finite and >= 0, got inf$"
SATURATED = ["device_force", "required_tension"]


@pytest.fixture
def checks(monkeypatch):
    """The names of the ``units.check`` calls made, in order."""
    names = []
    check = units.check

    def counting(name, value, *args, **kwargs):
        names.append(name)
        return check(name, value, *args, **kwargs)

    monkeypatch.setattr(units, "check", counting)
    return names


def checks_of(names, call, *args):
    """The checks of the second of two calls: the first fills the records'
    caches (a device checks its aperture area once)."""
    call(*args)
    names.clear()
    call(*args)
    return list(names)


# just above the straightness threshold, where the curved closed form
# cancels and falls back to bisection at 2 and 9 kPa
NEAR_STRAIGHT = 2e-6


class TestChecksPerRequest:
    @pytest.mark.parametrize("kappa", [0.0, NEAR_STRAIGHT, 0.444])
    @pytest.mark.parametrize("length,pressure", [(0.0, 0.0), (1.0, 2e3), (50.0, 9e3)])
    def test_a_prediction_checks_only_its_required_tension(self, checks, kappa, length, pressure):
        state = RobotState(length, pressure, kappa)
        assert checks_of(checks, predict_behavior, BODY, state) == ["required_tension"]

    @pytest.mark.parametrize("kappa", [0.0, NEAR_STRAIGHT, 0.444])
    @pytest.mark.parametrize("pressure", [0.0, 2e3, 9e3])
    def test_a_transition_checks_its_inputs_and_required_tension(self, checks, kappa, pressure):
        names = checks_of(checks, transition_length, BODY, pressure, kappa)
        assert names == ["pressure", "curvature", "required_tension"]

    def test_a_pressure_ceiling_checks_its_pressure_once(self, checks):
        names = checks_of(checks, efficiency_for_pressure_ceiling, BODY, DEVICE, 2e3)
        assert names == ["max_pressure", "device_force"]

    @pytest.mark.parametrize("kappa", [0.0, 0.444])
    @pytest.mark.parametrize(
        "device,pressure,derived",
        [(DEVICE, 2e3, ["device_force"]), (DEVICE, 9e3, SATURATED), (None, 2e3, SATURATED)],
        ids=["grounded", "saturated", "bare"],
    )
    def test_a_device_prediction_checks_its_efficiency_and_derived_forces(
        self, checks, kappa, device, pressure, derived
    ):
        state = RobotState(1.0, pressure, kappa)
        names = checks_of(checks, predict_with_device, BODY, device, state, 1.0)
        assert names == ["efficiency", *derived]

    @pytest.mark.parametrize("scan", [classify_grid, oracle_scan])
    @pytest.mark.parametrize("kappa", [0.0, NEAR_STRAIGHT, 0.444])
    @pytest.mark.parametrize("device", [None, DEVICE], ids=["bare", "device"])
    def test_a_diagram_checks_each_length_once_and_each_row_alike(
        self, checks, scan, kappa, device
    ):
        for rows, columns in ((3, 4), (40, 90)):
            request = SweepRequest(
                BODY, kappa, AxisRange(0.0, 10e3, rows), AxisRange(0.0, 3.0, columns), device
            )
            names = checks_of(checks, scan, request)
            assert names[:columns] == ["length"] * columns
            row_checks = names[columns:]
            starts = [i for i, name in enumerate(row_checks) if name == "pressure"]
            assert len(starts) == rows and starts[0] == 0
            # a grounded device row derives no tension to check, only its force
            allowed = [SATURATED, ["device_force"]] if device else [SATURATED]
            for start, end in zip(starts, starts[1:] + [len(row_checks)]):
                assert row_checks[start + 1:end] in allowed

    SCENARIOS = {
        "bare-straight-constant": dict(pressure=3e3),
        "bare-curved-scheduled": dict(
            curvature=0.444, pressure_points=((0.0, 2e3), (30.0, 9e3))
        ),
        "device-straight-constant": dict(pressure=9e3, device=DEVICE, efficiency=0.5),
        "device-straight-grounded-constant": dict(pressure=2e3, device=DEVICE),
        "device-curved-scheduled": dict(
            curvature=0.444, pressure_points=((0.0, 2e3), (30.0, 9e3)), device=DEVICE,
            efficiency=0.05,
        ),
        "device-curved-grounded-scheduled": dict(
            curvature=0.444, pressure_points=((0.0, 1e3), (30.0, 2e3)), device=DEVICE,
        ),
    }

    @pytest.mark.parametrize("kind", sorted(SCENARIOS))
    def test_an_episode_makes_the_same_checks_at_any_length(self, checks, kind):
        fields = self.SCENARIOS[kind]
        short = Scenario(BODY, 0.0, target_length=0.1, **fields)
        long = Scenario(BODY, 0.0, target_length=25.0, **fields)
        grow_short = checks_of(checks, simulate_growth, short)
        grow_long = checks_of(checks, simulate_growth, long)
        assert grow_short == grow_long and len(grow_long) <= 5
        assert len(simulate_growth(long).steps) == 2500
        retract_short = checks_of(checks, simulate_retraction, Scenario(BODY, 0.1, **fields))
        retract_long = checks_of(checks, simulate_retraction, Scenario(BODY, 25.0, **fields))
        assert retract_short == retract_long

    @pytest.mark.parametrize(
        "kind,derived",
        [
            ("device-curved-scheduled", SATURATED),
            ("device-curved-grounded-scheduled", ["device_force"]),
        ],
    )
    def test_a_scheduled_device_episode_checks_its_top_and_bottom_breakpoints(
        self, checks, kind, derived
    ):
        # a few checks for 2,500 steps, none of them per step
        scenario = Scenario(BODY, 0.0, target_length=25.0, **self.SCENARIOS[kind])
        assert checks_of(checks, simulate_growth, scenario) == ["motor_speed", *derived * 2]


class TestOverflowIsRejected:
    def test_prediction(self):
        with pytest.raises(ValueError, match=REQUIRED_INF):
            predict_behavior(LARGE, RobotState(1.0, OVERFLOWING))

    @pytest.mark.parametrize(
        "body,device,efficiency,message",
        [(LARGE, DEVICE, 0.5, REQUIRED_INF), (LARGE, None, 0.5, REQUIRED_INF),
         (BODY, FORCEFUL, 0.0, DEVICE_NAN), (LARGE, FORCEFUL, 0.5, DEVICE_INF)],
        ids=["tension", "bare", "device-force", "grounded-force"],
    )
    def test_device_prediction(self, body, device, efficiency, message):
        with pytest.raises(ValueError, match=message):
            predict_with_device(body, device, RobotState(1.0, OVERFLOWING), efficiency)

    # each derives a tension or force that overflows on finite inputs, where
    # its result would be inf or NaN (inf/inf)
    DERIVED = {
        "min_buckling_moment_arm": (
            lambda: min_buckling_moment_arm(LARGE, OVERFLOWING), REQUIRED_INF),
        "max_zero_tension_pressure": (
            lambda: max_zero_tension_pressure(LARGE, FORCEFUL), DEVICE_INF),
        "efficiency_for_pressure_ceiling": (
            lambda: efficiency_for_pressure_ceiling(LARGE, FORCEFUL, OVERFLOWING), DEVICE_INF),
    }

    @pytest.mark.parametrize("function", sorted(DERIVED))
    def test_a_derived_force_that_overflows_is_rejected(self, function):
        call, message = self.DERIVED[function]
        with pytest.raises(ValueError, match=message):
            call()

    def test_device_assist_rejects_an_infinite_grounded_force(self):
        # eta*F_max and the zero-tension need P*A + 2*F_I are both inf, so
        # the device covers the need and the row is grounded
        with pytest.raises(ValueError, match=DEVICE_INF):
            device_assist(LARGE, FORCEFUL, OVERFLOWING, 0.5)

    @pytest.mark.parametrize("scan", [classify_grid, oracle_scan])
    @pytest.mark.parametrize(
        "body,device,efficiency,message",
        [(LARGE, None, 1.0, REQUIRED_INF), (LARGE, DEVICE, 0.5, REQUIRED_INF),
         (BODY, FORCEFUL, 0.0, DEVICE_NAN), (LARGE, FORCEFUL, 0.5, DEVICE_INF)],
        ids=["bare", "device", "device-force", "grounded-force"],
    )
    def test_diagram(self, scan, body, device, efficiency, message):
        request = SweepRequest(
            body, 0.444, AxisRange(OVERFLOWING, 2 * OVERFLOWING, 4), AxisRange(0.0, 3.0, 4),
            device, efficiency,
        )
        with pytest.raises(ValueError, match=message):
            scan(request)

    # every transition entry and device_assist check the tension they derive
    ENTRIES = {
        "curved_transition_length": lambda body, p: curved_transition_length(body, p, 0.5),
        "transition_length": transition_length,
        "curved transition_length": lambda body, p: transition_length(body, p, 0.5),
        "bare device_assist": lambda body, p: device_assist(body, None, p),
        "device_assist": lambda body, p: device_assist(body, DEVICE, p),
    }

    @pytest.mark.parametrize("entry", sorted(ENTRIES))
    @pytest.mark.parametrize(
        "body,pressure",
        # P*A/2 overflows, by the pressure or by the area
        [(BodySpec(radius=1.0), 1.7e308), (LARGE, OVERFLOWING)],
        ids=["inf", "large-radius"],
    )
    def test_every_entry_rejects_its_derived_tension(self, entry, body, pressure):
        with pytest.raises(ValueError, match="^required_tension must be finite"):
            self.ENTRIES[entry](body, pressure)

    @pytest.mark.parametrize(
        "schedule",
        [dict(pressure=OVERFLOWING),
         dict(pressure_points=((0.0, OVERFLOWING), (5.0, 2 * OVERFLOWING)))],
        ids=["constant", "scheduled"],
    )
    @pytest.mark.parametrize(
        "body,device,efficiency,message",
        [(LARGE, None, 1.0, REQUIRED_INF), (LARGE, DEVICE, 0.5, REQUIRED_INF),
         (BODY, FORCEFUL, 0.0, DEVICE_NAN), (LARGE, FORCEFUL, 0.5, DEVICE_INF)],
        ids=["bare", "device", "device-force", "grounded-force"],
    )
    def test_episode(self, schedule, body, device, efficiency, message):
        scenario = Scenario(body, 3.0, device=device, efficiency=efficiency, target_length=4.0,
                            **schedule)
        for simulate in (simulate_retraction, simulate_growth):
            with pytest.raises(ValueError, match=message):
                simulate(scenario)

    def test_an_unreached_overflowing_breakpoint_rejects_the_schedule(self):
        # Growth to 0.5 m stays on the flat 2 kPa segment, where every step
        # passes the public functions' checks, but the top breakpoint
        # overflows the required tension: rejected before the first step.
        body = BodySpec(radius=10.0)
        points = ((0.0, 2e3), (1.0, 2e3), (100.0, 1.7e308))
        with pytest.raises(ValueError, match=REQUIRED_INF):
            simulate_growth(Scenario(body, 0.0, pressure_points=points, target_length=0.5))
        lower = points[:2] + ((100.0, 1e300),)
        assert len(simulate_growth(Scenario(body, 0.0, pressure_points=lower,
                                            target_length=0.5)).steps) == 50

    def test_a_schedule_whose_span_overflows_rejects_its_nan_pressure(self):
        # x1 - x0 is inf, so the interpolant at a tip is inf/inf
        points = ((-1e308, 0.0), (1e308, 5e3))
        scenario = Scenario(BODY, 3.0, pressure_points=points)
        with pytest.raises(ValueError, match="^pressure must be finite and >= 0, got nan$"):
            scenario.pressure_at(3.0)
        with pytest.raises(ValueError, match="^pressure must be finite and >= 0, got nan$"):
            simulate_retraction(scenario)

    # the top breakpoint's zero-tension need overflows, and a device whose
    # available force is inf grounds it with an infinite force
    @example(radius=1e77, pressures=[OVERFLOWING, 0.0], device=FORCEFUL, efficiency=0.5)
    @given(
        radius=st.floats(1e-3, 1e77),
        pressures=st.lists(st.sampled_from([0.0, 2e3, 1e150, 1e300, 1.7e308])
                           | st.floats(0.0, 1.7e308), min_size=2, max_size=4),
        device=st.sampled_from([None, DEVICE, FORCEFUL]),
        efficiency=st.sampled_from([0.0, 0.5, 1.0]),
    )
    def test_a_schedule_is_rejected_wherever_a_step_was(
        self, radius, pressures, device, efficiency
    ):
        # The reference checks each step alone through the public
        # functions: an episode that runs passes them at every step, and
        # one that fails other than by ValueError fails so at a step too.
        body = BodySpec(radius=radius)
        points = tuple((0.1 * i, pressure) for i, pressure in enumerate(pressures))
        scenario = Scenario(body, 0.0, pressure_points=points, device=device,
                            efficiency=efficiency, target_length=points[-1][0], step=0.02)
        tips, k = [], 1
        while 0.02 * k < scenario.target_length:
            tips.append(0.02 * k)
            k += 1
        tips.append(scenario.target_length)
        per_step = None
        try:
            for tip in tips:
                pressure = scenario.pressure_at(tip)
                device_assist(body, device, pressure, efficiency)
                state = RobotState(tip, pressure)
                if device is None:
                    predict_behavior(body, state)
                else:
                    predict_with_device(body, device, state, efficiency)
        except (ValueError, ArithmeticError) as exc:
            per_step = type(exc)
        try:
            assert [step.tip_position for step in simulate_growth(scenario).steps] == tips
        except ArithmeticError as exc:
            assert per_step is type(exc)
        except ValueError:
            pass
        else:
            assert per_step is None


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


# 1e155 Pa on a 1e77 m body: P*A overflows
@pytest.mark.parametrize(
    "schedule",
    [{"pressure_kpa": 1e152}, {"pressure_schedule": [[0, 2], [100, 1e152]]}],
    ids=["constant", "scheduled"],
)
def test_an_overflowing_episode_exits_2(tmp_path, schedule):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(
        {"initial_length_cm": 90, "body": {"radius_cm": 1e79}, **schedule}
    ))
    code, out, err = run_cli("simulate", "--scenario", str(path), "--json")
    assert (code, out) == (2, "")
    assert err == "error: required_tension must be finite, got inf\n"


# eta*F_max is inf, and so is the zero-tension need it covers at 1e155 Pa
GROUNDED_INF = {
    "body": {"radius_cm": 1e79},
    "device": {"torque_ncm": 1e300, "roller_radius_cm": 1e-298, "efficiency": 0.5},
}


@pytest.mark.parametrize(
    "argv",
    [
        ["predict", "--pressure-kpa", "1e152", "--length-cm", "100", "--device", "--config"],
        ["sweep", "--p", "1e152:1e153:3", "--l", "0:300:3", "--device", "--oracle-check",
         "--config"],
        ["simulate", "--scenario"],
    ],
    ids=["predict", "sweep", "simulate"],
)
def test_an_infinite_grounded_force_exits_2(tmp_path, argv):
    document = dict(GROUNDED_INF)
    if argv[0] == "simulate":
        document.update(initial_length_cm=5, pressure_kpa=1e152)
    path = tmp_path / "document.json"
    path.write_text(json.dumps(document))
    code, out, err = run_cli(*argv, str(path))
    assert (code, out) == (2, "")
    assert err == "error: device_force must be finite and >= 0, got inf\n"
