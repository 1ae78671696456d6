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
import math

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
    device_assist,
    oracle_scan,
    predict_at_length,
    predict_behavior,
    predict_with_device,
    simulate_growth,
    simulate_retraction,
    solve_pressure_row,
    units,
)

BODY = BodySpec()
DEVICE = DeviceSpec()
# P*A, and so the required tension, is inf at any positive pressure
HUGE = BodySpec(radius=1e160)
# 2*tau/r is inf, so the available force at efficiency 0 is NaN
FORCEFUL = DeviceSpec(max_motor_torque=1e300, roller_radius=1e-300)
REQUIRED_INF = "^required_tension must be finite, got inf$"
DEVICE_NAN = "^device_force must be finite and >= 0, got nan$"
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


class TestChecksPerRequest:
    @pytest.mark.parametrize("kappa", [0.0, 0.444])
    @pytest.mark.parametrize("length,pressure", [(0.0, 0.0), (1.0, 2e3), (50.0, 9e3)])
    def test_a_prediction_checks_only_its_required_tension(self, checks, kappa, length, pressure):
        state = RobotState(length, pressure, kappa)
        assert checks_of(checks, predict_behavior, BODY, state) == ["required_tension"]

    @pytest.mark.parametrize("kappa", [0.0, 0.444])
    @pytest.mark.parametrize(
        "device,pressure,derived",
        [(DEVICE, 2e3, []), (DEVICE, 9e3, SATURATED), (None, 2e3, SATURATED)],
        ids=["grounded", "saturated", "bare"],
    )
    def test_a_device_prediction_checks_its_efficiency_and_derived_forces(
        self, checks, kappa, device, pressure, derived
    ):
        state = RobotState(1.0, pressure, kappa)
        names = checks_of(checks, predict_with_device, BODY, device, state, 1.0)
        assert names == ["efficiency", *derived]

    @pytest.mark.parametrize("scan", [classify_grid, oracle_scan])
    @pytest.mark.parametrize("kappa", [0.0, 0.444])
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
            # a grounded device row derives no force to check
            allowed = [SATURATED, []] if device else [SATURATED]
            for start, end in zip(starts, starts[1:] + [len(row_checks)]):
                assert row_checks[start + 1:end] in allowed

    SCENARIOS = {
        "bare-straight-constant": dict(pressure=3e3),
        "bare-curved-scheduled": dict(
            curvature=0.444, pressure_points=((0.0, 2e3), (30.0, 9e3))
        ),
        "device-straight-constant": dict(pressure=9e3, device=DEVICE, efficiency=0.5),
        "device-curved-scheduled": dict(
            curvature=0.444, pressure_points=((0.0, 2e3), (30.0, 9e3)), device=DEVICE,
            efficiency=0.05,
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

    def test_a_scheduled_device_episode_checks_its_top_and_bottom_breakpoints(self, checks):
        # five checks for 2,500 steps, none of them per step
        scenario = Scenario(BODY, 0.0, target_length=25.0,
                            **self.SCENARIOS["device-curved-scheduled"])
        assert checks_of(checks, simulate_growth, scenario) == ["motor_speed", *SATURATED * 2]


class TestOverflowIsRejected:
    def test_prediction(self):
        with pytest.raises(ValueError, match=REQUIRED_INF):
            predict_behavior(HUGE, RobotState(1.0, 1e3))

    @pytest.mark.parametrize(
        "body,device,efficiency,message",
        [(HUGE, DEVICE, 0.5, REQUIRED_INF), (HUGE, None, 0.5, REQUIRED_INF),
         (BODY, FORCEFUL, 0.0, DEVICE_NAN)],
        ids=["tension", "bare", "device-force"],
    )
    def test_device_prediction(self, body, device, efficiency, message):
        with pytest.raises(ValueError, match=message):
            predict_with_device(body, device, RobotState(1.0, 1e3), efficiency)

    @pytest.mark.parametrize("scan", [classify_grid, oracle_scan])
    @pytest.mark.parametrize(
        "body,device,efficiency,message",
        [(HUGE, None, 1.0, REQUIRED_INF), (HUGE, DEVICE, 0.5, REQUIRED_INF),
         (BODY, FORCEFUL, 0.0, DEVICE_NAN)],
        ids=["bare", "device", "device-force"],
    )
    def test_diagram(self, scan, body, device, efficiency, message):
        request = SweepRequest(
            body, 0.444, AxisRange(0.0, 10e3, 4), AxisRange(0.0, 3.0, 4), device, efficiency
        )
        with pytest.raises(ValueError, match=message):
            scan(request)

    @pytest.mark.parametrize(
        "schedule",
        [dict(pressure=2e3), dict(pressure_points=((0.0, 2e3), (5.0, 5e3)))],
        ids=["constant", "scheduled"],
    )
    @pytest.mark.parametrize(
        "body,device,efficiency,message",
        [(HUGE, None, 1.0, REQUIRED_INF), (HUGE, DEVICE, 0.5, REQUIRED_INF),
         (BODY, FORCEFUL, 0.0, DEVICE_NAN)],
        ids=["bare", "device", "device-force"],
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
        assert math.isnan(scenario.pressure_at(3.0))
        with pytest.raises(ValueError, match="^pressure must be finite and >= 0, got nan$"):
            simulate_retraction(scenario)

    # 0 Pa times an infinite area is NaN, so the bottom breakpoint saturates
    # a device whose available force is inf, while the top one grounds it
    @example(radius=1e160, pressures=[2e3, 0.0], device=FORCEFUL, efficiency=0.5)
    @given(
        radius=st.floats(1e-3, 1e160),
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
                _, required = device_assist(body, device, pressure, efficiency)
                predict_at_length(solve_pressure_row(body, pressure, 0.0, required), tip)
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


@pytest.mark.parametrize(
    "schedule",
    [{"pressure_kpa": 2}, {"pressure_schedule": [[0, 2], [100, 5]]}],
    ids=["constant", "scheduled"],
)
def test_an_overflowing_episode_exits_2(tmp_path, schedule):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(
        {"initial_length_cm": 90, "body": {"radius_cm": 1e160}, **schedule}
    ))
    code, out, err = run_cli("simulate", "--scenario", str(path), "--json")
    assert (code, out) == (2, "")
    assert err == "error: required_tension must be finite, got inf\n"
