"""Each input is checked once per request, against the numeric box. The
records (``BodySpec``, ``DeviceSpec``, ``RobotState``, ``AxisRange``,
``SweepRequest``, ``Scenario``) check their fields when built, a request its
axes' cell centers among them; the request-level functions check only the
arguments no record holds, and call kernels that trust their inputs. Inside
the box no derived force overflows, so none is checked: a prediction and a
diagram make no ``units.check`` call, and an episode a fixed number. Every
input that once overflowed a derived force is outside the box, and is
rejected where it enters."""

import contextlib
import io
import json
import math

import pytest
from hypothesis import given
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
# a pressure at which P*A, and so the required tension, overflowed on a
# 1e77 m body, which R**4 still allowed
OVERFLOWING = 1e155
PRESSURE_BOX = r"^pressure must be finite and in \[0, 1e\+30\], and 0 or at least 1e-06"
RADIUS_BOX = r"^radius must be finite and in \[1e-09, 1e\+06\], got 1e\+77$"
# 2*tau/r was inf, so the available force at efficiency 0 was NaN
TORQUE_BOX = r"^max_motor_torque must be finite and in \[1e-09, 1e\+09\], got 1e\+300$"


def large():
    return BodySpec(radius=1e77)


def forceful():
    return DeviceSpec(max_motor_torque=1e300, roller_radius=1e-300)


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
    def test_a_prediction_makes_no_check(self, checks, kappa, length, pressure):
        state = RobotState(length, pressure, kappa)
        assert checks_of(checks, predict_behavior, BODY, state) == []

    @pytest.mark.parametrize("kappa", [0.0, NEAR_STRAIGHT, 0.444])
    @pytest.mark.parametrize("pressure", [0.0, 2e3, 9e3])
    def test_a_transition_checks_its_inputs(self, checks, kappa, pressure):
        names = checks_of(checks, transition_length, BODY, pressure, kappa)
        assert names == ["pressure", "curvature"]

    def test_a_pressure_ceiling_checks_its_pressure_once(self, checks):
        names = checks_of(checks, efficiency_for_pressure_ceiling, BODY, DEVICE, 2e3)
        assert names == ["max_pressure"]

    @pytest.mark.parametrize("kappa", [0.0, 0.444])
    @pytest.mark.parametrize(
        "device,pressure", [(DEVICE, 2e3), (DEVICE, 9e3), (None, 2e3)],
        ids=["grounded", "saturated", "bare"],
    )
    def test_a_device_prediction_checks_its_efficiency(self, checks, kappa, device, pressure):
        state = RobotState(1.0, pressure, kappa)
        names = checks_of(checks, predict_with_device, BODY, device, state, 1.0)
        assert names == ["efficiency"]

    @pytest.mark.parametrize("scan", [classify_grid, oracle_scan])
    @pytest.mark.parametrize("kappa", [0.0, NEAR_STRAIGHT, 0.444])
    @pytest.mark.parametrize("device", [None, DEVICE], ids=["bare", "device"])
    def test_a_diagram_makes_no_check(self, checks, scan, kappa, device):
        for rows, columns in ((3, 4), (40, 90)):
            request = SweepRequest(
                BODY, kappa, AxisRange(0.0, 10e3, rows), AxisRange(0.0, 3.0, columns), device
            )
            assert checks_of(checks, scan, request) == []

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
        assert grow_short == grow_long and len(grow_long) <= 1
        assert len(simulate_growth(long).steps) == 2500
        retract_short = checks_of(checks, simulate_retraction, Scenario(BODY, 0.1, **fields))
        retract_long = checks_of(checks, simulate_retraction, Scenario(BODY, 25.0, **fields))
        assert retract_short == retract_long

    @pytest.mark.parametrize(
        "kind", ["device-curved-scheduled", "device-curved-grounded-scheduled"]
    )
    def test_a_scheduled_device_episode_checks_only_its_motor_speed(self, checks, kind):
        # one check for 2,500 steps, none of them per step
        scenario = Scenario(BODY, 0.0, target_length=25.0, **self.SCENARIOS[kind])
        assert checks_of(checks, simulate_growth, scenario) == ["motor_speed"]


class TestOutsideTheBoxIsRejected:
    """Each of these inputs once overflowed a derived force or tension, which a
    check after the arithmetic rejected; each is now outside the box, and is
    rejected where it enters."""

    def test_records(self):
        with pytest.raises(ValueError, match=RADIUS_BOX):
            large()
        with pytest.raises(ValueError, match=TORQUE_BOX):
            forceful()
        with pytest.raises(ValueError, match=PRESSURE_BOX):
            RobotState(1.0, OVERFLOWING)

    # each derived a tension or force that overflowed, where its result
    # would have been inf or NaN (inf/inf)
    CALLS = {
        "min_buckling_moment_arm": lambda: min_buckling_moment_arm(BODY, OVERFLOWING),
        "efficiency_for_pressure_ceiling": (
            lambda: efficiency_for_pressure_ceiling(BODY, DEVICE, OVERFLOWING)),
        "device_assist": lambda: device_assist(BODY, DEVICE, OVERFLOWING, 0.5),
        "bare device_assist": lambda: device_assist(BODY, None, 1.7e308),
        "curved_transition_length": lambda: curved_transition_length(BODY, 1.7e308, 0.5),
        "transition_length": lambda: transition_length(BODY, 1.7e308),
        "curved transition_length": lambda: transition_length(BODY, 1.7e308, 0.5),
        "diagram": lambda: SweepRequest(
            BODY, 0.444, AxisRange(OVERFLOWING, 2 * OVERFLOWING, 4), AxisRange(0.0, 3.0, 4)
        ),
        "episode": lambda: Scenario(BODY, 3.0, pressure=OVERFLOWING),
        "schedule": lambda: Scenario(
            BODY, 3.0, pressure_points=((0.0, OVERFLOWING), (5.0, 2 * OVERFLOWING))
        ),
        # growth to 0.5 m never reached this breakpoint, but it was rejected
        # before the first step
        "unreached breakpoint": lambda: Scenario(
            BodySpec(radius=10.0), 0.0, target_length=0.5,
            pressure_points=((0.0, 2e3), (1.0, 2e3), (100.0, 1.7e308)),
        ),
    }

    # the pressure's box, or its positive part for the moment arm
    PRESSURE_NAMES = (
        r"^(max_)?(pressure_points )?pressure must be finite and in \[(0|1e-06), 1e\+30\]"
    )

    @pytest.mark.parametrize("call", sorted(CALLS))
    def test_pressure(self, call):
        with pytest.raises(ValueError, match=self.PRESSURE_NAMES):
            self.CALLS[call]()

    def test_a_schedule_whose_span_overflowed(self):
        # x1 - x0 was inf, so the interpolant at a tip was inf/inf
        with pytest.raises(ValueError, match=r"^pressure_points position must be finite and in "):
            Scenario(BODY, 3.0, pressure_points=((-1e308, 0.0), (1e308, 5e3)))

    @given(
        radius=st.floats(1e-3, 1e77),
        pressures=st.lists(st.sampled_from([0.0, 2e3, 1e150, 1e300, 1.7e308])
                           | st.floats(0.0, 1.7e308), min_size=2, max_size=4),
        device=st.sampled_from([None, DEVICE]),
        efficiency=st.sampled_from([0.0, 0.5, 1.0]),
    )
    def test_a_schedule_is_rejected_or_runs_with_finite_steps(
        self, radius, pressures, device, efficiency
    ):
        # an input outside the box is rejected when the scenario is built;
        # every other episode runs, and every step it records is finite
        in_box = radius <= 1e6 and all(p == 0.0 or 1e-6 <= p <= 1e30 for p in pressures)
        points = tuple((0.1 * i, pressure) for i, pressure in enumerate(pressures))
        try:
            scenario = Scenario(
                BodySpec(radius=radius), 0.0, pressure_points=points, device=device,
                efficiency=efficiency, target_length=points[-1][0], step=0.02,
            )
        except ValueError:
            assert not in_box
            return
        assert in_box
        for step in simulate_growth(scenario).steps:
            assert all(
                math.isfinite(x)
                for x in (step.pressure, step.required_tension, step.device_force)
            )


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


RADIUS_ERROR = "error: radius must be finite and in [1e-09, 1e+06], got 1e+77\n"


# 1e155 Pa on a 1e77 m body: P*A overflowed; the radius is outside the box
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
    assert err == RADIUS_ERROR


# eta*F_max was inf, and so was the zero-tension need it covered at 1e155 Pa
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
    assert err == RADIUS_ERROR
