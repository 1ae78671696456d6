"""Quasistatic episode simulator: retraction, growth, device effects."""

import itertools
import math
import random

import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st
from test_rows import FLIP_BODIES, NEAR_STRAIGHT_DEFECT, in_the_cross_check_band
from test_sweep import log_uniform

from vinebuckle import (
    BodySpec,
    DeviceSpec,
    RobotState,
    Scenario,
    StepRecord,
    TerminalKind,
    Verdict,
    device_assist,
    emit_episode_csv,
    max_device_force,
    predict_with_device,
    retraction_kinematics,
    simulate_growth,
    simulate_retraction,
)
from vinebuckle import units
from vinebuckle.mechanics import (
    CrossCheckError,
    ModelUsed,
    length_terms_unchecked,
    min_inversion_pressure,
    oracle_row_unchecked,
    predict_row,
    solve_pressure_row_unchecked,
)
from vinebuckle.sim import MAX_EPISODE_STEPS, EpisodeLog, TerminalEvent

EPISODE_HEADER = "step,tip_cm,pressure_kpa,required_n,device_n,verdict,time_s"
# 0 Pa, or a pressure above the numeric box's floor of 1e-6 Pa
PRESSURES = st.just(0.0) | st.floats(1e-6, 12e3)


class TestRetraction:
    def test_short_straight_body_fully_retracts(self, body):
        log = simulate_retraction(Scenario(body=body, initial_length=1.0, pressure=2e3))
        assert log.terminal.kind is TerminalKind.FULLY_RETRACTED
        assert len(log.steps) == 100
        positions = [s.tip_position for s in log.steps]
        assert all(a > b for a, b in zip(positions, positions[1:]))

    def test_long_straight_body_buckles_immediately(self, body):
        log = simulate_retraction(Scenario(body=body, initial_length=3.0, pressure=2e3))
        assert log.terminal.kind is TerminalKind.BUCKLED
        assert log.terminal.length == 3.0
        assert len(log.steps) == 1
        assert log.steps[0].verdict is Verdict.BUCKLE

    def test_device_rescues_the_long_body(self, body, device):
        log = simulate_retraction(
            Scenario(body=body, initial_length=3.0, pressure=2e3, device=device)
        )
        assert log.terminal.kind is TerminalKind.FULLY_RETRACTED
        assert all(s.required_tension == 0.0 for s in log.steps)
        force = log.steps[0].device_force
        assert force == pytest.approx(19.46594901243776, rel=1e-12)
        assert force <= max_device_force(device)

    def test_zero_initial_length(self, body):
        log = simulate_retraction(Scenario(body=body, initial_length=0.0, pressure=2e3))
        assert log.terminal.kind is TerminalKind.FULLY_RETRACTED
        assert log.steps == ()

    def test_time_follows_roller_kinematics(self, body, device):
        log = simulate_retraction(
            Scenario(body=body, initial_length=0.5, pressure=1e3, device=device)
        )
        tip_speed = retraction_kinematics(device, device.motor_speed_max).tip_speed
        last = log.steps[-1]
        assert last.time == pytest.approx((0.5 - last.tip_position) / tip_speed, rel=1e-12)

    def test_time_is_nan_without_device(self, body):
        log = simulate_retraction(Scenario(body=body, initial_length=0.1, pressure=2e3))
        assert all(math.isnan(s.time) for s in log.steps)

    def test_slack_doubles_retracted_length_without_takeup(self, body, device):
        scenario = Scenario(
            body=body, initial_length=0.5, pressure=1e3, device=device, base_takeup=False
        )
        log = simulate_retraction(scenario)
        for record in log.steps:
            assert record.slack == 2.0 * (0.5 - record.tip_position)

    def test_takeup_keeps_slack_at_zero(self, body, device):
        log = simulate_retraction(
            Scenario(body=body, initial_length=0.3, pressure=1e3, device=device)
        )
        assert all(s.slack == 0.0 for s in log.steps)
        assert log.base_takeup_speed == retraction_kinematics(
            device, device.motor_speed_max
        ).base_takeup_speed

    def test_stationary_device_stalls(self, body, device):
        log = simulate_retraction(
            Scenario(body=body, initial_length=0.5, pressure=1e3, device=device, motor_speed=0.0)
        )
        assert log.terminal.kind is TerminalKind.STALLED
        assert len(log.steps) == 1

    def test_mid_episode_buckle_under_falling_pressure(self, body):
        # pressure drops below the inversion minimum partway toward the base
        scenario = Scenario(
            body=body,
            initial_length=2.0,
            pressure_points=((0.0, 0.5e3), (2.0, 2e3)),
        )
        log = simulate_retraction(scenario)
        assert log.terminal.kind is TerminalKind.BUCKLED
        assert 0.5 < log.terminal.length < 1.5

    def test_halving_step_is_robust(self, body):
        for pressure, length in ((2e3, 1.0), (2e3, 3.0), (5e3, 2.0)):
            coarse = simulate_retraction(
                Scenario(body=body, initial_length=length, pressure=pressure, step=0.02)
            )
            fine = simulate_retraction(
                Scenario(body=body, initial_length=length, pressure=pressure, step=0.01)
            )
            assert coarse.terminal.kind is fine.terminal.kind

    def test_halving_step_moves_buckle_at_most_one_coarse_step(self, body):
        scenario = dict(
            body=body, initial_length=2.0, pressure_points=((0.0, 0.5e3), (2.0, 2e3))
        )
        coarse = simulate_retraction(Scenario(step=0.02, **scenario))
        fine = simulate_retraction(Scenario(step=0.01, **scenario))
        assert coarse.terminal.kind is fine.terminal.kind is TerminalKind.BUCKLED
        assert abs(coarse.terminal.length - fine.terminal.length) <= 0.02 + 1e-12

    def test_schedule_must_cover_the_sweep(self, body):
        scenario = Scenario(
            body=body, initial_length=2.0, pressure_points=((1.0, 2e3), (2.0, 2e3))
        )
        with pytest.raises(ValueError, match="schedule"):
            simulate_retraction(scenario)


class TestDeviceMonotonicity:
    def test_device_never_degrades_an_episode(self, body, device):
        rng = random.Random(777)
        for _ in range(50):
            scenario = dict(
                body=body,
                initial_length=rng.uniform(0.05, 4.0),
                pressure=rng.uniform(0.2e3, 12e3),
                curvature=rng.choice([0.0, rng.uniform(0.05, 1.5)]),
                step=rng.uniform(0.005, 0.05),
            )
            without = simulate_retraction(Scenario(**scenario))
            with_device = simulate_retraction(
                Scenario(device=device, efficiency=rng.uniform(0.1, 1.0), **scenario)
            )
            if without.terminal.kind is TerminalKind.FULLY_RETRACTED:
                assert with_device.terminal.kind is TerminalKind.FULLY_RETRACTED


class TestGrowth:
    def test_envelope_flips_at_the_straight_transition(self, body):
        log = simulate_growth(
            Scenario(body=body, initial_length=0.0, pressure=2e3, target_length=3.0)
        )
        assert log.terminal.kind is TerminalKind.BUCKLED
        assert log.terminal.length == pytest.approx(2.3946188550377654, abs=0.011)
        assert len(log.steps) == 300

    def test_device_keeps_envelope_invertible(self, body, device):
        log = simulate_growth(
            Scenario(
                body=body, initial_length=0.0, pressure=2e3, target_length=3.0, device=device
            )
        )
        assert log.terminal.kind is TerminalKind.FULLY_RETRACTED
        assert all(s.verdict is Verdict.INVERT for s in log.steps)

    def test_stationary_device_neither_stalls_nor_pays_out_slack(self, body, device):
        log = simulate_growth(
            Scenario(
                body=body, initial_length=0.0, pressure=2e3, target_length=3.0,
                device=device, motor_speed=0.0, base_takeup=False,
            )
        )
        assert log.terminal.kind is TerminalKind.FULLY_RETRACTED
        assert len(log.steps) == 300
        assert all(s.time == 0.0 and s.slack == 0.0 for s in log.steps)

    def test_zero_length_target(self, body):
        with pytest.raises(ValueError, match="nothing to grow.*target_length"):
            simulate_growth(
                Scenario(body=body, initial_length=0.0, pressure=2e3, target_length=0.0)
            )

    def test_target_below_a_buckling_start_is_refused(self, body):
        # used to log no step and report fully_retracted, though a 3 m body
        # at 2 kPa buckles (transition ~2.39 m)
        scenario = Scenario(body, 3.0, pressure=2e3, target_length=1.0)
        assert simulate_retraction(scenario).terminal.kind is TerminalKind.BUCKLED
        with pytest.raises(ValueError, match="nothing to grow.*target_length"):
            simulate_growth(scenario)

    def test_schedule_falling_to_zero_stays_nonnegative(self, body):
        # (p1 - p0) * (tip - x0) / (x1 - x0) at tip == x1 rounds to -2.2e-16 Pa
        # here, which the per-step solve refused as a negative pressure
        start, target = 1.6700265450868317, 1.6700265450868317 + 0.035029039385667954
        scenario = Scenario(
            body=body, initial_length=start, step=0.0625, base_takeup=False,
            target_length=target, pressure_points=((0.0, 1.7746648496031412), (target, 0.0)),
        )
        assert scenario.pressure_at(target) == 0.0
        log = simulate_growth(scenario)
        assert log.steps[-1].tip_position == target
        assert log.steps[-1].pressure == 0.0

    def test_growth_needs_a_target(self, body):
        with pytest.raises(ValueError, match="target_length"):
            simulate_growth(Scenario(body=body, initial_length=0.0, pressure=2e3))


def flip_scenario(body, device_efficiency, p_scale, curvature, grow, reach, start, steps, motor):
    """A constant-pressure episode scaled to its row: its span is ``reach``
    times the row's longest feature (the transition, or kappa*L = pi where
    that is longer, or 1 m), in ``steps`` steps; a growth starts at
    ``start`` times its target, and the span stops at the numeric box's
    longest length (pi / kappa alone is 3.1e5 m at 1e-5 /m). Returns the
    scenario and its row."""
    device, efficiency = device_efficiency
    pressure = min_inversion_pressure(body) * p_scale
    _, required = device_assist(body, device, pressure, efficiency)
    row = solve_pressure_row_unchecked(body, pressure, curvature, required)
    marks = [row.critical_length, math.pi / curvature if curvature else None]
    length = min(reach * max((mark for mark in marks if mark), default=1.0), units.LENGTH.hi)
    kwargs = dict(
        body=body, pressure=pressure, curvature=curvature, device=device,
        efficiency=efficiency, motor_speed=motor,
    )
    if grow:
        initial = start * length
        scenario = Scenario(
            initial_length=initial, target_length=length, step=(length - initial) / steps, **kwargs
        )
    else:
        scenario = Scenario(initial_length=length, step=length / steps, **kwargs)
    return scenario, row


def episode_tips(scenario, grow):
    """Every tip an episode could log, with the stepping rule written out."""
    start, step = scenario.initial_length, scenario.step
    if not grow:
        shorter = (start - k * step for k in itertools.count())
        return list(itertools.takewhile(lambda tip: tip > 0.0, shorter))
    target = scenario.target_length
    longer = (start + k * step for k in itertools.count(1))
    return list(itertools.takewhile(lambda tip: tip < target, longer)) + [target]


FLIP_CASES = {  # name: (device_efficiency, p_scale, curvature, grow, reach, start, steps, motor)
    "growth from zero length": ((None, 1.0), 4.0, 0.0, True, 2.0, 0.0, 120, None),
    "growth whose first tip buckles": ((None, 1.0), 4.0, 0.0, True, 3.0, 0.9, 40, None),
    "growth that never buckles": ((None, 1.0), 4.0, 0.0, True, 0.9, 0.0, 90, None),
    "curved growth past kappa*L = pi": (
        (DeviceSpec(), 0.3), 4.0, 1 / 0.72, True, 2.0, 0.0, 200, None
    ),
    "retraction that buckles at its first tip": (
        (None, 1.0), 4.0, 1 / 2.25, False, 2.0, 0.0, 50, None
    ),
    "device stalled at zero motor speed": ((DeviceSpec(), 1.0), 4.0, 0.0, False, 2.0, 0.0, 50, 0.0),
}


def flip_case_examples(test):
    for case in FLIP_CASES.values():
        test = example(BodySpec(), *case)(test)
    return test


class TestConstantPressureFlip:
    # A constant-pressure episode finds its one flip instead of evaluating
    # every tip; every step still has the bits the row evaluator gives at
    # its tip.
    @flip_case_examples
    @example(  # pi / kappa times reach is 1.15e6 m, past the box's longest length
        body=BodySpec(
            radius=0.1, wall_thickness=1e-4, youngs_modulus=1e8, shear_modulus=1e8,
            inversion_force=1.0,
        ),
        device_efficiency=(None, 1.0), p_scale=1.0, curvature=1e-5, grow=False,
        reach=10.0**0.5625, start=0.0, steps=1, motor=None,
    )
    @given(
        body=FLIP_BODIES,
        device_efficiency=(
            st.just((None, 1.0)) | st.tuples(st.just(DeviceSpec()), st.floats(0.0, 1.0))
        ),
        p_scale=log_uniform(math.log10(0.6), 3.0),
        curvature=st.just(0.0) | log_uniform(-5.0, 1.0),
        grow=st.booleans(),
        reach=log_uniform(-1.0, 0.6),
        start=st.just(0.0) | st.floats(0.0, 0.95),
        steps=st.integers(1, 300),
        motor=st.sampled_from([None, 0.0]),
    )
    def test_steps_equal_per_tip_evaluation(
        self, body, device_efficiency, p_scale, curvature, grow, reach, start, steps, motor
    ):
        assume(not in_the_cross_check_band(curvature, p_scale))
        scenario, row = flip_scenario(
            body, device_efficiency, p_scale, curvature, grow, reach, start, steps, motor
        )
        log = (simulate_growth if grow else simulate_retraction)(scenario)
        tips = episode_tips(scenario, grow)
        cells = list(predict_row(row, length_terms_unchecked(body, curvature, tips)))
        first = next((i for i, cell in enumerate(cells) if cell.verdict is Verdict.BUCKLE), None)
        stalls = not grow and scenario.device is not None and motor == 0.0
        logged = len(tips)
        if stalls:
            logged = min(logged, 1)
        if not grow and first is not None:
            logged = min(logged, first + 1)
        assert [step.tip_position for step in log.steps] == tips[:logged]
        for step, cell in zip(log.steps, cells):
            assert step.verdict is cell.verdict
            assert step.required_tension.hex() == cell.required_tension.hex()
            assert step.pressure.hex() == row.pressure.hex()
        if first is not None and first < logged:
            assert log.terminal == TerminalEvent(TerminalKind.BUCKLED, tips[first])
        elif stalls and tips:
            assert log.terminal == TerminalEvent(TerminalKind.STALLED)
        else:
            assert log.terminal == TerminalEvent(TerminalKind.FULLY_RETRACTED)

    @pytest.mark.parametrize("name", sorted(FLIP_CASES))
    def test_flip_cases_cover_their_kind(self, name):
        grow = FLIP_CASES[name][3]
        scenario, row = flip_scenario(BodySpec(), *FLIP_CASES[name])
        log = (simulate_growth if grow else simulate_retraction)(scenario)
        verdicts = [step.verdict for step in log.steps]
        kind = log.terminal.kind
        if name == "growth from zero length":
            assert scenario.initial_length == 0.0 and kind is TerminalKind.BUCKLED
            assert verdicts[0] is Verdict.INVERT
        elif name == "growth whose first tip buckles":
            assert set(verdicts) == {Verdict.BUCKLE}
        elif name == "growth that never buckles":
            assert kind is TerminalKind.FULLY_RETRACTED and set(verdicts) == {Verdict.INVERT}
        elif name == "curved growth past kappa*L = pi":
            assert row.model_used is ModelUsed.CURVED and not row.grounded
            assert scenario.target_length * scenario.curvature > math.pi
            assert kind is TerminalKind.BUCKLED
        elif name == "retraction that buckles at its first tip":
            assert kind is TerminalKind.BUCKLED and len(verdicts) == 1
            assert row.model_used is ModelUsed.CURVED
        else:
            assert kind is TerminalKind.STALLED and len(verdicts) == 1
            assert row.grounded


def linear_scan_pressure(points, tip):
    """The schedule walked as a linear scan over its breakpoints: the first
    segment whose end is at or past the tip, interpolated and held within
    that segment's end pressures."""
    for (x0, p0), (x1, p1) in zip(points, points[1:]):
        if tip <= x1:
            p = p0 + (p1 - p0) * (tip - x0) / (x1 - x0)
            return min(max(p, min(p0, p1)), max(p0, p1))
    raise AssertionError(f"tip {tip} is past the schedule")


@st.composite
def schedules(draw):
    """2-6 breakpoints from a first position that may be negative, with
    pressures that rise, fall and reach 0 Pa, and interior fractions at
    which each segment is also evaluated. Positions and pressures are 0 or
    above their floors in the numeric box, 1e-9 m and 1e-6 Pa."""
    n = draw(st.integers(2, 6))
    position = draw(st.floats(-3.0, 3.0))
    positions = [position]
    for _ in range(n - 1):
        position += draw(st.floats(1e-3, 2.0))
        positions.append(position)
    assume(all(x == 0.0 or abs(x) >= 1e-9 for x in positions))
    pressures = draw(st.lists(st.just(0.0) | st.floats(1e-6, 12e3), min_size=n, max_size=n))
    fractions = draw(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=4))
    return tuple(zip(positions, pressures)), fractions


def schedule_tips(points, fractions):
    """Every breakpoint, the floats on either side of each, and points
    inside every segment."""
    tips = []
    for x, _ in points:
        tips += [math.nextafter(x, -math.inf), x, math.nextafter(x, math.inf)]
    for (x0, _), (x1, _) in zip(points, points[1:]):
        tips += [x0 + f * (x1 - x0) for f in fractions]
    return tips


TARGET = 1.6700265450868317 + 0.035029039385667954
SCHEDULE = ((-0.5, 300.0), (0.4, 2e3), (0.7, 4e3), (1.3, 5e3), (2.0, 0.0), (3.0, 25e3))


class TestPressureSchedule:
    @given(schedule=schedules())
    @example(  # the falling segment whose interpolant rounds below 0 Pa at its end
        schedule=(((0.0, 1.7746648496031412), (TARGET, 0.0)), [0.5])
    )
    @example(schedule=(SCHEDULE, [0.0, 0.25, 1.0]))
    def test_walk_matches_a_linear_scan(self, schedule):
        points, fractions = schedule
        scenario = Scenario(BodySpec(), initial_length=0.0, pressure_points=points)
        first, last = points[0][0], points[-1][0]
        for tip in schedule_tips(points, fractions):
            if first <= tip <= last:
                expected = linear_scan_pressure(points, tip)
                assert scenario.pressure_at(tip).hex() == expected.hex(), tip
            else:
                with pytest.raises(ValueError, match="pressure schedule covers tip positions"):
                    scenario.pressure_at(tip)

    @pytest.mark.parametrize(
        "tip", [math.nan, -math.inf, math.inf, math.nextafter(0.0, -1.0), math.nextafter(1.0, 2.0)]
    )
    def test_tip_outside_the_span_or_nan_raises(self, body, tip):
        # a NaN tip failed every comparison of the scan and read as the last
        # breakpoint's pressure, 5000.0 here
        scenario = Scenario(body, initial_length=1.0, pressure_points=((0, 400), (1, 5000)))
        with pytest.raises(ValueError, match="pressure schedule covers tip positions"):
            scenario.pressure_at(tip)

    def test_segments_are_not_part_of_the_scenario_value(self, body):
        fresh = Scenario(body, initial_length=1.0, pressure_points=SCHEDULE)
        walked = Scenario(body, initial_length=1.0, pressure_points=SCHEDULE)
        assert walked.pressure_at(0.55) == linear_scan_pressure(SCHEDULE, 0.55)
        assert walked == fresh and hash(walked) == hash(fresh) and repr(walked) == repr(fresh)

    @pytest.mark.parametrize("shape", ["bare retraction", "device growth", "bare curved growth"])
    def test_every_scheduled_step_takes_the_schedule_pressure(self, body, device, shape):
        if shape == "device growth":  # grounded, then saturated, then buckling, at kappa = 0.444
            scenario = Scenario(
                body, initial_length=0.2, target_length=2.9, curvature=0.444, device=device,
                efficiency=0.3, pressure_points=SCHEDULE,
            )
            log = simulate_growth(scenario)
        elif shape == "bare curved growth":  # tips from 2.26 m on are past kappa*L = pi
            scenario = Scenario(
                body, initial_length=0.2, target_length=2.9, curvature=1.389,
                pressure_points=SCHEDULE,
            )
            log = simulate_growth(scenario)
        else:
            scenario = Scenario(body, initial_length=1.25, pressure_points=SCHEDULE)
            log = simulate_retraction(scenario)
        assert len(log.steps) > 100
        assert len({step.pressure for step in log.steps}) > 100
        cells = []
        for step in log.steps:
            assert step.pressure.hex() == scenario.pressure_at(step.tip_position).hex()
            # the cell the row's lazy evaluation gives over the step's one term
            _, required = device_assist(body, scenario.device, step.pressure, scenario.efficiency)
            row = solve_pressure_row_unchecked(body, step.pressure, scenario.curvature, required)
            (cell,) = predict_row(
                row, length_terms_unchecked(body, scenario.curvature, (step.tip_position,))
            )
            assert step.required_tension.hex() == cell.required_tension.hex()
            assert step.verdict is cell.verdict
            cells.append(cell)
        if shape == "bare curved growth":
            assert any(cell.model_used is ModelUsed.CURVED for cell in cells)
            assert any(cell.extrapolated for cell in cells)


# A 1 mm body just at the straightness threshold, where the curved closed
# form misses the bisection root (ROADMAP item 1) and the row solver raises
# CrossCheckError. Its straight transition is ~0.93 cm, its curved one
# ~217 cm.
SMALL, DEFECT_PRESSURE, DEFECT_KAPPA = NEAR_STRAIGHT_DEFECT


def defect_episode(initial, target, constant):
    """The defect pressure, held constant or on a flat schedule: a
    retraction from ``initial``, or a growth from it to ``target``."""
    if constant:
        pressure = dict(pressure=DEFECT_PRESSURE)
    else:
        pressure = dict(pressure_points=((0.0, DEFECT_PRESSURE), (3.0, DEFECT_PRESSURE)))
    scenario = Scenario(
        SMALL, initial_length=initial, target_length=target, step=0.001, curvature=DEFECT_KAPPA,
        **pressure,
    )
    return simulate_retraction(scenario) if target is None else simulate_growth(scenario)


@pytest.mark.parametrize("constant", [False, True], ids=["schedule", "constant"])
class TestNearStraightSchedule:
    # Every episode step asks the verdict kernel, which solves its row only
    # where the two models' verdicts differ, and a constant-pressure
    # episode's flip search reads only some of its tips. So an episode whose
    # every tip it reads lies where they agree does not meet the closed
    # form's defect.
    @pytest.mark.parametrize(
        "initial,target,kind,steps",
        [
            (0.009, None, TerminalKind.FULLY_RETRACTED, 9),  # short of both transitions
            (0.0, 0.009, TerminalKind.FULLY_RETRACTED, 9),
            (3.0, None, TerminalKind.BUCKLED, 1),  # past both: buckles at its first tip
        ],
    )
    def test_episode_where_the_models_agree_completes(
        self, initial, target, kind, steps, constant
    ):
        with pytest.raises(CrossCheckError):
            solve_pressure_row_unchecked(
                SMALL, DEFECT_PRESSURE, DEFECT_KAPPA, device_assist(SMALL, None, DEFECT_PRESSURE)[1]
            )
        log = defect_episode(initial, target, constant)
        assert len(log.steps) == steps and log.terminal.kind is kind
        for step in log.steps:
            # the oracle's dispatch bisects both models and never raises here
            terms = list(length_terms_unchecked(SMALL, DEFECT_KAPPA, (step.tip_position,)))
            (cell,) = oracle_row_unchecked(
                SMALL, step.pressure, DEFECT_KAPPA, step.required_tension, terms
            )
            assert step.verdict is cell.verdict

    @pytest.mark.parametrize("initial,target", [(0.05, None), (0.0, 0.05)])
    def test_episode_that_reaches_a_tip_where_the_models_differ_still_raises(
        self, initial, target, constant
    ):
        with pytest.raises(CrossCheckError, match="disagrees"):
            defect_episode(initial, target, constant)


class TestEpisodeCsv:
    def test_header_and_rows(self, body):
        log = simulate_retraction(Scenario(body=body, initial_length=0.05, pressure=2e3))
        lines = emit_episode_csv(log).decode().strip().split("\n")
        assert lines[0] == EPISODE_HEADER
        assert len(lines) == 1 + len(log.steps)
        assert lines[1].startswith("0,")

    def test_deterministic(self, body, device):
        scenario = Scenario(body=body, initial_length=0.2, pressure=2e3, device=device)
        assert emit_episode_csv(simulate_retraction(scenario)) == emit_episode_csv(
            simulate_retraction(scenario)
        )


def reference_episode_csv(log) -> bytes:
    """The episode CSV written out field by field, one join per step."""
    lines = [EPISODE_HEADER]
    for record in log.steps:
        lines.append(
            ",".join(
                (
                    str(record.index),
                    repr(units.m_to_cm(record.tip_position)),
                    repr(units.pa_to_kpa(record.pressure)),
                    repr(record.required_tension),
                    repr(record.device_force),
                    record.verdict.value,
                    repr(record.time),
                )
            )
        )
    return ("\n".join(lines) + "\n").encode("utf-8")


class TestEpisodeCsvMatchesReference:
    @given(
        grow=st.booleans(),
        initial_length=st.floats(0.0, 3.0),
        span=st.floats(0.01, 2.0),
        step=st.floats(0.01, 0.1),
        pressures=st.tuples(PRESSURES, st.none() | PRESSURES),
        curvature=st.just(0.0) | st.floats(1e-5, 2.0),
        efficiency=st.none() | st.floats(0.0, 1.0),
        motor_speed=st.none() | st.just(0.0),
        base_takeup=st.booleans(),
    )
    @example(  # a buckling retraction under a falling schedule
        grow=False, initial_length=2.0, span=0.01, step=0.01,
        pressures=(0.5e3, 2e3), curvature=0.0, efficiency=None,
        motor_speed=None, base_takeup=True,
    )
    @example(  # a curved growth past the transition, with the device saturating
        grow=True, initial_length=0.0, span=3.0, step=0.02,
        pressures=(4e3, None), curvature=1 / 0.72, efficiency=0.05,
        motor_speed=None, base_takeup=False,
    )
    def test_matches_reference(
        self, grow, initial_length, span, step, pressures, curvature, efficiency,
        motor_speed, base_takeup,
    ):
        # pressures (p, None): constant; (p0, p1): a schedule over the whole travel
        target = initial_length + span
        start_p, end_p = pressures
        schedule = (
            {"pressure": start_p}
            if end_p is None
            else {"pressure_points": ((0.0, start_p), (target, end_p))}
        )
        scenario = Scenario(
            body=BodySpec(),
            initial_length=initial_length,
            curvature=curvature,
            device=None if efficiency is None else DeviceSpec(),
            efficiency=1.0 if efficiency is None else efficiency,
            step=step,
            motor_speed=motor_speed,
            base_takeup=base_takeup,
            target_length=target,
            **schedule,
        )
        log = simulate_growth(scenario) if grow else simulate_retraction(scenario)
        assert emit_episode_csv(log) == reference_episode_csv(log)

    def test_column_reused_only_for_the_same_object(self):
        # The emitter reuses a column's text while the step holds the same
        # float object (the device column also for an equal nonzero float).
        # These steps hold -0.0 after 0.0 (equal, different text), two
        # distinct NaN objects, and equal but distinct floats.
        zero, negative_zero = 0.0, -0.0
        nan_a, nan_b = float("nan"), float("nan")
        equal_a, equal_b = float("2500.25"), float("2500.25")
        assert nan_a is not nan_b and equal_a is not equal_b
        rows = [
            (zero, zero, zero, nan_a),
            (negative_zero, negative_zero, negative_zero, nan_b),
            (negative_zero, zero, negative_zero, nan_b),
            (zero, negative_zero, zero, zero),
            (equal_a, equal_a, equal_a, nan_a),
            (equal_b, equal_b, equal_b, negative_zero),
            (nan_a, nan_b, nan_a, equal_a),
            (nan_b, nan_b, nan_b, equal_b),
        ]
        steps = tuple(
            StepRecord(
                index, 1.0 - 0.01 * index, pressure, required, device_force,
                Verdict.BUCKLE if index % 3 else Verdict.INVERT, time, 0.0,
            )
            for index, (pressure, required, device_force, time) in enumerate(rows)
        )
        log = EpisodeLog(steps=steps, terminal=TerminalEvent(TerminalKind.FULLY_RETRACTED))
        emitted = emit_episode_csv(log)
        assert emitted == reference_episode_csv(log)
        assert emitted.decode().split("\n")[2] == "1,99.0,-0.0,-0.0,-0.0,buckle,nan"

    def test_device_column_is_each_step_own_repr(self):
        # the device column keeps its text for an equal nonzero force held in
        # a new object, as a saturated device gives one on every step; zeros
        # and NaNs of distinct objects are formatted again
        nan_a, nan_b = float("nan"), float("nan")
        forces = [
            float("41.5"), float("41.5"), float("41.5"),  # equal, distinct objects
            0.0, -0.0, float("-0.0"), 0.0, float("0.0"),
            nan_a, nan_a, nan_b, float("41.5"), 41.500000000000007, -41.5, -41.5,
        ]
        assert forces[0] is not forces[1] and forces[5] is not forces[4]
        steps = tuple(
            StepRecord(index, 1.0, 2e3, 9.0, force, Verdict.INVERT, math.nan, 0.0)
            for index, force in enumerate(forces)
        )
        log = EpisodeLog(steps=steps, terminal=TerminalEvent(TerminalKind.FULLY_RETRACTED))
        lines = emit_episode_csv(log).decode().split("\n")[1:-1]
        assert [line.split(",")[4] for line in lines] == [repr(force) for force in forces]


class TestStepRecord:
    # the stepping loop builds StepRecord by position, so the field order is
    # part of its contract
    FIELDS = (
        "index",
        "tip_position",
        "pressure",
        "required_tension",
        "device_force",
        "verdict",
        "time",
        "slack",
    )

    def test_fields_in_order(self):
        assert StepRecord._fields == self.FIELDS

    @pytest.mark.parametrize("name", FIELDS)
    def test_fields_are_read_only(self, body, name):
        record = simulate_retraction(Scenario(body=body, initial_length=0.1, pressure=2e3)).steps[0]
        with pytest.raises(AttributeError):
            setattr(record, name, getattr(record, name))

    def test_step_equals_keyword_record(self, body, device):
        # a saturated device without base take-up: every field differs
        pressure, efficiency, start, step = 1e3, 0.3, 0.5, 0.1
        scenario = Scenario(
            body=body, initial_length=start, pressure=pressure, device=device,
            efficiency=efficiency, step=step, base_takeup=False,
        )
        tip = start - 1 * step
        travelled = abs(tip - start)
        force, required = device_assist(body, device, pressure, efficiency)
        tip_speed = retraction_kinematics(device, device.motor_speed_max).tip_speed
        expected = StepRecord(
            index=1,
            tip_position=tip,
            pressure=pressure,
            required_tension=required,
            device_force=force,
            verdict=predict_with_device(
                body, device, RobotState(length=tip, pressure=pressure), efficiency
            ).verdict,
            time=travelled / tip_speed,
            slack=2.0 * travelled,
        )
        record = simulate_retraction(scenario).steps[1]
        assert type(record) is StepRecord
        assert record == expected


class TestScenarioValidation:
    def test_needs_exactly_one_pressure_form(self, body):
        with pytest.raises(ValueError):
            Scenario(body=body, initial_length=1.0)
        with pytest.raises(ValueError):
            Scenario(
                body=body,
                initial_length=1.0,
                pressure=2e3,
                pressure_points=((0.0, 1e3), (1.0, 2e3)),
            )

    def test_breakpoints_must_increase(self, body):
        with pytest.raises(ValueError):
            Scenario(
                body=body,
                initial_length=1.0,
                pressure_points=((1.0, 1e3), (1.0, 2e3)),
            )

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"initial_length": -0.1, "pressure": 1e3},
            {"initial_length": 1.0, "pressure": 1e3, "step": 0.0},
            {"initial_length": 1.0, "pressure": -5.0},
            {"initial_length": 1.0, "pressure": 1e3, "efficiency": 1.5},
            # ~10^15 steps; only the constructor runs
            {"initial_length": 1e6, "pressure": 1e3, "step": 1e-9},
            {"initial_length": 0.0, "pressure": 1e3, "target_length": 1e4, "step": 1e-3},
            {"initial_length": 1.0, "pressure_points": ((0.0, 1e3),)},  # one breakpoint
        ],
    )
    def test_bad_fields(self, body, kwargs):
        with pytest.raises(ValueError):
            Scenario(body=body, **kwargs)

    def test_step_ceiling_is_inclusive(self, body):
        step = 2.0**-10  # exact binary fractions: span / step is exact
        ceiling = MAX_EPISODE_STEPS * step
        Scenario(body=body, initial_length=ceiling, pressure=1e3, step=step)
        Scenario(
            body=body, initial_length=1.0, target_length=1.0 + ceiling, pressure=1e3, step=step
        )
        with pytest.raises(ValueError, match="exceeds"):
            Scenario(body=body, initial_length=ceiling + step, pressure=1e3, step=step)
