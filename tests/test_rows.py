"""Per-pressure row solver: the row paths of the grid, the oracle and the
simulator give what the per-cell predictors give, and non-finite inputs are
rejected before any row is solved."""

import math

import pytest

from vinebuckle import (
    AxisRange,
    BodySpec,
    DeviceSpec,
    ModelUsed,
    RobotState,
    Scenario,
    SweepRequest,
    Verdict,
    applied_device_force,
    classify_grid,
    clamped_moment_arm,
    device_assist,
    device_force_for_zero_tension,
    diagrams_agree,
    emit_episode_csv,
    max_device_force,
    moment_arm,
    oracle_scan,
    predict_at_length,
    predict_behavior,
    predict_with_device,
    simulate_growth,
    simulate_retraction,
    solve_device_row,
    solve_pressure_row,
    tail_tension_to_invert,
    transition_length,
)

BODY = BodySpec()
DEVICE = DeviceSpec()
KAPPAS = [0.0, 1 / 4.55, 1 / 2.25, 1 / 0.72]
DEVICE_CASES = [(None, 1.0), (DEVICE, 1.0), (DEVICE, 0.5), (DEVICE, 0.0)]


def request(kappa, device=None, efficiency=1.0, lengths=AxisRange(0.0, 3.0, 13)):
    return SweepRequest(
        body=BODY,
        curvature=kappa,
        pressure_range=AxisRange(0.0, 10e3, 17),
        length_range=lengths,
        device=device,
        efficiency=efficiency,
    )


class TestGridRows:
    @pytest.mark.parametrize("kappa", KAPPAS)
    @pytest.mark.parametrize("device,efficiency", DEVICE_CASES)
    def test_cells_equal_per_cell_predictions(self, kappa, device, efficiency):
        diagram = classify_grid(request(kappa, device, efficiency))
        for pressure, row in zip(diagram.pressures, diagram.grid):
            for length, cell in zip(diagram.lengths, row):
                state = RobotState(length=length, pressure=pressure, curvature=kappa)
                if device is None:
                    expected = predict_behavior(BODY, state)
                else:
                    expected = predict_with_device(BODY, device, state, efficiency)
                assert cell == expected

    @pytest.mark.parametrize("kappa", KAPPAS)
    def test_device_grid_has_covered_and_saturated_rows(self, kappa):
        diagram = classify_grid(request(kappa, DEVICE, 1.0))
        covered = [math.isinf(row[0].limiting_force) for row in diagram.grid]
        assert any(covered) and not all(covered)

    @pytest.mark.parametrize("kappa", KAPPAS)
    def test_transition_curve_equals_transition_length(self, kappa):
        diagram = classify_grid(request(kappa))
        expected = []
        for pressure in diagram.pressures:
            critical = transition_length(BODY, pressure, kappa)
            if critical is not None:
                expected.append((pressure, critical))
        assert expected
        assert diagram.transition_curve == expected

    def test_negative_length_axis_still_rejected(self):
        lengths = AxisRange(-0.5, 3.0, 4)
        assert lengths.centers()[0] < 0
        with pytest.raises(ValueError):
            classify_grid(request(0.0, lengths=lengths))
        with pytest.raises(ValueError):
            classify_grid(request(0.0, DEVICE, lengths=lengths))

    @pytest.mark.parametrize("kappa", KAPPAS)
    @pytest.mark.parametrize("device,efficiency", DEVICE_CASES)
    def test_oracle_rows_agree(self, kappa, device, efficiency):
        req = request(kappa, device, efficiency)
        assert diagrams_agree(classify_grid(req), oracle_scan(req))


class TestRowFunctions:
    def test_row_is_length_independent(self):
        required = tail_tension_to_invert(BODY, 5e3)
        row = solve_pressure_row(BODY, 5e3, 1 / 2.25, required)
        assert row.model_used is ModelUsed.CURVED
        assert row.critical_length == transition_length(BODY, 5e3, 1 / 2.25)
        for length in (0.0, 0.3, 1.2, 4.0, 20.0):
            state = RobotState(length=length, pressure=5e3, curvature=1 / 2.25)
            assert predict_at_length(row, length) == predict_behavior(BODY, state)

    def test_no_critical_length_below_minimum_pressure(self):
        row = solve_pressure_row(BODY, 100.0, 0.0, tail_tension_to_invert(BODY, 100.0))
        assert row.transition is None and row.critical_length is None

    def test_covered_device_row_is_grounded(self):
        force, row = solve_device_row(BODY, DEVICE, 2e3, 0.0)
        assert row == solve_pressure_row(BODY, 2e3, 0.0, 0.0, grounded=True)
        assert row.grounded and row.required_tension == 0.0 and row.critical_length is None
        assert force == device_force_for_zero_tension(BODY, DEVICE, 2e3)
        cell = predict_at_length(row, 30.0)
        assert cell.verdict is Verdict.INVERT and math.isinf(cell.limiting_force)

    def test_bare_row_applies_no_force(self):
        force, row = solve_device_row(BODY, None, 2e3, 0.0)
        assert force == 0.0
        assert row == solve_pressure_row(BODY, 2e3, 0.0, tail_tension_to_invert(BODY, 2e3))

    @pytest.mark.parametrize("pressure", [0.0, 2e3, 5.9e3, 6.2e3, 12e3])
    @pytest.mark.parametrize("efficiency", [0.0, 0.4, 1.0])
    def test_saturation_rule(self, pressure, efficiency):
        force, residual = device_assist(BODY, DEVICE, pressure, efficiency)
        available = efficiency * max_device_force(DEVICE)
        needed = device_force_for_zero_tension(BODY, DEVICE, pressure)
        assert force == min(needed, available)
        assert force == applied_device_force(BODY, DEVICE, pressure, efficiency)
        assert (residual is None) == (needed <= available)
        if residual is not None:
            assert residual > 0.0

    def test_saturation_rule_rejects_bad_efficiency(self):
        with pytest.raises(ValueError):
            device_assist(BODY, DEVICE, 2e3, 1.5)

    def test_clamped_moment_arm(self):
        kappa = 1 / 0.72
        assert clamped_moment_arm(BODY, kappa, 1.0) == moment_arm(BODY, kappa, 1.0)
        assert clamped_moment_arm(BODY, kappa, 10.0) == BODY.radius + 2.0 / kappa
        with pytest.raises(ValueError):
            clamped_moment_arm(BODY, kappa, -0.1)
        with pytest.raises(ValueError):
            clamped_moment_arm(BODY, 0.0, 1.0)


def _episode(mode, **kwargs):
    if mode == "grow":
        scenario = Scenario(body=BODY, initial_length=0.2, target_length=3.0, step=0.01, **kwargs)
        return simulate_growth(scenario)
    scenario = Scenario(body=BODY, initial_length=3.0, step=0.01, **kwargs)
    return simulate_retraction(scenario)


class TestEpisodeRows:
    @pytest.mark.parametrize("mode", ["retract", "grow"])
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"curvature": 0.0},
            {"curvature": 1 / 2.25},
            {"curvature": 1 / 0.72},
            {"curvature": 0.0, "device": DEVICE},
            {"curvature": 1 / 2.25, "device": DEVICE, "efficiency": 0.3},
        ],
    )
    @pytest.mark.parametrize("pressure", [1.5e3, 2e3, 7e3])
    def test_constant_pressure_equals_flat_schedule(self, mode, kwargs, pressure):
        constant = _episode(mode, pressure=pressure, **kwargs)
        flat = _episode(mode, pressure_points=((0.0, pressure), (3.0, pressure)), **kwargs)
        assert constant.steps
        assert repr(constant.steps) == repr(flat.steps)
        assert constant.terminal == flat.terminal
        assert emit_episode_csv(constant) == emit_episode_csv(flat)


class TestNonFiniteInputs:
    def test_nan_length_is_rejected_not_inverted(self):
        # it used to predict INVERT
        with pytest.raises(ValueError):
            RobotState(length=math.nan, pressure=2e3)

    @pytest.mark.parametrize("field", ["length", "pressure", "curvature"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_state_fields(self, field, value):
        kwargs = {"length": 1.0, "pressure": 2e3, "curvature": 0.0, field: value}
        with pytest.raises(ValueError):
            RobotState(**kwargs)

    def test_nan_pressure_transition_is_an_input_error(self):
        # it used to raise CrossCheckError, which reports an implementation bug
        with pytest.raises(ValueError):
            transition_length(BODY, math.nan, 0.444)

    @pytest.mark.parametrize(
        "pressure,curvature", [(math.nan, 0.0), (math.inf, 0.0), (2e3, math.nan), (2e3, math.inf)]
    )
    @pytest.mark.parametrize("grounded", [False, True])
    def test_row_solver(self, pressure, curvature, grounded):
        with pytest.raises(ValueError):
            solve_pressure_row(BODY, pressure, curvature, 5.0, grounded=grounded)

    @pytest.mark.parametrize("length", [math.nan, math.inf, -1.0])
    def test_row_length(self, length):
        row = solve_pressure_row(BODY, 2e3, 0.0, tail_tension_to_invert(BODY, 2e3))
        with pytest.raises(ValueError):
            predict_at_length(row, length)

    def test_nan_step_scenario_is_rejected(self):
        # the episode never ended; only the constructor runs here
        with pytest.raises(ValueError):
            Scenario(body=BODY, initial_length=1.0, pressure=2e3, step=math.nan)

    def test_infinite_initial_length_with_device_is_rejected(self):
        # the episode never ended; only the constructor runs here
        with pytest.raises(ValueError):
            Scenario(body=BODY, initial_length=math.inf, pressure=2e3, device=DEVICE)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"pressure": math.nan},
            {"pressure": math.inf},
            {"pressure": 2e3, "curvature": math.nan},
            {"pressure": 2e3, "target_length": math.inf},
            {"pressure_points": ((0.0, 1e3), (1.0, math.nan))},
            {"pressure_points": ((0.0, 1e3), (math.inf, 2e3))},
        ],
    )
    def test_scenario_fields(self, kwargs):
        with pytest.raises(ValueError):
            Scenario(body=BODY, initial_length=1.0, **kwargs)

    def test_grid_with_nan_curvature_is_an_input_error(self):
        with pytest.raises(ValueError):
            classify_grid(request(math.nan))
        with pytest.raises(ValueError):
            classify_grid(request(math.nan, DEVICE))
