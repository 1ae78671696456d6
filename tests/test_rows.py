"""Per-pressure row solver: the row paths of the grid, the oracle and the
simulator give what the per-cell predictors give, and non-finite inputs are
rejected before any row is solved."""

import math

import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st
from test_sweep import RANDOM_BODIES, log_uniform

from vinebuckle import (
    AxisRange,
    BodySpec,
    DeviceSpec,
    FailureMode,
    ModelUsed,
    RobotState,
    Scenario,
    SweepRequest,
    TerminalKind,
    Verdict,
    axial_buckling_force,
    classify_grid,
    clamped_moment_arm,
    crushing_force,
    curved_transition_bisect,
    curved_transition_length,
    device_assist,
    device_force_for_zero_tension,
    diagrams_agree,
    emit_episode_csv,
    max_device_force,
    mechanics,
    min_inversion_pressure,
    oracle_scan,
    predict_behavior,
    predict_with_device,
    sim,
    simulate_growth,
    simulate_retraction,
    straight_transition_bisect,
    tail_tension_to_invert,
    tail_tension_with_device,
    transition_length,
)
from vinebuckle.mechanics import (
    CrossCheckError,
    PressureRow,
    length_terms_unchecked,
    oracle_row_unchecked,
    predict_row,
    solve_pressure_row_unchecked,
    verdict_at_unchecked,
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
        # the oracle used to accept them on straight-modeled rows and on
        # grounded device rows; below the minimum inversion pressure (~1.23
        # kPa) every curved row is straight-modeled, and below ~5.96 kPa
        # every device row is grounded
        for kappa, device, p_hi in (
            (0.0, None, 10e3),
            (1 / 2.25, None, 10e3),
            (1 / 2.25, None, 1e3),
            (0.0, DEVICE, 10e3),
            (1 / 2.25, DEVICE, 4e3),
        ):
            with pytest.raises(ValueError, match="length"):
                SweepRequest(BODY, kappa, AxisRange(0.0, p_hi, 3), lengths, device)

    @pytest.mark.parametrize("kappa", [0.0, 1 / 2.25])
    @pytest.mark.parametrize("device", [None, DEVICE])
    def test_lengths_are_checked_when_the_request_is_built(self, monkeypatch, kappa, device):
        # the centers ascend, so the first and the last bound them all; the
        # scans check nothing
        checked = []
        check = mechanics.units.check

        def counting(name, value, *args, **kwargs):
            checked.append((name, value))
            return check(name, value, *args, **kwargs)

        monkeypatch.setattr(mechanics.units, "check", counting)
        lengths = AxisRange(0.0, 3.0, 100)
        req = SweepRequest(BODY, kappa, AxisRange(0.0, 10e3, 100), lengths, device)
        centers = lengths.centers()
        assert [value for name, value in checked if name == "length"] == [
            centers[0], centers[-1]
        ]
        for scan in (classify_grid, oracle_scan):
            checked.clear()
            assert len(scan(req).grid) == 100
            assert checked == []

    @pytest.mark.parametrize("device", [None, DEVICE], ids=["bare", "device"])
    @pytest.mark.parametrize(
        # the first center is negative, or below the 1e-6 Pa floor; the last is
        # above the 1e30 Pa box; a span that overflows puts every center at inf
        "pressures",
        [AxisRange(-10e3, 10e3, 4), AxisRange(0.0, 1e-6, 4), AxisRange(2e30, 4e30, 2),
         AxisRange(-1.7e308, 1.7e308, 2)],
        ids=["negative", "floor", "box", "inf"],
    )
    def test_each_row_pressure_is_checked(self, device, pressures):
        with pytest.raises(ValueError, match=r"^pressure must be finite and in \[0, 1e\+30\]"):
            SweepRequest(BODY, 0.444, pressures, AxisRange(0.0, 3.0, 4), device)

    def test_length_above_the_box_is_rejected(self):
        with pytest.raises(ValueError, match=r"^length must be finite and in \[0, 1e\+06\]"):
            SweepRequest(BODY, 0.0, AxisRange(0.0, 10e3, 4), AxisRange(0.0, 3e6, 1))

    def test_length_is_named_before_pressure(self):
        with pytest.raises(ValueError, match="^length"):
            SweepRequest(BODY, 0.0, AxisRange(-10e3, 10e3, 4), AxisRange(-0.5, 3.0, 4))

    @pytest.mark.parametrize("kappa", KAPPAS)
    @pytest.mark.parametrize("device,efficiency", DEVICE_CASES)
    def test_oracle_rows_agree(self, kappa, device, efficiency):
        req = request(kappa, device, efficiency)
        assert diagrams_agree(classify_grid(req), oracle_scan(req))


class TestRowFunctions:
    def test_row_is_length_independent(self):
        required = tail_tension_to_invert(BODY, 5e3)
        row = solve_pressure_row_unchecked(BODY, 5e3, 1 / 2.25, required)
        assert row.model_used is ModelUsed.CURVED
        assert row.critical_length == transition_length(BODY, 5e3, 1 / 2.25)
        lengths = (0.0, 0.3, 1.2, 4.0, 20.0)
        cells = predict_row(row, length_terms_unchecked(BODY, 1 / 2.25, lengths))
        for length, cell in zip(lengths, cells):
            state = RobotState(length=length, pressure=5e3, curvature=1 / 2.25)
            assert cell_bits(cell) == cell_bits(predict_behavior(BODY, state))

    def test_no_critical_length_below_minimum_pressure(self):
        required = tail_tension_to_invert(BODY, 100.0)
        row = solve_pressure_row_unchecked(BODY, 100.0, 0.0, required)
        assert row.transition is None and row.critical_length is None

    def test_covered_device_row_is_grounded(self):
        force, required = device_assist(BODY, DEVICE, 2e3)
        row = solve_pressure_row_unchecked(BODY, 2e3, 0.0, required)
        assert required is None and row == solve_pressure_row_unchecked(BODY, 2e3, 0.0, None)
        assert row.grounded and row.required_tension == 0.0 and row.critical_length is None
        assert force == device_force_for_zero_tension(BODY, DEVICE, 2e3)
        assert predict_with_device(BODY, DEVICE, RobotState(30.0, 2e3)) == (
            Verdict.INVERT, FailureMode.NONE, 0.0, math.inf, math.inf, ModelUsed.STRAIGHT, False
        )

    def test_bare_row_applies_no_force(self):
        force, required = device_assist(BODY, None, 2e3)
        row = solve_pressure_row_unchecked(BODY, 2e3, 0.0, required)
        assert force == 0.0
        bare = solve_pressure_row_unchecked(BODY, 2e3, 0.0, tail_tension_to_invert(BODY, 2e3))
        assert row == bare

    @pytest.mark.parametrize("pressure", [0.0, 2e3, 5.9e3, 6.2e3, 12e3])
    @pytest.mark.parametrize("efficiency", [0.0, 0.4, 1.0])
    def test_saturation_rule(self, pressure, efficiency):
        force, residual = device_assist(BODY, DEVICE, pressure, efficiency)
        available = efficiency * max_device_force(DEVICE)
        needed = device_force_for_zero_tension(BODY, DEVICE, pressure)
        assert force == min(needed, available)
        assert (residual is None) == (needed <= available)
        # the same equations as the checked public functions, bit for bit
        if residual is None:
            assert force == device_force_for_zero_tension(BODY, DEVICE, pressure)
        else:
            assert residual == tail_tension_with_device(BODY, DEVICE, pressure, available)
            assert residual > 0.0

    def test_saturation_rule_rejects_bad_efficiency(self):
        with pytest.raises(ValueError):
            device_assist(BODY, DEVICE, 2e3, 1.5)

    @pytest.mark.parametrize("pressure", [0.0, 2e3, 12e3])
    def test_bare_assist_is_the_bare_tension(self, pressure):
        force, required = device_assist(BODY, None, pressure)
        assert (float.hex(force), float.hex(required)) == (
            float.hex(0.0), float.hex(tail_tension_to_invert(BODY, pressure))
        )

    @pytest.mark.parametrize("efficiency", [math.nan, -0.1, 1.5, math.inf])
    def test_efficiency_is_checked_without_a_device(self, efficiency):
        # it was ignored on the bare path; it is checked before any row is solved
        with pytest.raises(ValueError, match="efficiency"):
            device_assist(BODY, None, 2e3, efficiency)

    @pytest.mark.parametrize("kappa", [0.0, 1e-6, 2e-6, 0.444])
    def test_grounded_oracle_row(self, kappa):
        lengths = [0.0, 0.5, 3.0, 20.0]
        cells = oracle_row_unchecked(
            BODY, 2e3, kappa, None, tuple(length_terms_unchecked(BODY, kappa, lengths))
        )
        assert len(cells) == len(lengths) and len({id(cell) for cell in cells}) == 1
        model = solve_pressure_row_unchecked(BODY, 2e3, kappa, None).model_used
        assert model is (ModelUsed.STRAIGHT if kappa < 1e-6 else ModelUsed.CURVED)
        assert cell_bits(cells[0]) == cell_bits(
            (Verdict.INVERT, FailureMode.NONE, 0.0, math.inf, math.inf, model, False)
        )

    def test_clamped_moment_arm(self):
        kappa = 1 / 0.72
        assert clamped_moment_arm(BODY, kappa, 1.0) == pytest.approx(
            BODY.radius + (1.0 - math.cos(kappa)) / kappa, rel=1e-12
        )
        assert clamped_moment_arm(BODY, kappa, 10.0) == BODY.radius + 2.0 / kappa
        with pytest.raises(ValueError):
            clamped_moment_arm(BODY, kappa, -0.1)
        with pytest.raises(ValueError):
            clamped_moment_arm(BODY, 0.0, 1.0)


# (pressure, curvature, device, model): one row of each kind that
# solve_pressure_row_unchecked builds by position
BUILT_ROWS = {
    "bare straight": (2e3, 0.0, None, ModelUsed.STRAIGHT),
    "curved": (5e3, 1 / 2.25, None, ModelUsed.CURVED),
    "curved unreachable, flagged": (5e3, 100.0, None, ModelUsed.STRAIGHT),
    "grounded": (2e3, 0.0, DEVICE, ModelUsed.STRAIGHT),
}


class TestBuiltRows:
    @pytest.mark.parametrize("name", sorted(BUILT_ROWS))
    def test_row_equals_the_generated_constructor(self, name):
        # tuple.__new__ applies no defaults, so a row built with a field
        # dropped would be a shorter tuple that no default fills in
        pressure, curvature, device, model = BUILT_ROWS[name]
        _, required = device_assist(BODY, device, pressure)
        row = solve_pressure_row_unchecked(BODY, pressure, curvature, required)
        grounded, flagged = name == "grounded", name.endswith("flagged")
        if grounded:
            transition = math.inf
        elif model is ModelUsed.CURVED:
            transition = curved_transition_length(BODY, pressure, curvature)
        else:
            transition = transition_length(BODY, pressure)
        flags = {"extrapolated": True} if flagged else {"grounded": True} if grounded else {}
        expected = PressureRow(
            BODY, pressure, curvature, 0.0 if grounded else required, model, transition, **flags
        )
        assert type(row) is PressureRow and len(row) == 8
        for field in PressureRow._fields:
            assert getattr(row, field) == getattr(expected, field), field
        assert repr(row) == repr(expected)
        assert row.grounded is grounded and row.extrapolated is flagged


def reference_axial(body, pressure, length):
    """The axial buckling force spelled out from the body's fields, each
    product left to right as ``BodySpec._constants`` takes it: it shares no
    code with the library's force, so a fault there moves the kernels only."""
    e, g, r, t = body.youngs_modulus, body.shear_modulus, body.radius, body.wall_thickness
    k2 = e * g * math.pi**3 * r**3 * t * t
    num = e * math.pi**3 * r**4 * t * pressure + k2 if pressure else k2
    return num / (e * math.pi**2 * r**2 * t + (r * pressure + g * t) * length * length)


def reference_cell(row, length):
    """One cell as the per-length predictor evaluated it before rows were
    evaluated lazily: every force formula inline, nothing kept per row."""
    body, pressure, curvature, required, model, _, extrapolated, grounded = row
    if curvature > 0 and curvature * length > math.pi:
        extrapolated = True
    if grounded:
        mode, limit = FailureMode.NONE, math.inf
    elif model is ModelUsed.STRAIGHT:
        mode, limit = FailureMode.CRUSH, pressure * body.cross_section_area
        if length > 0:
            axial = reference_axial(body, pressure, length)
            if axial < limit:
                mode, limit = FailureMode.AXIAL_BUCKLE, axial
    else:
        mode = FailureMode.TRANSVERSE_BUCKLE
        limit = (
            pressure
            * body.cross_section_area
            * body.radius
            / clamped_moment_arm(body, curvature, length)
        )
    if required < limit:
        verdict, mode = Verdict.INVERT, FailureMode.NONE
    else:
        verdict = Verdict.BUCKLE
    return verdict, mode, required, limit, limit - required, model, extrapolated


def cell_bits(cell):
    """A cell with each force as its exact text, so that -0.0 and 0.0 differ."""
    verdict, mode, required, limit, margin, model, extrapolated = cell
    assert type(extrapolated) is bool
    return verdict, mode, *map(float.hex, (required, limit, margin)), model, extrapolated


def row_lengths(l_hi, steps):
    return [0.0, *AxisRange(0.0, l_hi, steps).centers()]


# (device, efficiency, pressure / minimum inversion pressure, curvature, l_hi)
# on the reference body, one per row and cell kind that predict_row tells apart
ROW_CASES = {
    "bare straight, crush- then axial-bound": (None, 1.0, 4.0, 0.0, 3.0),
    "saturated device": (DEVICE, 0.3, 4.0, 0.0, 3.0),
    "grounded device": (DEVICE, 1.0, 1.6, 0.0, 3.0),
    "grounded device, curved past pi": (DEVICE, 1.0, 1.6, 1 / 0.72, 3.0),
    "curved body on the straight model, flag flips at pi/kappa": (None, 1.0, 0.4, 1 / 0.72, 3.0),
    "curved model past kappa*L = pi": (None, 1.0, 4.0, 1 / 0.72, 3.0),
}


def case_row(body, device, efficiency, p_scale, curvature):
    pressure = min_inversion_pressure(body) * p_scale
    _, required = device_assist(body, device, pressure, efficiency)
    return solve_pressure_row_unchecked(body, pressure, curvature, required)


def row_case_examples(test):
    for device, efficiency, p_scale, curvature, l_hi in ROW_CASES.values():
        test = example(
            body=BODY, device_efficiency=(device, efficiency), p_scale=p_scale,
            curvature=curvature, l_hi=l_hi, steps=24,
        )(test)
    return test


class TestPredictRow:
    @row_case_examples
    @example(  # a row flagged from the start: curved buckling is unreachable at 100 /m
        body=BODY, device_efficiency=(None, 1.0), p_scale=4.0, curvature=100.0, l_hi=3.0,
        steps=24,
    )
    @given(
        body=st.just(BODY) | RANDOM_BODIES,
        device_efficiency=st.just((None, 1.0)) | st.tuples(st.just(DEVICE), st.floats(0.0, 1.0)),
        p_scale=st.just(0.0) | log_uniform(-1.0, 1.5),
        curvature=st.just(0.0) | log_uniform(-5.0, 1.5),
        l_hi=log_uniform(-1.3, 1.0),
        steps=st.integers(1, 25),
    )
    def test_cells_have_the_per_length_bits(
        self, body, device_efficiency, p_scale, curvature, l_hi, steps
    ):
        # every cell is what the per-length predictor gave, bit for bit, and
        # two neighbors are one object only where those cells are identical
        device, efficiency = device_efficiency
        row = case_row(body, device, efficiency, p_scale, curvature)
        lengths = row_lengths(l_hi, steps)
        cells = list(predict_row(row, length_terms_unchecked(body, curvature, lengths)))
        expected = [cell_bits(reference_cell(row, length)) for length in lengths]
        assert [cell_bits(cell) for cell in cells] == expected
        for j in range(1, len(cells)):
            if cells[j] is cells[j - 1]:
                assert expected[j] == expected[j - 1]

    @pytest.mark.parametrize("name", sorted(ROW_CASES))
    def test_row_cases_cover_their_kind(self, name):
        device, efficiency, p_scale, curvature, l_hi = ROW_CASES[name]
        row = case_row(BODY, device, efficiency, p_scale, curvature)
        lengths = row_lengths(l_hi, 24)
        cells = list(predict_row(row, length_terms_unchecked(BODY, curvature, lengths)))
        past = [curvature * length > math.pi for length in lengths]
        crush = [cell.limiting_force == row.pressure * BODY.cross_section_area for cell in cells]
        shared = sum(b is a for a, b in zip(cells, cells[1:]))
        if device is None:
            assert not row.grounded and row.required_tension > 0
        elif efficiency < 1.0:
            assert not row.grounded and row.required_tension > 0  # saturated
            assert any(crush) and not all(crush)
        else:
            assert row.grounded and len({id(cell) for cell in cells}) == 1 + any(past)
        if name.startswith("bare straight"):
            assert crush[0] and not crush[-1] and shared > 0
            assert cells[-1].mode is FailureMode.AXIAL_BUCKLE
        if "flag flips" in name:
            assert row.model_used is ModelUsed.STRAIGHT and any(past) and not all(past)
            assert [cell.extrapolated for cell in cells] == past
            assert shared == len(cells) - 2  # one crush cell per flag
        if name.startswith("curved model"):
            assert row.model_used is ModelUsed.CURVED and any(past) and not all(past)
            tail = [cell for cell, beyond in zip(cells, past) if beyond]
            assert len({id(cell) for cell in tail}) == 1 and tail[0].extrapolated

    @staticmethod
    def counted_lengths(monkeypatch):
        """The lengths at which the simulator calls the verdict kernel."""
        seen, kernel = [], sim.verdict_at_unchecked

        def counting(body, pressure, curvature, required, length):
            seen.append(length)
            return kernel(body, pressure, curvature, required, length)

        monkeypatch.setattr(sim, "verdict_at_unchecked", counting)
        return seen

    def test_retraction_evaluates_no_tip_past_its_first_buckle(self, monkeypatch):
        seen = self.counted_lengths(monkeypatch)
        log = simulate_retraction(Scenario(body=BODY, initial_length=3.0, pressure=2e3))
        assert log.terminal.kind is TerminalKind.BUCKLED and len(log.steps) == 1
        assert seen == [3.0]

    def test_a_full_retraction_evaluates_its_first_tip_only(self, monkeypatch):
        seen = self.counted_lengths(monkeypatch)
        log = simulate_retraction(Scenario(body=BODY, initial_length=1.0, pressure=2e3))
        assert log.terminal.kind is TerminalKind.FULLY_RETRACTED and len(log.steps) == 100
        assert seen == [1.0]

    @pytest.mark.parametrize("target", [0.21, 0.3, 1.0, 2.39, 2.4, 2.9, 5.0])
    def test_growth_bisects_its_tips(self, monkeypatch, target):
        # a growth from 0.2 m buckles only past the 2 kPa transition (2.39 m),
        # and takes ceil(log2(n + 1)) kernel calls for n tips either way
        seen = self.counted_lengths(monkeypatch)
        log = simulate_growth(
            Scenario(body=BODY, initial_length=0.2, target_length=target, pressure=2e3)
        )
        n = len(log.steps)
        buckles = target > transition_length(BODY, 2e3)
        assert (log.terminal.kind is TerminalKind.BUCKLED) is buckles
        assert 0 < len(seen) <= math.ceil(math.log2(n + 1))
        assert set(seen) <= {step.tip_position for step in log.steps}


# Bodies from 3 mm to 20 cm in radius, 10-316 um walls, E over 2.5 decades,
# G over 2 and F_I from 0.1 to 32 N
FLIP_BODIES = st.builds(
    BodySpec,
    radius=log_uniform(math.log10(3e-3), math.log10(0.2)),
    wall_thickness=log_uniform(-5.0, -3.5),
    youngs_modulus=log_uniform(7.25, 9.75),
    shear_modulus=log_uniform(7.3, 9.3),
    inversion_force=log_uniform(-1.0, 1.5),
)


def in_the_cross_check_band(curvature, p_scale):
    """Whether a curved row's pressure is within 1% above the minimum
    inversion pressure, where the shape properties below skip their draws.

    Near the straightness threshold and just above the minimum inversion
    pressure, the curved closed form can miss the bisection root and raise
    CrossCheckError (test_near_straight_small_body_has_a_transition), a
    defect these properties do not test. So a curvature is 0 or at least
    1e-5 /m, and a curved row's pressure is not within 1% above the minimum
    inversion pressure: at 1e-5 /m the defect still reaches 1.0009 times it
    on a 3 mm body.
    """
    return curvature != 0.0 and 1.0 < p_scale <= 1.01


class TestOneFlipPerRow:
    @example(body=BODY, device_efficiency=(None, 1.0), p_scale=4.0, curvature=0.0)
    @example(body=BODY, device_efficiency=(DEVICE, 0.3), p_scale=4.0, curvature=1 / 0.72)
    @given(
        body=FLIP_BODIES,
        device_efficiency=st.just((None, 1.0)) | st.tuples(st.just(DEVICE), st.floats(0.0, 1.0)),
        p_scale=log_uniform(math.log10(0.6), 3.0),
        curvature=st.just(0.0) | log_uniform(-5.0, 1.0),
    )
    def test_verdicts_flip_once_at_the_transition(
        self, body, device_efficiency, p_scale, curvature
    ):
        # a shape check that needs no solver: the verdicts of 201 lengths,
        # bare or behind the device, run INVERT then BUCKLE and change where
        # the row's transition says
        assume(not in_the_cross_check_band(curvature, p_scale))
        device, efficiency = device_efficiency
        row = case_row(body, device, efficiency, p_scale, curvature)
        critical = row.critical_length
        l_hi = 3.0 * critical if critical else 30.0
        lengths = [l_hi * i / 200 for i in range(201)]
        cells = predict_row(row, length_terms_unchecked(body, curvature, lengths))
        verdicts = [cell.verdict for cell in cells]
        inverting = verdicts.count(Verdict.INVERT)
        assert verdicts == [Verdict.INVERT] * inverting + [Verdict.BUCKLE] * (201 - inverting)
        transition = row.transition
        for length, verdict in zip(lengths, verdicts):
            if transition is None:
                assert verdict is Verdict.BUCKLE
            elif length < transition * (1.0 - 1e-9):
                assert verdict is Verdict.INVERT
            elif length > transition * (1.0 + 1e-9):
                assert verdict is Verdict.BUCKLE


def ulp_neighbours(x, count=64):
    """x and the floats 1 to ``count`` ulps either side of it."""
    lengths, below, above = [x], x, x
    for _ in range(count):
        below, above = math.nextafter(below, -math.inf), math.nextafter(above, math.inf)
        lengths += [below, above]
    return lengths


class TestLimitNeverRises:
    # The property a constant-pressure episode's flip search rests on: in
    # floating point, neither model's limiting force rises with length, so
    # each model's verdicts along increasing length flip at most once, and
    # so do a row's.
    @example(body=BODY, device_efficiency=(None, 1.0), p_scale=4.0, curvature=0.0)
    @example(body=BODY, device_efficiency=(None, 1.0), p_scale=4.0, curvature=1 / 0.72)
    @example(body=BODY, device_efficiency=(DEVICE, 0.3), p_scale=4.0, curvature=1 / 2.25)
    @given(
        body=FLIP_BODIES,
        device_efficiency=st.just((None, 1.0)) | st.tuples(st.just(DEVICE), st.floats(0.0, 1.0)),
        p_scale=log_uniform(math.log10(0.6), 3.0),
        curvature=st.just(0.0) | log_uniform(-5.0, 1.0),
    )
    def test_limit_never_rises_with_length(self, body, device_efficiency, p_scale, curvature):
        # a grid of lengths, plus the floats within 64 ulps of kappa*L = pi,
        # of the row's transition and of the straight crush/axial crossover;
        # the row's limits from the row evaluator, and each model's from its
        # helper, which the verdict kernel calls
        assume(not in_the_cross_check_band(curvature, p_scale))
        device, efficiency = device_efficiency
        row = case_row(body, device, efficiency, p_scale, curvature)
        pressure = row.pressure
        marks = [row.critical_length]
        if curvature:
            marks.append(math.pi / curvature)
        num, den_const, den_slope = mechanics._axial_terms(body, pressure)
        pa = pressure * body.cross_section_area
        if pa > 0 and num / pa > den_const:
            marks.append(math.sqrt((num / pa - den_const) / den_slope))
        marks = [mark for mark in marks if mark]
        l_hi = 2.0 * max(marks, default=15.0)
        lengths = [l_hi * i / 200 for i in range(201)]
        for mark in marks:
            lengths += ulp_neighbours(mark)
        lengths.sort()
        cells = predict_row(row, length_terms_unchecked(body, curvature, lengths))
        for limits in (
            [cell.limiting_force for cell in cells],
            [mechanics._straight_limit(body, pressure, length) for length in lengths],
            [mechanics._curved_limit(body, pressure, curvature, length) for length in lengths],
        ):
            assert all(b <= a for a, b in zip(limits, limits[1:]))

    def test_examples_cover_both_models_past_pi(self):
        straight = case_row(BODY, None, 1.0, 4.0, 0.0)
        assert straight.model_used is ModelUsed.STRAIGHT and straight.critical_length
        for device, efficiency, curvature in [(None, 1.0, 1 / 0.72), (DEVICE, 0.3, 1 / 2.25)]:
            curved = case_row(BODY, device, efficiency, 4.0, curvature)
            assert curved.model_used is ModelUsed.CURVED and not curved.grounded
            assert curved.critical_length < math.pi / curvature


def model_verdict(body, pressure, curvature, required, model, length):
    """One model's verdict at one length: the row evaluator on a row that
    names that model, whatever the row solver would pick."""
    row = PressureRow(body, pressure, curvature, required, model, None)
    (cell,) = predict_row(row, length_terms_unchecked(body, curvature, (length,)))
    return cell.verdict


def kernel_lengths(body, pressure, curvature, required):
    """0 m, a grid, and the floats within 64 ulps of each model's
    transition (by its bisection kernel) and of kappa*L = pi."""
    marks = []
    if required is not None:
        marks.append(mechanics._straight_bisect_for(body, pressure, required))
        marks.append(mechanics._curved_bisect_for(body, pressure, curvature, required))
    if curvature:
        marks.append(math.pi / curvature)
    marks = [mark for mark in marks if mark and not math.isinf(mark)]
    l_hi = 2.0 * max(marks, default=15.0)
    lengths = [l_hi * i / 100 for i in range(101)]
    for mark in marks:
        lengths += ulp_neighbours(mark)
    return sorted(lengths)


def check_verdict_kernel(body, pressure, curvature, required):
    """The kernel's verdict is the solved row's at every length. Where the
    row solver raises CrossCheckError, the kernel gives the verdict both
    models agree on, and raises only where they differ."""
    try:
        row = solve_pressure_row_unchecked(body, pressure, curvature, required)
    except CrossCheckError:
        row = None
    lengths = kernel_lengths(body, pressure, curvature, required)
    if row is not None:
        cells = predict_row(row, length_terms_unchecked(body, curvature, lengths))
        for length, cell in zip(lengths, cells):
            assert verdict_at_unchecked(body, pressure, curvature, required, length) is cell.verdict
        return
    for length in lengths:
        straight, curved = (
            model_verdict(body, pressure, curvature, required, model, length)
            for model in (ModelUsed.STRAIGHT, ModelUsed.CURVED)
        )
        if straight is curved:
            assert verdict_at_unchecked(body, pressure, curvature, required, length) is straight
        else:
            with pytest.raises(CrossCheckError):
                verdict_at_unchecked(body, pressure, curvature, required, length)


# the near-straight defect of the curved closed form: the row solver raises
NEAR_STRAIGHT_DEFECT = (BodySpec(radius=0.001), 2238721.138568338, 1e-6)
BELOW_STRAIGHT = math.nextafter(mechanics.KAPPA_STRAIGHT, 0.0)

# (device_efficiency, p_scale, curvature) on the reference body
KERNEL_CASES = {
    "bare straight": ((None, 1.0), 4.0, 0.0),
    "bare curved past kappa*L = pi": ((None, 1.0), 4.0, 1 / 0.72),
    "saturated curved": ((DEVICE, 0.3), 4.0, 1 / 2.25),
    "grounded curved": ((DEVICE, 1.0), 1.6, 1 / 0.72),
    "required above P*A": ((None, 1.0), 0.6, 1 / 2.25),
    "curved unreachable": ((None, 1.0), 4.0, 100.0),
    "at the straightness threshold": ((None, 1.0), 4.0, mechanics.KAPPA_STRAIGHT),
    "just below the straightness threshold": ((None, 1.0), 4.0, BELOW_STRAIGHT),
}


def kernel_case_examples(test):
    for device_efficiency, p_scale, curvature in KERNEL_CASES.values():
        test = example(
            body=BODY, device_efficiency=device_efficiency, p_scale=p_scale, curvature=curvature
        )(test)
    return test


class TestVerdictKernel:
    # An episode step keeps only the verdict, so it asks the verdict
    # kernel, which solves the row only where the two models disagree.
    @kernel_case_examples
    @given(
        body=st.just(BODY) | FLIP_BODIES,
        device_efficiency=st.just((None, 1.0))
        | st.tuples(st.just(DEVICE), st.just(1.0) | st.floats(0.0, 1.0)),
        p_scale=st.just(0.0) | log_uniform(math.log10(0.3), 3.0),
        curvature=st.sampled_from([0.0, mechanics.KAPPA_STRAIGHT, BELOW_STRAIGHT])
        | log_uniform(-5.0, math.log10(50.0)),
    )
    def test_verdict_is_the_row_verdict(self, body, device_efficiency, p_scale, curvature):
        device, efficiency = device_efficiency
        pressure = min_inversion_pressure(body) * p_scale
        _, required = device_assist(body, device, pressure, efficiency)
        check_verdict_kernel(body, pressure, curvature, required)

    def test_near_straight_defect_raises_only_where_the_models_differ(self):
        body, pressure, curvature = NEAR_STRAIGHT_DEFECT
        required = tail_tension_to_invert(body, pressure)
        with pytest.raises(CrossCheckError):
            solve_pressure_row_unchecked(body, pressure, curvature, required)
        check_verdict_kernel(body, pressure, curvature, required)
        assert verdict_at_unchecked(body, pressure, curvature, required, 0.005) is Verdict.INVERT
        assert verdict_at_unchecked(body, pressure, curvature, required, 3.0) is Verdict.BUCKLE

    def test_zero_length_is_crush_bound_where_the_axial_force_rounds_below_p_a(self):
        # at zero length the axial force is P*A + pi*R*G*t; on this body at
        # 4.1e24 Pa it rounds one ulp below P*A, and the straight limit there
        # is still crushing, as in the row evaluator and the oracle
        body = BodySpec(
            radius=0.0015501785793556322, wall_thickness=0.00036460906775280316,
            youngs_modulus=9103828330.139704, shear_modulus=2259812.322329497,
        )
        pressure = 4.131175775371197e24
        axial = mechanics._axial_force(body, pressure, 0.0)
        crush = pressure * body.cross_section_area
        assert axial < crush
        assert mechanics._straight_limit(body, pressure, 0.0) == crush
        row = PressureRow(body, pressure, 0.0, axial, ModelUsed.STRAIGHT, None)
        (cell,) = predict_row(row, length_terms_unchecked(body, 0.0, (0.0,)))
        assert cell.limiting_force == crush and cell.verdict is Verdict.INVERT
        assert verdict_at_unchecked(body, pressure, 0.0, axial, 0.0) is Verdict.INVERT

    @pytest.mark.parametrize("name", sorted(KERNEL_CASES))
    def test_kernel_cases_cover_their_kind(self, name):
        (device, efficiency), p_scale, curvature = KERNEL_CASES[name]
        row = case_row(BODY, device, efficiency, p_scale, curvature)
        pa = row.pressure * BODY.cross_section_area
        if name == "bare straight":
            assert row.model_used is ModelUsed.STRAIGHT and row.critical_length
        elif name == "bare curved past kappa*L = pi":
            assert row.model_used is ModelUsed.CURVED
            assert row.critical_length < math.pi / curvature
        elif name == "saturated curved":
            assert not row.grounded and row.required_tension > 0
            assert row.model_used is ModelUsed.CURVED
        elif name == "grounded curved":
            assert row.grounded
        elif name == "required above P*A":
            assert row.required_tension > pa and row.transition is None
        elif name == "curved unreachable":
            assert row.extrapolated and row.model_used is ModelUsed.STRAIGHT
        elif name == "at the straightness threshold":
            # the curved transition is longer, so between the two the models
            # differ and the kernel solves the row, which is modeled straight
            assert curvature == mechanics.KAPPA_STRAIGHT
            assert row.model_used is ModelUsed.STRAIGHT
            required = row.required_tension
            assert any(
                model_verdict(BODY, row.pressure, curvature, required, ModelUsed.STRAIGHT, length)
                is not model_verdict(
                    BODY, row.pressure, curvature, required, ModelUsed.CURVED, length
                )
                for length in kernel_lengths(BODY, row.pressure, curvature, required)
            )
        else:
            assert curvature < mechanics.KAPPA_STRAIGHT
            assert row.model_used is ModelUsed.STRAIGHT

    @staticmethod
    def counted_rows(monkeypatch):
        """The (pressure, curvature) of each row the verdict kernel solves."""
        seen, solver = [], mechanics.solve_pressure_row_unchecked

        def counting(body, pressure, curvature, required):
            seen.append((pressure, curvature))
            return solver(body, pressure, curvature, required)

        monkeypatch.setattr(mechanics, "solve_pressure_row_unchecked", counting)
        return seen

    def test_a_scheduled_straight_episode_solves_no_row(self, monkeypatch):
        seen = self.counted_rows(monkeypatch)
        log = simulate_retraction(
            Scenario(body=BODY, initial_length=1.25, pressure_points=((0.0, 300.0), (1.25, 5e3)))
        )
        assert len(log.steps) > 100 and len({step.pressure for step in log.steps}) > 100
        assert log.terminal.kind is TerminalKind.BUCKLED
        assert seen == []

    @pytest.mark.parametrize("device,efficiency", [(None, 1.0), (DEVICE, 0.3)])
    def test_a_scheduled_curved_episode_solves_rows_where_the_models_differ(
        self, monkeypatch, device, efficiency
    ):
        # a growth past kappa*L = pi whose pressure rises from 2 to 25 kPa
        curvature = 0.444
        seen = self.counted_rows(monkeypatch)
        log = simulate_growth(Scenario(
            body=BODY, initial_length=0.2, target_length=2.9, curvature=curvature,
            device=device, efficiency=efficiency,
            pressure_points=((0.0, 2e3), (1.5, 8e3), (3.0, 25e3)),
        ))
        differ = []
        for step in log.steps:
            _, required = device_assist(BODY, device, step.pressure, efficiency)
            if required is None:
                continue
            straight, curved = (
                model_verdict(
                    BODY, step.pressure, curvature, required, model, step.tip_position
                )
                for model in (ModelUsed.STRAIGHT, ModelUsed.CURVED)
            )
            if straight is not curved:
                differ.append((step.pressure, curvature))
        assert 0 < len(differ) < len(log.steps)
        assert seen == differ

    def test_a_constant_pressure_straight_episode_solves_no_row(self, monkeypatch):
        seen = self.counted_rows(monkeypatch)
        log = simulate_growth(
            Scenario(body=BODY, initial_length=0.2, target_length=2.9, pressure=2e3)
        )
        assert log.terminal.kind is TerminalKind.BUCKLED
        assert seen == []

    def test_a_constant_pressure_curved_growth_solves_rows_where_its_probes_differ(
        self, monkeypatch
    ):
        # the flip search's kernel calls, and the rows they solve: one at each
        # probed tip where the two models' verdicts differ
        seen = self.counted_rows(monkeypatch)
        probes = TestPredictRow.counted_lengths(monkeypatch)
        curvature, pressure = 0.444, 3e3
        log = simulate_growth(Scenario(
            body=BODY, initial_length=0.2, target_length=2.9, curvature=curvature,
            pressure=pressure,
        ))
        assert len(log.steps) == 270 and log.terminal.kind is TerminalKind.BUCKLED
        required = tail_tension_to_invert(BODY, pressure)
        differ = [
            tip for tip in probes
            if model_verdict(BODY, pressure, curvature, required, ModelUsed.STRAIGHT, tip)
            is not model_verdict(BODY, pressure, curvature, required, ModelUsed.CURVED, tip)
        ]
        assert 0 < len(differ) < len(probes) <= math.ceil(math.log2(270 + 1))
        assert seen == [(pressure, curvature)] * len(differ)


class TestMoreDeviceIsNeverWorse:
    @example(body=BODY, p_scale=4.0, curvature=0.0, length=3.0)
    @example(body=BODY, p_scale=4.0, curvature=1 / 0.72, length=1.0)
    @given(
        body=FLIP_BODIES,
        p_scale=log_uniform(math.log10(0.6), 3.0),
        curvature=st.just(0.0) | log_uniform(-5.0, 1.0),
        length=log_uniform(-2.0, 2.0),
    )
    def test_raising_the_efficiency_never_turns_invert_into_buckle(
        self, body, p_scale, curvature, length
    ):
        # 40 efficiencies over [0, 1] on one operating point: BUCKLE, then INVERT
        assume(not in_the_cross_check_band(curvature, p_scale))
        state = RobotState(length, min_inversion_pressure(body) * p_scale, curvature)
        verdicts = [
            predict_with_device(body, DEVICE, state, i / 39).verdict for i in range(40)
        ]
        buckling = verdicts.count(Verdict.BUCKLE)
        assert verdicts == [Verdict.BUCKLE] * buckling + [Verdict.INVERT] * (40 - buckling)


class TestOnePressureBandPerLength:
    # The band has an upper end: the straight transition falls like
    # 1/sqrt(P) at high pressure.
    @example(body=BODY, curvature=0.0, length=1.0)
    @example(body=BODY, curvature=1 / 2.25, length=0.2)
    @given(
        body=FLIP_BODIES,
        curvature=st.just(0.0) | log_uniform(-5.0, 1.0),
        length=log_uniform(-2.0, 2.0),
    )
    def test_the_inverting_pressures_form_one_interval(self, body, curvature, length):
        # 150 pressures from 0.5 to 10^4 times the minimum inversion pressure
        p_scales = [0.5 * 2e4 ** (i / 149) for i in range(150)]
        p_min = min_inversion_pressure(body)
        verdicts = [
            predict_behavior(body, RobotState(length, p_min * p_scale, curvature)).verdict
            for p_scale in p_scales
            if not in_the_cross_check_band(curvature, p_scale)
        ]
        inverting = [i for i, verdict in enumerate(verdicts) if verdict is Verdict.INVERT]
        if inverting:
            assert inverting == list(range(inverting[0], inverting[-1] + 1))


class TestMoreCurvatureIsNeverBetter:
    # Beyond kappa*R = 1 it can be: the row falls back to the straight model,
    # flagged, and inverts (README, "Where the model holds").
    @example(body=BODY, p_scale=2e3 / min_inversion_pressure(BODY), length=1.0)
    @example(body=BODY, p_scale=4.0, length=0.2)
    @given(
        body=FLIP_BODIES,
        p_scale=log_uniform(math.log10(0.6), 3.0),
        length=log_uniform(-2.0, 2.0),
    )
    def test_raising_the_curvature_never_turns_buckle_into_invert(self, body, p_scale, length):
        # 40 curvatures from 1e-5 /m to 1/R at one operating point: INVERT,
        # then BUCKLE
        assume(not in_the_cross_check_band(1e-5, p_scale))
        pressure = min_inversion_pressure(body) * p_scale
        lo, hi = 1e-5, 1.0 / body.radius
        verdicts = [
            predict_behavior(body, RobotState(length, pressure, kappa)).verdict
            for kappa in (min(hi, lo * (hi / lo) ** (i / 39)) for i in range(40))
        ]
        inverting = verdicts.count(Verdict.INVERT)
        assert verdicts == [Verdict.INVERT] * inverting + [Verdict.BUCKLE] * (40 - inverting)


class TestLengthTerms:
    @pytest.mark.parametrize(
        "kappa", [0.0, 5e-7, math.nextafter(mechanics.KAPPA_STRAIGHT, 0.0)]
    )
    def test_no_arm_below_the_straightness_threshold(self, kappa):
        lengths = [0.0, 1.0, 3.0, 1e7]
        terms = list(length_terms_unchecked(BODY, kappa, lengths))
        assert [length for length, _, _ in terms] == lengths
        assert all(arm is None for _, _, arm in terms)
        assert [past for _, past, _ in terms] == [kappa * length > math.pi for length in lengths]
        assert terms[-1][1] is (kappa > 0)

    @pytest.mark.parametrize("kappa", [mechanics.KAPPA_STRAIGHT, 1 / 2.25, 1 / 0.72])
    def test_arm_is_the_clamped_moment_arm(self, kappa):
        lengths = [0.0, 0.5, 3.0, 20.0]
        terms = length_terms_unchecked(BODY, kappa, lengths)
        for length, (term_length, past, arm) in zip(lengths, terms):
            assert term_length is length and past is (kappa * length > math.pi)
            assert float.hex(arm) == float.hex(clamped_moment_arm(BODY, kappa, length))


def reference_oracle(request):
    """The oracle grid as its per-cell loop built it before it worked row by
    row: the public checked force functions at every cell, the bisection
    dispatch per row. Returns the cells as tuples and each cell's limit
    object."""
    body, curvature = request.body, request.curvature
    lengths = request.length_range.centers()
    grid, limits = [], []
    for pressure in request.pressure_range.centers():
        if request.device is not None:
            _, required = device_assist(body, request.device, pressure, request.efficiency)
            if required is None:
                # a grounded row's model is named by the straightness threshold
                limit = math.inf
                model = ModelUsed.STRAIGHT if curvature < 1e-6 else ModelUsed.CURVED
                cell = (Verdict.INVERT, FailureMode.NONE, 0.0, limit, limit - 0.0, model, False)
                grid.append([cell] * len(lengths))
                limits.append([limit] * len(lengths))
                continue
        else:
            required = tail_tension_to_invert(body, pressure)
        model = ModelUsed.STRAIGHT
        if curvature >= 1e-6:
            straight = straight_transition_bisect(body, pressure, required)
            curved = curved_transition_bisect(body, pressure, curvature, required)
            if not (curved is None or math.isinf(curved) or straight is None):
                if math.isinf(straight) or not curved > straight:
                    model = ModelUsed.CURVED
        crush = crushing_force(body, pressure)
        row, row_limits = [], []
        for length in lengths:
            if model is ModelUsed.CURVED:
                limit = crush * body.radius / clamped_moment_arm(body, curvature, length)
            elif length > 0:
                limit = min(crush, axial_buckling_force(body, pressure, length))
            else:
                limit = crush
            verdict = Verdict.INVERT if required < limit else Verdict.BUCKLE
            row.append((verdict, FailureMode.NONE, required, limit, limit - required, model, False))
            row_limits.append(limit)
        grid.append(row)
        limits.append(row_limits)
    return grid, limits


def pressure_axis(p_hi, steps, from_zero):
    """``steps`` pressure cells up to about ``p_hi``; with ``from_zero`` the
    first center is exactly 0 Pa (a power-of-two half width keeps every
    center exact)."""
    if not from_zero:
        return AxisRange(0.0, p_hi, steps)
    half = 2.0 ** round(math.log2(p_hi / (2 * steps)))
    return AxisRange(-half, half * (2 * steps - 1), steps)


def oracle_examples(test):
    for kappa in (0.0, 2e-6, 0.444, 1.389):
        for device, efficiency in DEVICE_CASES:
            test = example(
                body=BODY, kappa=kappa, device_efficiency=(device, efficiency), p_scale=8.0,
                from_zero=True, l_hi=2.5 * math.pi / max(kappa, 0.444), steps=(9, 12),
            )(test)
    return test


class TestOracleMatchesReference:
    @oracle_examples
    @given(
        body=st.just(BODY) | RANDOM_BODIES,
        kappa=st.sampled_from([0.0, 2e-6, 0.444, 1.389]) | log_uniform(-5.0, 1.5),
        device_efficiency=st.just((None, 1.0))
        | st.tuples(st.just(DEVICE), st.sampled_from([1.0, 0.5, 0.0]) | st.floats(0.0, 1.0)),
        p_scale=log_uniform(-0.5, 1.5),
        from_zero=st.booleans(),
        l_hi=log_uniform(-1.3, 1.3),
        steps=st.tuples(st.integers(1, 12), st.integers(1, 16)),
    )
    def test_cells_have_the_reference_bits(
        self, body, kappa, device_efficiency, p_scale, from_zero, l_hi, steps
    ):
        # every field as the per-cell loop gave it, and a cell shared with
        # its neighbor exactly where the reference limit is the same object
        device, efficiency = device_efficiency
        p_steps, l_steps = steps
        req = SweepRequest(
            body, kappa, pressure_axis(min_inversion_pressure(body) * p_scale, p_steps, from_zero),
            AxisRange(0.0, l_hi, l_steps), device, efficiency,
        )
        expected, limits = reference_oracle(req)
        grid = oracle_scan(req).grid
        assert [[cell_bits(cell) for cell in row] for row in grid] == [
            [cell_bits(cell) for cell in row] for row in expected
        ]
        for row, row_expected, row_limits in zip(grid, expected, limits):
            for cell, cell_expected in zip(row, row_expected):
                # the enums and the flag by identity
                for k in (0, 1, 5, 6):
                    assert cell[k] is cell_expected[k]
            for j in range(1, len(row)):
                assert (row[j] is row[j - 1]) == (row_limits[j] is row_limits[j - 1])

    def test_examples_cover_zero_pressure_grounded_rows_and_pi(self):
        req = SweepRequest(
            BODY, 1.389, pressure_axis(min_inversion_pressure(BODY) * 8.0, 9, True),
            AxisRange(0.0, 2.5 * math.pi / 1.389, 12), DEVICE, 1.0,
        )
        assert req.pressure_range.centers()[0] == 0.0
        assert any(length * 1.389 > math.pi for length in req.length_range.centers())
        grid = oracle_scan(req).grid
        assert math.isinf(grid[0][0].limiting_force)  # grounded
        assert not math.isinf(grid[-1][0].limiting_force)  # saturated

    @pytest.mark.parametrize("kappa", [0.0, 2e-6, 0.444, 1.389])
    @pytest.mark.parametrize("device,efficiency", DEVICE_CASES)
    def test_independent_of_the_closed_forms(self, monkeypatch, kappa, device, efficiency):
        req = SweepRequest(
            BODY, kappa, pressure_axis(10e3, 13, True), AxisRange(0.0, 8.0, 13), device, efficiency
        )
        expected = repr(oracle_scan(req).grid)

        def forbidden(*args, **kwargs):
            raise AssertionError("the oracle reached the closed-form path")

        for name in ("_straight_transition_for", "_curved_transition_for",
                     "solve_pressure_row_unchecked", "predict_row"):
            monkeypatch.setattr(mechanics, name, forbidden)
        assert repr(oracle_scan(req).grid) == expected


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
