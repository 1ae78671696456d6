"""Phase diagram engine: grid classification, oracle agreement, emission."""

import math
import random
import re
from dataclasses import replace

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from vinebuckle import (
    AxisRange,
    BehaviorPrediction,
    BodySpec,
    DeviceSpec,
    FailureMode,
    ModelUsed,
    SweepRequest,
    Verdict,
    classify_grid,
    diagrams_agree,
    emit_diagram,
    emit_transition_csv,
    min_inversion_pressure,
    oracle_scan,
    transition_length,
)
from vinebuckle import units
from vinebuckle.sweep import MAX_GRID_CELLS, PhaseDiagram

GRID_HEADER = "pressure_kpa,length_cm,verdict,mode,required_n,limit_n,margin_n,model,extrapolated"


def straight_request(p_steps=50, l_steps=50) -> SweepRequest:
    return SweepRequest(
        body=BodySpec(),
        curvature=0.0,
        pressure_range=AxisRange(0.0, 10e3, p_steps),
        length_range=AxisRange(0.0, 3.0, l_steps),
    )


def random_request(rng: random.Random) -> SweepRequest:
    p_lo = rng.uniform(0.0, 3e3)
    l_lo = rng.uniform(0.0, 0.5)
    return SweepRequest(
        body=BodySpec(),
        curvature=rng.choice([0.0, rng.uniform(1e-4, 2.0)]),
        pressure_range=AxisRange(p_lo, p_lo + rng.uniform(1e3, 12e3), rng.randint(2, 6)),
        length_range=AxisRange(l_lo, l_lo + rng.uniform(0.5, 3.5), rng.randint(2, 6)),
        device=DeviceSpec() if rng.random() < 0.4 else None,
        efficiency=rng.uniform(0.2, 1.0),
    )


def log_uniform(lo_exp: float, hi_exp: float):
    return st.floats(lo_exp, hi_exp).map(lambda e: 10.0**e)


# Bodies over two to three decades around the reference body in every
# constant; curvature 0 or 1e-5..~32 1/m; the pressure axis reaches up to
# ~30x the body's own minimum inversion pressure, so most grids hold both
# verdicts.
RANDOM_BODIES = st.builds(
    BodySpec,
    radius=log_uniform(-2.4, -0.4),
    wall_thickness=log_uniform(-5.0, -3.0),
    youngs_modulus=log_uniform(7.0, 10.0),
    shear_modulus=log_uniform(6.7, 9.7),
    inversion_force=log_uniform(-1.3, 1.7),
)


def first_buckle_index(diagram, column: int):
    for j, _ in enumerate(diagram.lengths):
        if diagram.grid[column][j].verdict is Verdict.BUCKLE:
            return j
    return None


class TestClassifyGrid:
    def test_straight_transition_passes_known_points(self):
        diagram = classify_grid(straight_request())
        curve = dict()
        for pressure, critical in diagram.transition_curve:
            curve[round(pressure)] = critical
        # cell centers sit at odd multiples of 0.1 kPa; interpolate neighbours
        near_2k = 0.5 * (curve[1900] + curve[2100])
        near_10k = curve[9900]
        assert near_2k == pytest.approx(2.3946188550377654, abs=0.02)
        assert near_10k == pytest.approx(1.2779244935628533, abs=0.01)

    def test_transition_separates_verdicts_along_each_column(self):
        diagram = classify_grid(straight_request())
        curve = dict(diagram.transition_curve)
        for i, pressure in enumerate(diagram.pressures):
            if pressure not in curve:
                continue
            critical = curve[pressure]
            for j, length in enumerate(diagram.lengths):
                expected = Verdict.INVERT if length < critical else Verdict.BUCKLE
                assert diagram.grid[i][j].verdict is expected

    def test_more_curved_grids_buckle_at_shorter_lengths(self):
        def grid_for(curvature):
            return classify_grid(
                SweepRequest(
                    body=BodySpec(),
                    curvature=curvature,
                    pressure_range=AxisRange(0.0, 10e3, 10),
                    length_range=AxisRange(0.0, 3.0, 40),
                )
            )

        gentle = grid_for(1 / 4.55)
        sharp = grid_for(1 / 0.72)
        compared = 0
        for i, pressure in enumerate(gentle.pressures):
            if pressure <= min_inversion_pressure(BodySpec()):
                continue
            j_gentle = first_buckle_index(gentle, i)
            j_sharp = first_buckle_index(sharp, i)
            assert j_sharp is not None and j_gentle is not None
            assert j_sharp <= j_gentle
            compared += 1
        assert compared >= 8

    def test_all_crush_below_minimum_pressure(self):
        request = SweepRequest(
            body=BodySpec(),
            curvature=0.0,
            pressure_range=AxisRange(0.0, 1.2e3, 6),
            length_range=AxisRange(0.0, 3.0, 6),
        )
        diagram = classify_grid(request)
        assert all(cell.verdict is Verdict.BUCKLE for row in diagram.grid for cell in row)
        assert diagram.transition_curve == []

    def test_single_cell_grid(self):
        request = SweepRequest(
            body=BodySpec(),
            curvature=0.0,
            pressure_range=AxisRange(1.9e3, 2.1e3, 1),
            length_range=AxisRange(0.9, 1.1, 1),
        )
        diagram = classify_grid(request)
        assert diagram.pressures == [2000.0]
        assert diagram.grid[0][0].verdict is Verdict.INVERT

    def test_metadata_echoes_request(self):
        diagram = classify_grid(straight_request(4, 5))
        assert diagram.metadata["pressure_kpa"] == [0.0, 10.0, 4]
        assert diagram.metadata["length_cm"] == [0.0, 300.0, 5]
        assert diagram.metadata["device"] is False
        assert "model_version" in diagram.metadata


class TestOracleScan:
    def test_matches_on_reference_grids(self):
        for curvature in (0.0, 1 / 4.55, 1 / 2.25, 1 / 0.72):
            request = SweepRequest(
                body=BodySpec(),
                curvature=curvature,
                pressure_range=AxisRange(0.0, 10e3, 8),
                length_range=AxisRange(0.0, 3.0, 8),
            )
            assert diagrams_agree(classify_grid(request), oracle_scan(request))

    def test_matches_on_randomized_requests(self):
        rng = random.Random(1234)
        for _ in range(30):
            request = random_request(rng)
            assert diagrams_agree(classify_grid(request), oracle_scan(request))

    @settings(max_examples=60)
    @given(
        body=RANDOM_BODIES,
        curvature=st.just(0.0) | log_uniform(-5.0, 1.5),
        p_scale=log_uniform(0.0, 1.5),
        l_hi=log_uniform(-1.3, 1.0),
        p_steps=st.integers(1, 15),
        l_steps=st.integers(1, 15),
        efficiency=st.none() | st.floats(0.0, 1.0),
    )
    def test_matches_on_random_bodies(
        self, body, curvature, p_scale, l_hi, p_steps, l_steps, efficiency
    ):
        # efficiency None: bare body; otherwise the reference device at that efficiency
        request = SweepRequest(
            body=body,
            curvature=curvature,
            pressure_range=AxisRange(0.0, min_inversion_pressure(body) * p_scale, p_steps),
            length_range=AxisRange(0.0, l_hi, l_steps),
            device=None if efficiency is None else DeviceSpec(),
            efficiency=1.0 if efficiency is None else efficiency,
        )
        assert diagrams_agree(classify_grid(request), oracle_scan(request))

    # the body on which the oracle first raised at exactly P_min
    @example(body=BodySpec(radius=0.01778279410038923, wall_thickness=1e-4, youngs_modulus=1e8,
                           shear_modulus=1e7, inversion_force=1.7782794100389228),
             curvature=0.5)
    @given(body=RANDOM_BODIES, curvature=log_uniform(-6.0, 1.5))
    def test_matches_at_the_minimum_inversion_pressure(self, body, curvature):
        # The one pressure center is exactly P_min, where the required
        # tension is P*A: the curved kernel's gap at zero length rounded
        # below 0 on some bodies, and the oracle raised CrossCheckError.
        pressure = min_inversion_pressure(body)
        request = SweepRequest(
            body, curvature, AxisRange(0.0, 2.0 * pressure, 1), AxisRange(0.0, 1.0, 3)
        )
        assert request.pressure_range.centers() == [pressure]
        assert diagrams_agree(classify_grid(request), oracle_scan(request))

    def test_single_cell_matches_predictor(self):
        request = SweepRequest(
            body=BodySpec(),
            curvature=0.0,
            pressure_range=AxisRange(1.9e3, 2.1e3, 1),
            length_range=AxisRange(0.9, 1.1, 1),
        )
        diagram = oracle_scan(request)
        assert diagram.grid[0][0].verdict is Verdict.INVERT

    @pytest.mark.parametrize("curvature", [0.0, 1e-6, 2e-6, 0.444])
    def test_grounded_rows_name_the_classifier_model(self, curvature):
        request = SweepRequest(
            BodySpec(), curvature, AxisRange(0.0, 10e3, 3), AxisRange(0.0, 3.0, 2), DeviceSpec()
        )
        classified, oracle = classify_grid(request), oracle_scan(request)
        grounded = 0
        for row, oracle_row in zip(classified.grid, oracle.grid):
            if math.isinf(row[0].limiting_force):
                grounded += 1
                assert [c.model_used for c in oracle_row] == [c.model_used for c in row]
        assert grounded

    @pytest.mark.parametrize(
        "cut",
        [lambda grid: grid[:2], lambda grid: [row[:2] for row in grid]],
        ids=["fewer rows", "shorter rows"],
    )
    def test_grids_of_other_shapes_disagree(self, cut):
        # the cut grid matches the full one cell for cell as far as it goes
        full = oracle_scan(straight_request(3, 3))
        part = replace(full, grid=cut(full.grid))
        assert diagrams_agree(full, full)
        assert not diagrams_agree(full, part) and not diagrams_agree(part, full)

    def test_degenerate_two_step_grid(self):
        request = SweepRequest(
            body=BodySpec(),
            curvature=0.0,
            pressure_range=AxisRange(0.0, 10e3, 2),
            length_range=AxisRange(0.0, 3.0, 2),
        )
        diagram = oracle_scan(request)
        assert sum(len(row) for row in diagram.grid) == 4


class TestCurvedReachability:
    @settings(max_examples=30)
    @given(body=RANDOM_BODIES, kappa_r=st.floats(2.0, 20.0, exclude_min=True))
    def test_curved_exactly_where_buckling_is_reachable(self, body, kappa_r):
        # Curved buckling is reachable where P*A*R / (R + 2/kappa), the limit
        # at the largest arm, is at most the required tension P*A/2 + F_I.
        # Only kappa*R > 2 gives that boundary a pressure. The predictor and
        # the oracle share their largest arm, so this test writes its own.
        radius, force = body.radius, body.inversion_force
        kappa = kappa_r / radius
        area = math.pi * radius * radius

        def reachable(pressure):
            limit = pressure * area * radius / (radius + 2.0 / kappa)
            return limit <= 0.5 * pressure * area + force

        # the lowest pressure out of reach, by halving between floats
        excess = radius / (radius + 2.0 / kappa) - 0.5
        assume(excess > 0.0)
        lo, hi = 0.0, force / (area * excess)
        while reachable(hi):
            hi *= 2.0
        while math.nextafter(lo, hi) < hi:
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if reachable(mid) else (lo, mid)
        # a curved transition reaches at most pi/kappa, so where the straight
        # one is longer, the dispatch names CURVED wherever the curved exists
        assume(transition_length(body, hi) > math.pi / kappa)
        pressures = [hi]
        for direction in (0.0, math.inf):
            pressure = hi
            for _ in range(64):
                pressure = math.nextafter(pressure, direction)
                pressures.append(pressure)
        for pressure in pressures:
            request = SweepRequest(
                body, kappa, AxisRange(0.0, 2.0 * pressure, 1), AxisRange(0.0, 1.0, 1)
            )
            for scan in (classify_grid, oracle_scan):
                model = scan(request).grid[0][0].model_used
                assert (model is ModelUsed.CURVED) == reachable(pressure), (scan, pressure)


# A 2x2 straight diagram over 1-11 kPa and 50-350 cm, every byte: the frame,
# the six ticks and labels per axis, the axis titles, the markers and the
# transition polyline.
SMALL_SVG = """\
<?xml version="1.0" encoding="UTF-8"?>
<svg xmlns="http://www.w3.org/2000/svg" width="720" height="540" viewBox="0 0 720 540">
<rect x="0" y="0" width="720" height="540" fill="white"/>
<line x1="72.00" y1="482.00" x2="696.00" y2="482.00" stroke="black"/>
<line x1="72.00" y1="482.00" x2="72.00" y2="24.00" stroke="black"/>
<line x1="72.00" y1="482.00" x2="72.00" y2="487.00" stroke="black"/>
<text x="72.00" y="502.00" font-size="12" text-anchor="middle" font-family="sans-serif">1</text>
<line x1="67.00" y1="482.00" x2="72.00" y2="482.00" stroke="black"/>
<text x="63.00" y="486.00" font-size="12" text-anchor="end" font-family="sans-serif">50</text>
<line x1="196.80" y1="482.00" x2="196.80" y2="487.00" stroke="black"/>
<text x="196.80" y="502.00" font-size="12" text-anchor="middle" font-family="sans-serif">3</text>
<line x1="67.00" y1="390.40" x2="72.00" y2="390.40" stroke="black"/>
<text x="63.00" y="394.40" font-size="12" text-anchor="end" font-family="sans-serif">110</text>
<line x1="321.60" y1="482.00" x2="321.60" y2="487.00" stroke="black"/>
<text x="321.60" y="502.00" font-size="12" text-anchor="middle" font-family="sans-serif">5</text>
<line x1="67.00" y1="298.80" x2="72.00" y2="298.80" stroke="black"/>
<text x="63.00" y="302.80" font-size="12" text-anchor="end" font-family="sans-serif">170</text>
<line x1="446.40" y1="482.00" x2="446.40" y2="487.00" stroke="black"/>
<text x="446.40" y="502.00" font-size="12" text-anchor="middle" font-family="sans-serif">7</text>
<line x1="67.00" y1="207.20" x2="72.00" y2="207.20" stroke="black"/>
<text x="63.00" y="211.20" font-size="12" text-anchor="end" font-family="sans-serif">230</text>
<line x1="571.20" y1="482.00" x2="571.20" y2="487.00" stroke="black"/>
<text x="571.20" y="502.00" font-size="12" text-anchor="middle" font-family="sans-serif">9</text>
<line x1="67.00" y1="115.60" x2="72.00" y2="115.60" stroke="black"/>
<text x="63.00" y="119.60" font-size="12" text-anchor="end" font-family="sans-serif">290</text>
<line x1="696.00" y1="482.00" x2="696.00" y2="487.00" stroke="black"/>
<text x="696.00" y="502.00" font-size="12" text-anchor="middle" font-family="sans-serif">11</text>
<line x1="67.00" y1="24.00" x2="72.00" y2="24.00" stroke="black"/>
<text x="63.00" y="28.00" font-size="12" text-anchor="end" font-family="sans-serif">350</text>
<text x="384.00" y="526.00" font-size="14" text-anchor="middle" font-family="sans-serif">pressure (kPa)</text>
<text x="16" y="253.00" font-size="14" text-anchor="middle" font-family="sans-serif" transform="rotate(-90 16 253.00)">length (cm)</text>
<circle cx="228.00" cy="367.50" r="3" fill="none" stroke="#1a9641" stroke-width="1.2" class="invert"/>
<path d="M 225.00 135.50 L 231.00 141.50 M 225.00 141.50 L 231.00 135.50" stroke="#d7191c" stroke-width="1.2" class="buckle"/>
<circle cx="540.00" cy="367.50" r="3" fill="none" stroke="#1a9641" stroke-width="1.2" class="invert"/>
<path d="M 537.00 135.50 L 543.00 141.50 M 537.00 141.50 L 543.00 135.50" stroke="#d7191c" stroke-width="1.2" class="buckle"/>
<polyline points="228.00,256.49 540.00,348.54" fill="none" stroke="black" stroke-width="1.5" stroke-dasharray="2 4" class="transition"/>
</svg>
"""


class TestEmission:
    def test_small_svg_text(self):
        request = SweepRequest(
            body=BodySpec(),
            curvature=0.0,
            pressure_range=AxisRange(1e3, 11e3, 2),
            length_range=AxisRange(0.5, 3.5, 2),
        )
        assert emit_diagram(classify_grid(request), "svg").decode() == SMALL_SVG


    def test_csv_rows_and_header(self):
        diagram = classify_grid(straight_request(2, 2))
        lines = emit_diagram(diagram, "csv").decode().strip().split("\n")
        assert lines[0] == GRID_HEADER
        assert len(lines) == 1 + 4

    def test_csv_deterministic(self):
        request = straight_request(6, 6)
        first = emit_diagram(classify_grid(request), "csv")
        second = emit_diagram(classify_grid(request), "csv")
        assert first == second

    def test_svg_deterministic_and_structured(self):
        request = straight_request(8, 8)
        svg = emit_diagram(classify_grid(request), "svg")
        assert svg == emit_diagram(classify_grid(request), "svg")
        text = svg.decode()
        assert text.count('class="invert"') > 0
        assert text.count('class="buckle"') > 0
        assert 'class="transition"' in text
        assert "pressure (kPa)" in text and "length (cm)" in text

    @pytest.mark.parametrize(
        "axis,pressures,lengths",
        [
            (
                "length",
                AxisRange(0.0, 10e3, 2),
                AxisRange(0.16965410318042606, 0.1696541031804261, 1),
            ),
            (
                "pressure",
                AxisRange(2047.7951453379285, math.nextafter(2047.7951453379285, 1e4), 1),
                AxisRange(0.0, 3.0, 2),
            ),
        ],
        ids=["length", "pressure"],
    )
    def test_axis_whose_span_rounds_to_zero_plots_at_its_low_end(self, axis, pressures, lengths):
        # the ends are one ulp apart in SI units and one float in bench units
        # (cm, kPa); that zero span divided every marker's coordinate
        diagram = classify_grid(SweepRequest(BodySpec(), 0.0, pressures, lengths))
        key = "length_cm" if axis == "length" else "pressure_kpa"
        assert diagram.metadata[key][0] == diagram.metadata[key][1]
        text = emit_diagram(diagram, "svg").decode()
        x0, y0 = re.search(r'<line x1="([\d.]+)" y1="([\d.]+)"', text).groups()
        centers = re.findall(r'<circle cx="([\d.]+)" cy="([\d.]+)"', text) + [
            (f"{float(left) + 3:.2f}", f"{float(top) + 3:.2f}")
            for left, top in re.findall(r'<path d="M ([\d.]+) ([\d.]+) ', text)
        ]
        assert len(centers) == len(diagram.pressures) * len(diagram.lengths) == 2
        if axis == "length":
            assert {y for _, y in centers} == {y0}
        else:
            assert {x for x, _ in centers} == {x0}

    def test_transition_csv(self):
        diagram = classify_grid(straight_request(5, 5))
        lines = emit_transition_csv(diagram).decode().strip().split("\n")
        assert lines[0] == "pressure_kpa,critical_length_cm"
        assert len(lines) == 1 + len(diagram.transition_curve)

    def test_unknown_format_rejected(self):
        diagram = classify_grid(straight_request(2, 2))
        with pytest.raises(ValueError, match="format"):
            emit_diagram(diagram, "png")


def reference_csv(diagram) -> bytes:
    """The grid CSV written out cell by cell, one join per cell."""

    def force(value):
        return "inf" if math.isinf(value) else repr(value)

    lines = [GRID_HEADER]
    for i, pressure in enumerate(diagram.pressures):
        for j, length in enumerate(diagram.lengths):
            cell = diagram.grid[i][j]
            lines.append(
                ",".join(
                    (
                        repr(units.pa_to_kpa(pressure)),
                        repr(units.m_to_cm(length)),
                        cell.verdict.value,
                        cell.mode.value,
                        force(cell.required_tension),
                        force(cell.limiting_force),
                        force(cell.margin),
                        cell.model_used.value,
                        "true" if cell.extrapolated else "false",
                    )
                )
            )
    return ("\n".join(lines) + "\n").encode("utf-8")


def reference_svg(diagram) -> bytes:
    """The SVG with its markers written out cell by cell. The frame (axes,
    labels, transition polyline) is the same diagram's SVG without cells;
    the markers go before the polyline, or before the end without one."""
    frame = emit_diagram(replace(diagram, pressures=[], lengths=[], grid=[]), "svg")
    lines = frame.decode().split("\n")
    at = next(k for k, line in enumerate(lines) if line.startswith(("<polyline", "</svg>")))
    p_lo, p_hi = diagram.metadata["pressure_kpa"][:2]
    l_lo, l_hi = diagram.metadata["length_cm"][:2]

    def f(value):
        return f"{value:.2f}"

    markers = []
    for i, pressure in enumerate(diagram.pressures):
        for j, length in enumerate(diagram.lengths):
            # 720x540 canvas, plot area inset 72 left, 24 right, 24 top, 58 bottom
            x = 72.0 + (units.pa_to_kpa(pressure) - p_lo) / (p_hi - p_lo) * 624.0
            y = 482.0 - (units.m_to_cm(length) - l_lo) / (l_hi - l_lo) * 458.0
            if diagram.grid[i][j].verdict is Verdict.INVERT:
                markers.append(
                    f'<circle cx="{f(x)}" cy="{f(y)}" r="3" fill="none" '
                    'stroke="#1a9641" stroke-width="1.2" class="invert"/>'
                )
            else:
                markers.append(
                    f'<path d="M {f(x - 3)} {f(y - 3)} L {f(x + 3)} {f(y + 3)} '
                    f'M {f(x - 3)} {f(y + 3)} L {f(x + 3)} {f(y - 3)}" '
                    'stroke="#d7191c" stroke-width="1.2" class="buckle"/>'
                )
    return "\n".join(lines[:at] + markers + lines[at:]).encode("utf-8")


class TestEmissionMatchesReference:
    @settings(max_examples=60)
    @given(
        body=st.just(BodySpec()) | RANDOM_BODIES,
        curvature=st.just(0.0) | log_uniform(-5.0, 1.5),
        p_scale=log_uniform(0.0, 1.5),
        l_hi=log_uniform(-1.3, 1.0),
        p_steps=st.integers(1, 15),
        l_steps=st.integers(1, 15),
        efficiency=st.none() | st.floats(0.0, 1.0),
        oracle=st.booleans(),
    )
    @example(  # grounded rows (inf forces), extrapolated cells, a transition curve
        body=BodySpec(), curvature=1 / 0.72, p_scale=8.0, l_hi=3.0,
        p_steps=12, l_steps=12, efficiency=1.0, oracle=False,
    )
    @example(  # the same grid from the oracle
        body=BodySpec(), curvature=1 / 0.72, p_scale=8.0, l_hi=3.0,
        p_steps=12, l_steps=12, efficiency=1.0, oracle=True,
    )
    def test_csv_and_svg(
        self, body, curvature, p_scale, l_hi, p_steps, l_steps, efficiency, oracle
    ):
        # efficiency None: bare body; otherwise the reference device at that efficiency
        request = SweepRequest(
            body=body,
            curvature=curvature,
            pressure_range=AxisRange(0.0, min_inversion_pressure(body) * p_scale, p_steps),
            length_range=AxisRange(0.0, l_hi, l_steps),
            device=None if efficiency is None else DeviceSpec(),
            efficiency=1.0 if efficiency is None else efficiency,
        )
        diagram = (oracle_scan if oracle else classify_grid)(request)
        assert emit_diagram(diagram, "csv") == reference_csv(diagram)
        assert emit_diagram(diagram, "svg") == reference_svg(diagram)

    def test_column_reused_only_for_the_same_object(self):
        # The emitter reuses a cell's text while the row repeats the same
        # cell object, and a column's text while the cell holds the same
        # object. These cells hold -0.0 after 0.0 (equal, different text),
        # two distinct NaN objects, and equal but distinct floats, in every
        # force column and across the row boundary; the last row repeats a
        # cell with a 0.0 limit, then one equal to it with a -0.0 limit.
        zero, negative_zero = 0.0, -0.0
        nan_a, nan_b = float("nan"), float("nan")
        equal_a, equal_b = float("12.5"), float("12.5")
        assert nan_a is not nan_b and equal_a is not equal_b
        invert, buckle = Verdict.INVERT, Verdict.BUCKLE
        none, crush = FailureMode.NONE, FailureMode.CRUSH
        straight, curved = ModelUsed.STRAIGHT, ModelUsed.CURVED
        crush_zero = BehaviorPrediction(buckle, crush, zero, zero, zero, straight)
        crush_negative_zero = BehaviorPrediction(
            buckle, crush, zero, negative_zero, negative_zero, straight
        )
        assert crush_zero == crush_negative_zero
        grid = [
            [
                BehaviorPrediction(invert, none, zero, zero, zero, straight),
                BehaviorPrediction(
                    invert, none, negative_zero, negative_zero, negative_zero, straight
                ),
                BehaviorPrediction(buckle, crush, zero, negative_zero, zero, curved, True),
                BehaviorPrediction(buckle, crush, nan_a, nan_a, nan_b, curved),
            ],
            [
                BehaviorPrediction(buckle, crush, nan_b, nan_b, nan_a, curved),
                BehaviorPrediction(invert, none, equal_a, equal_a, equal_a, straight),
                BehaviorPrediction(invert, none, equal_b, equal_b, equal_b, straight),
                BehaviorPrediction(invert, none, equal_b, math.inf, -0.0, straight),
            ],
            [crush_zero, crush_zero, crush_negative_zero, crush_negative_zero],
        ]
        diagram = PhaseDiagram(
            pressures=[0.0, -0.0, 1e3],
            lengths=[0.0, -0.0, 0.5, 1.0],
            grid=grid,
            transition_curve=[],
        )
        emitted = emit_diagram(diagram, "csv")
        assert emitted == reference_csv(diagram)
        lines = emitted.decode().split("\n")
        assert lines[2] == "0.0,-0.0,invert,none,-0.0,-0.0,-0.0,straight,false"
        assert lines[9:13] == [
            "1.0,0.0,buckle,crush,0.0,0.0,0.0,straight,false",
            "1.0,-0.0,buckle,crush,0.0,0.0,0.0,straight,false",
            "1.0,50.0,buckle,crush,0.0,-0.0,-0.0,straight,false",
            "1.0,100.0,buckle,crush,0.0,-0.0,-0.0,straight,false",
        ]


class TestValidation:
    def test_axis_needs_lo_below_hi(self):
        with pytest.raises(ValueError):
            AxisRange(1.0, 1.0, 5)

    def test_axis_needs_positive_steps(self):
        with pytest.raises(ValueError):
            AxisRange(0.0, 1.0, 0)

    @pytest.mark.parametrize("steps", [2.5, 3.0])
    def test_axis_steps_must_be_an_int(self, steps):
        # range() raised TypeError from classify_grid
        with pytest.raises(ValueError, match="axis steps"):
            AxisRange(0.0, 1e4, steps)

    def test_grid_cell_ceiling(self):
        def request(p_steps, l_steps):
            return SweepRequest(
                body=BodySpec(),
                curvature=0.0,
                pressure_range=AxisRange(0.0, 1e3, p_steps),
                length_range=AxisRange(0.0, 1.0, l_steps),
            )

        request(1000, MAX_GRID_CELLS // 1000)  # only built: the ceiling is inclusive
        with pytest.raises(ValueError, match="cells"):
            request(1000, MAX_GRID_CELLS // 1000 + 1)
        with pytest.raises(ValueError, match="cells"):
            request(10**18, 1)

    def test_negative_curvature_rejected(self):
        with pytest.raises(ValueError):
            SweepRequest(
                body=BodySpec(),
                curvature=-0.1,
                pressure_range=AxisRange(0.0, 1e3, 2),
                length_range=AxisRange(0.0, 1.0, 2),
            )
