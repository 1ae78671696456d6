"""Comparisons in place of builtin calls on the per-row and per-step paths.

The residual tolerance, the acos clamp of the curved closed form, the
pressure schedule's clamp and the oracle's per-cell minimum are written as
comparisons instead of ``abs``/``min``/``max`` calls. Each must give what
the builtin form it replaced gives, bit for bit (compared with
``float.hex``) and, where a bound wins, as the same object.
"""

import math
from unittest import mock

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from vinebuckle import BodySpec, Scenario, mechanics
from vinebuckle.mechanics import (
    _axial_terms,
    _within_rounding,
    length_terms_unchecked,
    oracle_row_unchecked,
)

BODY = BodySpec()
TOL_N, TOL_REL = mechanics._RESIDUAL_TOL_N, mechanics._RESIDUAL_TOL_REL
# below this force scale 64 machine epsilons of it is under 1e-9 N
FLOOR_BINDS_BELOW = TOL_N / TOL_REL


def builtin_within(residual, force):
    return abs(residual) <= max(TOL_N, TOL_REL * abs(force))


@st.composite
def residual_near_tolerance(draw, forces):
    """(residual, force): any residual, or one at or an ulp either side of
    the tolerance, of either sign."""
    force = draw(forces)
    tol = max(TOL_N, TOL_REL * abs(force))
    near = (tol, math.nextafter(tol, math.inf), math.nextafter(tol, 0.0))
    residual = draw(st.floats() | st.sampled_from(near + tuple(-r for r in near)))
    return residual, force


class TestWithinRounding:
    @given(residual_near_tolerance(
        st.floats(-FLOOR_BINDS_BELOW, FLOOR_BINDS_BELOW) | st.sampled_from([0.0, -0.0])
    ))
    @example((TOL_N, FLOOR_BINDS_BELOW))
    @example((math.nan, 1.0))
    @example((math.inf, 1.0))
    def test_absolute_floor(self, pair):
        residual, force = pair
        assert max(TOL_N, TOL_REL * abs(force)) == TOL_N
        assert _within_rounding(residual, force) is builtin_within(residual, force)

    @given(residual_near_tolerance(
        st.floats(min_value=math.nextafter(FLOOR_BINDS_BELOW, math.inf))
        .flatmap(lambda f: st.sampled_from([f, -f]))
        | st.sampled_from([math.nan])
    ))
    @example((math.inf, math.inf))
    @example((-math.inf, -math.inf))
    @example((math.nan, math.inf))
    @example((1e-9, math.nan))
    @example((math.nextafter(1e-9, 1.0), math.nan))
    def test_relative_term(self, pair):
        residual, force = pair
        assert _within_rounding(residual, force) is builtin_within(residual, force)


class TestAcosClamp:
    @given(
        pressure=st.floats(10.0, 20e3),
        curvature=st.floats(0.05, 2.0),
        share=st.floats(0.0, 1.0),
    )
    @example(pressure=2e3, curvature=1 / 2.25, share=0.0)  # cos_arg at -1
    @example(pressure=2e3, curvature=1 / 2.25, share=1.0)  # cos_arg at 1
    @example(pressure=9e3, curvature=1 / 0.72, share=0.0)
    def test_closed_form_takes_the_builtin_clamp(self, pressure, curvature, share):
        # required from the smallest tension that reaches buckling (the arm at
        # its maximum, cos_arg near -1) to P*A (the arm at R, cos_arg 1)
        pa = pressure * BODY.cross_section_area
        radius = BODY.radius
        lowest = pa * radius / (radius + 2.0 / curvature)
        required = lowest + share * (pa - lowest) if share < 1.0 else pa
        closed = mechanics._curved_transition_for(BODY, pressure, curvature, required)
        cos_arg = 1.0 - curvature * (pa * radius / required - radius)
        expected = math.acos(max(-1.0, min(1.0, cos_arg))) / curvature
        assert closed.hex() == expected.hex()

    def test_nan_clamps_to_one(self):
        # a NaN required tension passes every guard, so cos_arg is NaN; the
        # clamp hands acos 1.0, and the NaN residual sends the closed form to
        # the bisection kernel, which trusts its input and whose root then
        # disagrees (every entry rejects a NaN tension before this point)
        seen = []
        with mock.patch.object(
            mechanics.math, "acos", side_effect=lambda x: seen.append(x) or 0.0
        ), pytest.raises(mechanics.CrossCheckError, match="disagrees"):
            mechanics._curved_transition_for(BODY, 2e3, 0.444, math.nan)
        assert [x.hex() for x in seen] == [(1.0).hex()]


class TestScheduleClamp:
    @given(
        p=st.floats(),
        ends=st.lists(st.floats(allow_nan=False), min_size=2, max_size=2).map(sorted),
    )
    @example(p=-0.0, ends=[0.0, 1.0])
    @example(p=0.0, ends=[-0.0, 0.0])
    @example(p=-0.0, ends=[-0.0, 0.0])
    @example(p=math.nan, ends=[0.0, 1.0])
    @example(p=math.inf, ends=[0.0, math.inf])
    @example(p=-math.inf, ends=[-math.inf, 0.0])
    @example(p=2.0, ends=[2.0, 2.0])
    @example(p=math.nextafter(5.0, 6.0), ends=[1.0, 5.0])
    def test_pressure_at_takes_the_builtin_clamp(self, p, ends):
        # one segment whose interpolant is p at every tip: p0 = p and a rise
        # of -0.0, since p + -0.0 has p's bits for every float p
        lo, hi = ends
        scenario = Scenario(BODY, 1.0, pressure_points=((0.0, 1.0), (1.0, 2.0)))
        vars(scenario)["_segments"] = (0.0, [1.0], [(0.0, p, -0.0, 1.0, lo, hi)])
        interpolant = p + -0.0
        expected = min(max(interpolant, lo), hi)
        # a NaN passes through both clamps
        got = scenario.pressure_at(0.5)
        assert got.hex() == expected.hex()
        assert (got is lo) == (expected is lo) and (got is hi) == (expected is hi)


class TestOracleMinimum:
    @given(
        pressure=st.floats(0.0, 1.7e308) | st.just(-0.0),
        lengths=st.lists(st.floats(math.ulp(0.0), 1e300), max_size=8),
        required=st.floats(-1e300, 1e300),
    )
    @example(pressure=-0.0, lengths=[1.0, 2.0], required=1.0)
    # k1*P overflows: the axial force is inf, and NaN once the denominator
    # overflows too; crushing binds in both
    @example(pressure=1e308, lengths=[1e-3, 1e2, 1e-3], required=1.0)
    @example(pressure=2e3, lengths=[0.5, 1.0, 3.0, 3.0, 10.0], required=9.0)
    def test_straight_cells_take_the_builtin_minimum(self, pressure, lengths, required):
        terms = tuple(length_terms_unchecked(BODY, 0.0, [0.0] + lengths))
        cells = oracle_row_unchecked(BODY, pressure, 0.0, required, terms)
        crush = cells[0].limiting_force  # zero length: crushing alone
        assert crush.hex() == (pressure * BODY.cross_section_area).hex()
        num, den_const, den_slope = _axial_terms(BODY, pressure)
        for previous, cell, length in zip(cells, cells[1:], lengths):
            expected = min(crush, num / (den_const + den_slope * length * length))
            if expected is crush:
                assert cell.limiting_force is crush
                if previous.limiting_force is crush:
                    assert cell is previous
            else:
                assert cell.limiting_force.hex() == expected.hex()
